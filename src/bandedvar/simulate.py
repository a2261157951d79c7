"""Ground-truth model generation and VAR path simulation.

Two coefficient generators mirror the benchmark designs, a dense uniform band
and a sparse mixture with large band-edge entries; both rescale to a spectral
norm drawn from U[0.3, 1.0) (or fixed), taken in band storage (no p x p array),
which guarantees stationarity. The structured innovation covariance B B^T is a
symmetric band of half-width 2, built and kept in band storage. A path
correlates its normal draws with the Cholesky factor of the innovation
covariance (a band's factor from ``scipy.linalg.cholesky_banded``, applied in
place in O(p (burn-in + n)) work) and runs the recursion forecasts share
(``linalg._var_recursion``) on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded

from .errors import NonStationaryError
from .linalg import BandedMatrix, _var_recursion, band_product, spectral_norm
from .model import BandedVarModel, TimeSeries, is_stationary
from .rng import substream

__all__ = [
    "SimConfig",
    "gen_coeff_uniform",
    "gen_coeff_mixture",
    "gen_sigma_eps_structured",
    "simulate_var",
    "make_model",
    "run_simulation",
]

DEFAULT_BURN_IN = 500
_BLOCK = 1 << 14  # entries of the work array a banded factor is applied through


@dataclass(frozen=True)
class SimConfig:
    """Settings for one synthetic dataset."""

    p: int
    n: int
    k0: int
    seed: int
    setting: str = "uniform"  # uniform | mixture
    sigma_eps_kind: str = "identity"  # identity | structured_bbt
    target_norm: float | None = None
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if self.p < 2 * self.k0 + 1:
            raise ValueError(f"p={self.p} must be at least 2 k0 + 1 = {2 * self.k0 + 1}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.setting not in ("uniform", "mixture"):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.setting == "mixture" and self.k0 < 1:
            raise ValueError("mixture setting needs k0 >= 1 (band-edge entries)")
        if self.sigma_eps_kind not in ("identity", "structured_bbt"):
            raise ValueError(f"unknown sigma_eps_kind {self.sigma_eps_kind!r}")


def _rescaled(p, k0, diagonal, rng, target_norm):
    """Band of diagonals ``diagonal(|o|, p - |o|)``, o = -k0..k0, redrawn while zero, rescaled."""
    while True:
        raw = BandedMatrix(p, k0, [diagonal(abs(o), p - abs(o)) for o in range(-k0, k0 + 1)])
        s = spectral_norm(raw)
        if s != 0.0:
            eta = float(target_norm) if target_norm is not None else rng.uniform(0.3, 1.0)
            return raw.scaled(eta / s)


def gen_coeff_uniform(p: int, k0: int, rng, target_norm: float | None = None) -> BandedMatrix:
    """Banded coefficient matrix with in-band entries U[-1, 1], rescaled so the
    spectral norm equals a U[0.3, 1.0) draw (or ``target_norm``)."""
    if p < 2 * k0 + 1:
        raise ValueError(f"p={p} must be at least 2 k0 + 1 = {2 * k0 + 1}")
    return _rescaled(p, k0, lambda o, size: rng.uniform(-1.0, 1.0, size=size), rng, target_norm)


def gen_coeff_mixture(p: int, k0: int, rng, target_norm: float | None = None) -> BandedMatrix:
    """Sparse banded coefficient matrix: strict-interior entries are 0 with
    probability 0.4 and N(0, 1) otherwise, band-edge entries are -4 or 4
    equiprobably; rescaled like the uniform generator."""
    if k0 < 1:
        raise ValueError("mixture generator needs k0 >= 1")
    if p < 2 * k0 + 1:
        raise ValueError(f"p={p} must be at least 2 k0 + 1 = {2 * k0 + 1}")

    def diagonal(o, size):
        if o == k0:
            return np.where(rng.random(size) < 0.5, -4.0, 4.0)
        keep = rng.random(size) >= 0.4
        return np.where(keep, rng.standard_normal(size), 0.0)

    return _rescaled(p, k0, diagonal, rng, target_norm)


def gen_sigma_eps_structured(p: int) -> BandedMatrix:
    """Innovation covariance B B^T with b_11 = 1 and, elsewhere, 0.6 on the
    diagonal and 0.8 on the first off-diagonals, as a band of half-width
    min(2, p - 1). B is symmetric, so B B^T = B B; each entry sums the same
    products in the same order as its mirror, so the band is exactly symmetric."""
    if p < 2:
        raise ValueError("structured covariance needs p >= 2")
    diag, off = np.full(p, 0.6), np.full(p - 1, 0.8)
    diag[0] = 1.0
    b = BandedMatrix(p, 1, [off, diag, off])
    return band_product(b, b)


def _correlate(sigma, z: np.ndarray) -> np.ndarray:
    """Innovations L z with covariance ``sigma`` = L L^T from the p x T
    standard normals ``z``.

    A :class:`BandedMatrix` is factored as U^T U by ``cholesky_banded`` on its
    upper band (rows 0..k of the packed array are LAPACK's upper form), and
    row i of L = U^T takes U[i - o, i], o = 0..k, from column i of the packed
    factor. Rows are rewritten in place in blocks from the bottom up, so each
    block reads rows at or above it that still hold their normals: O(p k T)
    work and no p x T temporary. A band whose factorisation fails (only
    semi-definite) takes a square root from its dense spectrum; a dense
    ``sigma`` takes its Cholesky factor, or that square root when it fails.
    """
    if isinstance(sigma, BandedMatrix):
        k = sigma.k
        try:
            u = cholesky_banded(sigma._packed[: k + 1], check_finite=False)
        except np.linalg.LinAlgError:
            return _dense_root(sigma.to_dense()) @ z
        p, steps = z.shape
        rows = max(1, _BLOCK // steps)
        for hi in range(p, 0, -rows):
            lo = max(hi - rows, 0)
            block = z[lo:hi] * u[k, lo:hi, None]
            for o in range(1, min(k, hi - 1) + 1):
                a = max(lo, o)  # rows before o have no term at o
                block[a - lo :] += u[k - o, a:hi, None] * z[a - o : hi - o]
            z[lo:hi] = block
        return z
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return _dense_root(sigma) @ z
    return factor @ z


def _dense_root(sigma: np.ndarray) -> np.ndarray:
    """A square root V sqrt(max(w, 0)) of a semi-definite matrix from its spectrum."""
    w, v = np.linalg.eigh(sigma)
    return v * np.sqrt(np.clip(w, 0.0, None))


def simulate_var(
    model: BandedVarModel,
    n: int,
    burn_in: int = DEFAULT_BURN_IN,
    rng=None,
    allow_explosive: bool = False,
) -> TimeSeries:
    """Simulate n observations with Gaussian innovations, after a burn-in from
    a zero start. A missing ``sigma_eps`` means identity innovations; a banded
    one is applied in band storage (see :func:`_correlate`)."""
    if n < 1:
        raise ValueError("need at least one observation")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if not allow_explosive and not is_stationary(model):
        raise NonStationaryError(
            "refusing to simulate a non-stationary model (pass allow_explosive=True to override)"
        )
    if rng is None:
        rng = substream(0, "innovations")
    out = rng.standard_normal((model.p, burn_in + n))  # innovations, updated in place
    if model.sigma_eps is not None:
        out = _correlate(model.sigma_eps, out)
    _var_recursion(model.coeffs, out, 0)
    return TimeSeries(out[:, burn_in:])


def _draw_model(setting, p, k0, rng, target_norm=None, sigma=None) -> BandedVarModel:
    """First-order model with a ``setting`` ("uniform" or "mixture")
    coefficient matrix drawn from ``rng`` and innovation covariance ``sigma``
    (identity when None)."""
    if setting == "uniform":
        a = gen_coeff_uniform(p, k0, rng, target_norm)
    elif setting == "mixture":
        a = gen_coeff_mixture(p, k0, rng, target_norm)
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return BandedVarModel(p, 1, k0, [a], sigma)


def make_model(config: SimConfig) -> BandedVarModel:
    """Draw the ground-truth model for ``config`` (substream "coeffs")."""
    structured = config.sigma_eps_kind == "structured_bbt"
    sigma = gen_sigma_eps_structured(config.p) if structured else None
    return _draw_model(
        config.setting, config.p, config.k0, substream(config.seed, "coeffs"),
        config.target_norm, sigma,
    )


def run_simulation(config: SimConfig):
    """Draw a model and a path for ``config``; returns (model, series)."""
    model = make_model(config)
    ts = simulate_var(
        model,
        config.n,
        burn_in=config.burn_in,
        rng=substream(config.seed, "innovations"),
    )
    return model, ts
