"""Ground-truth model generation and VAR path simulation.

Two coefficient generators mirror the benchmark designs, a dense uniform band
and a sparse mixture with large band-edge entries; both rescale to a spectral
norm drawn from U[0.3, 1.0) (or fixed), taken in band storage (no p x p array),
which guarantees stationarity. A path runs the recursion forecasts share
(``linalg._var_recursion``) on its draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonStationaryError
from .linalg import BandedMatrix, _var_recursion, spectral_norm
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


def gen_sigma_eps_structured(p: int) -> np.ndarray:
    """Innovation covariance B B^T with b_11 = 1 and, elsewhere, 0.6 on the
    diagonal and 0.8 on the first off-diagonals. Banded with half-width 2."""
    if p < 2:
        raise ValueError("structured covariance needs p >= 2")
    b = np.diag(np.full(p, 0.6))
    idx = np.arange(p - 1)
    b[idx, idx + 1] = 0.8
    b[idx + 1, idx] = 0.8
    b[0, 0] = 1.0
    return b @ b.T


def simulate_var(
    model: BandedVarModel,
    n: int,
    burn_in: int = DEFAULT_BURN_IN,
    rng=None,
    allow_explosive: bool = False,
) -> TimeSeries:
    """Simulate n observations with Gaussian innovations, after a burn-in from
    a zero start. A missing ``sigma_eps`` means identity innovations."""
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
        try:
            factor = np.linalg.cholesky(model.sigma_eps)
        except np.linalg.LinAlgError:  # semi-definite: a square root from the spectrum
            w, v = np.linalg.eigh(model.sigma_eps)
            factor = v * np.sqrt(np.clip(w, 0.0, None))
        out = factor @ out
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
