"""Model containers and implied second moments.

Holds the banded VAR model (order d, bandwidth parameter k0, coefficient
matrices A_1..A_d, optional innovation covariance), the observed panel, the
companion-form stationarity check, and the implied autocovariances of
first-order models. Their variance sums the series
sigma_eps + sum_i A^i sigma_eps (A^T)^i by doubling to machine precision, and
the truncation gap uses the exact tail A^(r+1) sigma0 (A^(r+1))^T.
"""

from __future__ import annotations

import numpy as np

from .errors import BandedVarError, NonStationaryError
from .linalg import BandedMatrix, frobenius_norm, l1_norm, spectral_norm, spectral_radius

__all__ = [
    "TimeSeries",
    "BandedVarModel",
    "companion_matrix",
    "is_stationary",
    "theoretical_autocov_var1",
    "banded_approximation_gap",
]

SCHEMA_VERSION = 1


class TimeSeries:
    """A p-variate series of length n, stored as a p x n array (column t = y_t).

    ``labels`` are optional per-series names and ``coords`` optional per-series
    2-D positions used by ordering strategies. Instances are immutable.
    """

    __slots__ = ("values", "labels", "coords")

    def __init__(self, values, labels=None, coords=None):
        vals = np.array(values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D array (series x time)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series values must be finite")
        vals.flags.writeable = False
        p = vals.shape[0]
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != p:
                raise ValueError(f"{len(labels)} labels for {p} series")
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.shape != (p, 2):
                raise ValueError(f"coords must have shape ({p}, 2)")
            coords.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("TimeSeries is immutable")

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "TimeSeries":
        """Time slice [start, stop), keeping labels and coordinates."""
        return TimeSeries(self.values[:, start:stop], self.labels, self.coords)

    def permuted(self, perm) -> "TimeSeries":
        """Reorder the component series by ``perm`` (new position -> old index)."""
        perm = _check_permutation(perm, self.p)
        labels = tuple(self.labels[i] for i in perm) if self.labels else None
        coords = self.coords[perm] if self.coords is not None else None
        return TimeSeries(self.values[perm], labels, coords)

    def demeaned(self):
        """Subtract per-series sample means; returns (series, means)."""
        means = self.values.mean(axis=1)
        return TimeSeries(self.values - means[:, None], self.labels, self.coords), means

    def __repr__(self):
        return f"TimeSeries(p={self.p}, n={self.n})"


def _check_permutation(perm, p: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (p,) or not np.array_equal(np.sort(perm), np.arange(p)):
        raise ValueError(f"not a permutation of 0..{p - 1}")
    return perm


class BandedVarModel:
    """Banded vector autoregression: y_t = A_1 y_{t-1} + ... + A_d y_{t-d} + e_t.

    Every coefficient matrix is banded with bandwidth parameter at most
    ``k0``. ``sigma_eps``, when present, must be symmetric positive
    semi-definite. Instances are immutable.
    """

    __slots__ = ("p", "d", "k0", "coeffs", "sigma_eps")

    def __init__(self, p: int, d: int, k0: int, coeffs, sigma_eps=None):
        p = int(p)
        d = int(d)
        k0 = int(k0)
        if d < 1:
            raise ValueError("order d must be at least 1")
        if k0 < 0:
            raise ValueError("bandwidth parameter k0 must be non-negative")
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coefficient matrices, got {len(coeffs)}")
        for a in coeffs:
            if not isinstance(a, BandedMatrix):
                raise TypeError("coefficients must be BandedMatrix values")
            if a.p != p:
                raise ValueError(f"coefficient dimension {a.p} does not match p={p}")
            if a.k > k0:
                raise ValueError(f"coefficient bandwidth {a.k} exceeds k0={k0}")
        if sigma_eps is not None:
            sigma_eps = np.array(sigma_eps, dtype=float)
            if sigma_eps.shape != (p, p):
                raise ValueError(f"sigma_eps must be {p} x {p}")
            asym = np.abs(sigma_eps - sigma_eps.T).max() if p else 0.0
            if asym > 1e-12:
                raise ValueError(f"sigma_eps asymmetry {asym:.3e} exceeds 1e-12")
            if np.linalg.eigvalsh(sigma_eps).min() < -1e-10:
                raise ValueError("sigma_eps has an eigenvalue below -1e-10")
            sigma_eps.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma_eps", sigma_eps)

    def __setattr__(self, name, value):
        raise AttributeError("BandedVarModel is immutable")

    def to_dict(self, means=None) -> dict:
        """JSON-ready form with dense row-major coefficient matrices."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "p": self.p,
            "d": self.d,
            "k0": self.k0,
            "coeffs": [a.to_dense().tolist() for a in self.coeffs],
        }
        if self.sigma_eps is not None:
            out["sigma_eps"] = self.sigma_eps.tolist()
        if means is not None:
            out["means"] = np.asarray(means, dtype=float).tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BandedVarModel":
        """Inverse of :meth:`to_dict`; re-validates the band structure."""
        try:
            p = int(data["p"])
            d = int(data["d"])
            k0 = int(data["k0"])
            dense = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BandedVarError(f"invalid model document: {exc}") from exc
        k_store = min(k0, p - 1)
        coeffs = [BandedMatrix.from_dense(np.asarray(a, dtype=float), k_store) for a in dense]
        sigma = data.get("sigma_eps")
        return cls(p, d, k0, coeffs, None if sigma is None else np.asarray(sigma, dtype=float))

    def __repr__(self):
        return f"BandedVarModel(p={self.p}, d={self.d}, k0={self.k0})"


def companion_matrix(model: BandedVarModel) -> np.ndarray:
    """dp x dp first-order form: coefficient blocks on top, shifted identities below."""
    p, d = model.p, model.d
    out = np.zeros((d * p, d * p))
    for ell, a in enumerate(model.coeffs):
        out[:p, ell * p : (ell + 1) * p] = a.to_dense()
    for r in range(1, d):
        idx = np.arange(p)
        out[r * p + idx, (r - 1) * p + idx] = 1.0
    return out


def is_stationary(model: BandedVarModel, margin: float = 1e-6) -> bool:
    """True when the companion spectral radius is below ``1 - margin``."""
    return spectral_radius(companion_matrix(model)) < 1.0 - margin


def _var1_variance(model: BandedVarModel):
    """Coefficient matrix A and variance sigma0 = sum_i A^i sigma_eps (A^T)^i
    of a stationary first-order model.

    The series is summed by Smith doubling: with S the first m summands,
    S + A^m S (A^m)^T is the first 2m. The rest of the series after m
    summands is exactly A^m sigma0 (A^m)^T, so stopping once
    ||A^m||_F^2 <= eps leaves a tail below eps relative to sigma0; under
    stationarity A^m -> 0 and the loop ends.
    """
    if model.d != 1:
        raise BandedVarError(
            f"unsupported order d={model.d}: implied autocovariances are "
            "available for first-order models only"
        )
    if model.sigma_eps is None:
        raise ValueError("model has no innovation covariance")
    if not is_stationary(model):
        raise NonStationaryError("model is not stationary; the series diverges")
    a = model.coeffs[0].to_dense()
    sigma0 = np.array(model.sigma_eps)
    apow = a
    while frobenius_norm(apow) ** 2 > np.finfo(float).eps:
        sigma0 += apow @ sigma0 @ apow.T
        apow = apow @ apow
    return a, sigma0


def theoretical_autocov_var1(model: BandedVarModel, j: int = 0) -> np.ndarray:
    """Lag-j autocovariance cov(y_t, y_{t+j}) implied by a stationary
    first-order model.

    The variance is the full series sigma_eps + sum_i A^i sigma_eps (A^T)^i
    (to machine precision, see :func:`_var1_variance`); lag j > 0
    post-multiplies it by (A^T)^j, matching the orientation the lag-j sample
    autocovariance estimates.
    """
    if j < 0:
        raise ValueError("lag must be non-negative")
    a, sigma0 = _var1_variance(model)
    return sigma0 @ np.linalg.matrix_power(a.T, j) if j else sigma0


def banded_approximation_gap(model: BandedVarModel, j: int, r: int):
    """Norm distance between the r-term series truncation and the full lag-j
    autocovariance, as ``(spectral gap, l1 gap)``.

    The truncation keeps sigma_eps plus the first r summands, so the gap is
    the norm of the series tail, exactly A^(r+1) sigma0 (A^(r+1))^T; it
    shrinks geometrically for stationary models with banded innovation
    covariance.
    """
    if j < 0:
        raise ValueError("lag must be non-negative")
    if r < 0:
        raise ValueError("truncation level must be non-negative")
    a, sigma0 = _var1_variance(model)
    apow = np.linalg.matrix_power(a, r + 1)
    tail = apow @ sigma0 @ apow.T
    if j > 0:
        tail = tail @ np.linalg.matrix_power(a.T, j)
    return spectral_norm(tail), l1_norm(tail)
