"""Model containers and implied second moments.

Holds the banded VAR model (order d, bandwidth parameter k0, coefficient
matrices A_1..A_d, innovation covariance or None for identity), the observed
panel, the companion-form stationarity check, and the implied autocovariances
of first-order models. Their variance sums the series
sigma_eps + sum_i A^i sigma_eps (A^T)^i by doubling to machine precision, and
the truncation gap uses the exact tail A^(r+1) sigma0 (A^(r+1))^T.

The innovation covariance may be a dense array or a symmetric
:class:`BandedMatrix` (the structured designs' B B^T); a band is checked,
stored and written as its diagonals, and only the implied autocovariances,
dense by nature, densify it. Model documents take the lowest
``schema_version`` that holds them: 3 when sigma_eps is a band, else 2.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvals_banded

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

SCHEMA_VERSION = 3  # the version of a document with a banded sigma_eps


class TimeSeries:
    """A p-variate series of length n, stored as a p x n array (column t = y_t),
    copied into C order so that no result depends on the caller's layout.

    ``labels`` are optional per-series names. Instances are immutable.
    """

    __slots__ = ("values", "labels")

    def __init__(self, values, labels=None):
        vals = np.array(values, dtype=float, order="C")
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
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("TimeSeries is immutable")

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "TimeSeries":
        """Time slice [start, stop), keeping labels."""
        return TimeSeries(self.values[:, start:stop], self.labels)

    def permuted(self, perm) -> "TimeSeries":
        """Reorder the component series by ``perm`` (new position -> old index)."""
        perm = _check_permutation(perm, self.p)
        labels = tuple(self.labels[i] for i in perm) if self.labels else None
        return TimeSeries(self.values[perm], labels)

    def demeaned(self):
        """Subtract per-series sample means; returns (series, means)."""
        means = self.values.mean(axis=1)
        return TimeSeries(self.values - means[:, None], self.labels), means

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
    ``k0``. ``sigma_eps``, when present, is a dense array or a
    :class:`BandedMatrix` and must be symmetric (within 1e-12) positive
    semi-definite (lowest eigenvalue not below -1e-10); None means identity
    innovations, which is how simulation and the implied autocovariances read
    it. Fitted models carry None, so their implied autocovariances assume unit
    innovations. Instances are immutable.
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
        if isinstance(sigma_eps, BandedMatrix):
            if sigma_eps.p != p:
                raise ValueError(f"sigma_eps dimension {sigma_eps.p} does not match p={p}")
            k, diags = sigma_eps.k, sigma_eps.diagonals
            asym = max((np.abs(diags[k + o] - diags[k - o]).max() for o in range(1, k + 1)),
                       default=0.0)
            # rows k..2k of the packed band are LAPACK's lower symmetric band form
            low = eigvals_banded(sigma_eps._packed[k:], lower=True, select="i",
                                 select_range=(0, 0), check_finite=False)[0]
        elif sigma_eps is not None:
            sigma_eps = np.array(sigma_eps, dtype=float)
            if sigma_eps.shape != (p, p):
                raise ValueError(f"sigma_eps must be {p} x {p}")
            diff = sigma_eps - sigma_eps.T
            asym, low = np.abs(diff, out=diff).max(), np.linalg.eigvalsh(sigma_eps)[0]
            sigma_eps.flags.writeable = False
        if sigma_eps is not None:
            if asym > 1e-12:
                raise ValueError(f"sigma_eps asymmetry {asym:.3e} exceeds 1e-12")
            if low < -1e-10:
                raise ValueError("sigma_eps has an eigenvalue below -1e-10")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma_eps", sigma_eps)

    def __setattr__(self, name, value):
        raise AttributeError("BandedVarModel is immutable")

    def to_dict(self, means=None) -> dict:
        """JSON-ready form: each lag as the 2k + 1 diagonals of its stored
        bandwidth k (lowest first, as :attr:`BandedMatrix.diagonals`),
        p(2k + 1) numbers instead of p^2. A banded ``sigma_eps`` is written the
        same way, as ``{"diagonals": [...]}``, a form no dense list takes, in
        ``schema_version`` 3; any other document is ``schema_version`` 2, which
        a dense ``sigma_eps`` (a list of p rows) or none leaves readable as
        before."""
        banded = isinstance(self.sigma_eps, BandedMatrix)
        out = {
            "schema_version": SCHEMA_VERSION if banded else 2,
            "p": self.p,
            "d": self.d,
            "k0": self.k0,
            "coeffs": [[diag.tolist() for diag in a.diagonals] for a in self.coeffs],
        }
        if banded:
            out["sigma_eps"] = {"diagonals": [diag.tolist() for diag in self.sigma_eps.diagonals]}
        elif self.sigma_eps is not None:
            out["sigma_eps"] = self.sigma_eps.tolist()
        if means is not None:
            out["means"] = np.asarray(means, dtype=float).tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BandedVarModel":
        """Inverse of :meth:`to_dict`; re-validates the band structure. Version 1
        documents, with dense p x p lags, load at bandwidth min(k0, p - 1); a
        version 3 document must hold its ``sigma_eps`` as a band, and no other
        version may."""
        try:
            version = data["schema_version"]
            p = int(data["p"])
            d = int(data["d"])
            k0 = int(data["k0"])
            lags = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BandedVarError(f"invalid model document: {exc}") from exc
        if version == 1:
            coeffs = [BandedMatrix.from_dense(np.asarray(a, float), min(k0, p - 1)) for a in lags]
        elif version in (2, SCHEMA_VERSION):
            coeffs = [_band_from_document(p, lag, f"lag {ell}") for ell, lag in enumerate(lags, 1)]
        else:
            raise BandedVarError(f"unsupported model document schema_version {version!r}")
        sigma = data.get("sigma_eps")
        if isinstance(sigma, dict) != (version == SCHEMA_VERSION):
            need = "needs" if version == SCHEMA_VERSION else "cannot hold"
            raise BandedVarError(f"a schema_version {version!r} document {need} a banded sigma_eps")
        if version == SCHEMA_VERSION:
            sigma = _band_from_document(p, sigma.get("diagonals"), "sigma_eps")
        elif sigma is not None:
            sigma = np.asarray(sigma, dtype=float)
        return cls(p, d, k0, coeffs, sigma)

    def __repr__(self):
        return f"BandedVarModel(p={self.p}, d={self.d}, k0={self.k0})"


def _band_from_document(p, diags, name) -> BandedMatrix:
    """The band whose 2k + 1 diagonals a document lists, its failure named."""
    try:
        return BandedMatrix(p, (len(diags) - 1) // 2, diags)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


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
    """True when the companion spectral radius is below ``c = 1 - margin``.

    A norm certificate comes first, in O(p^2 k) work per lag. If z is a
    companion eigenvalue, some v != 0 has v = sum_l A_l z^(-l) v, so
    1 <= sum_l ||A_l||_2 |z|^(-l). Hence sum_l ||A_l||_2 c^(-l) < 1 (with
    c > 0) puts every eigenvalue strictly inside radius c, and the answer is
    True without forming the dp x dp companion matrix.

    Each ||A_l||_2 must then be an upper bound, not an estimate. The banded
    :func:`spectral_norm` takes the top eigenvalue of the computed
    G = A^T A. Each entry of G is a sum of at most 2k + 1 products, so the
    computed G is off by at most (2k + 1) eps |A|^T |A| entrywise, a matrix of
    2-norm at most ||A||_1 ||A||_inf <= w^2, where w is the sum over
    diagonals of their largest |entry|. The symmetric band eigensolver is
    backward stable, its eigenvalue error a modest multiple of
    p eps ||G||_2; 2p is allowed for it. So
    ||A||_2^2 <= lambda + 2 (p + k + 1) eps w^2. The d-term sum, powers and
    roots add a few eps relative each, covered by asking for a sum below
    1 - 4 d eps.

    When the certificate fails (near-unit or non-normal models, or a bound
    that overflows to inf), the answer comes from the dense companion
    eigenvalues, as it always did; it is then unchanged on every input where
    that dense check is itself reliable.
    """
    c = 1.0 - margin
    if c > 0:
        eps = float(np.finfo(float).eps)  # Python floats overflow to inf silently
        total = 0.0
        for ell, a in enumerate(model.coeffs, start=1):
            w = sum(float(np.abs(diag).max()) for diag in a.diagonals)
            norm = spectral_norm(a)  # norm ** 2 would raise on overflow
            lam = norm * norm + 2 * (a.p + a.k + 1) * eps * w * w
            total += np.sqrt(lam) * c ** (-ell)
        if total < 1.0 - 4 * model.d * eps:
            return True
    return spectral_radius(companion_matrix(model)) < c


def _var1_variance(model: BandedVarModel):
    """Coefficient matrix A and variance sigma0 = sum_i A^i sigma_eps (A^T)^i
    of a stationary first-order model (sigma_eps None: the identity).

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
    if not is_stationary(model):
        raise NonStationaryError("model is not stationary; the series diverges")
    a, sigma = model.coeffs[0].to_dense(), model.sigma_eps
    if sigma is None:
        sigma0 = np.eye(model.p)
    else:
        sigma0 = sigma.to_dense() if isinstance(sigma, BandedMatrix) else np.array(sigma)
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
    autocovariance estimates. A model without ``sigma_eps`` has identity
    innovations; for a fitted model that means unit innovation variances,
    not its residual covariance.
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
