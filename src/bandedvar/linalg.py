"""Dense and banded linear-algebra kernels.

A banded matrix is stored by diagonals, so a p x p matrix with bandwidth
parameter k costs O(p k) memory instead of O(p^2). Conversion to a dense
array is always an explicit call, never implicit. Dense matrices are plain
``numpy.ndarray`` values throughout the package.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh as _eigvalsh
from scipy.linalg.blas import dgbmv as _dgbmv

from .errors import ConvergenceError

__all__ = [
    "BandedMatrix",
    "band_product",
    "l1_norm",
    "linf_norm",
    "frobenius_norm",
    "spectral_norm",
    "spectral_radius",
]


class BandedMatrix:
    """Square matrix with entries confined to ``|i - j| <= k``, stored by diagonals.

    ``diagonals[m]`` holds the diagonal with offset ``o = m - k`` (column index
    minus row index): index 0 is the lowest sub-diagonal, index ``2k`` the
    highest super-diagonal. The diagonal at offset ``o`` has length ``p - |o|``
    and its ``t``-th entry is element ``(t, t + o)`` for ``o >= 0`` and
    ``(t - o, t)`` for ``o < 0``. The diagonals are views into one array in
    LAPACK general band layout, element ``(i, j)`` at ``[k + i - j, j]``, so
    :meth:`matvec` is a single BLAS ``dgbmv`` call. Instances are immutable.
    """

    __slots__ = ("p", "k", "diagonals", "_packed")

    def __init__(self, p: int, k: int, diagonals):
        p = int(p)
        k = int(k)
        if p <= 0:
            raise ValueError("dimension p must be positive")
        if not 0 <= k <= p - 1:
            raise ValueError(f"bandwidth parameter k={k} outside [0, {p - 1}]")
        diags = list(diagonals)
        if len(diags) != 2 * k + 1:
            raise ValueError(f"expected {2 * k + 1} diagonals, got {len(diags)}")
        packed = np.zeros((2 * k + 1, p), order="F")
        views = []
        for m, d in enumerate(diags):
            arr = np.asarray(d, dtype=float)
            want = p - abs(m - k)
            if arr.shape != (want,):
                raise ValueError(
                    f"diagonal at offset {m - k} has length {arr.shape}, expected ({want},)"
                )
            o = m - k
            view = packed[k - o, max(o, 0) : p + min(o, 0)]
            view[:] = arr
            view.flags.writeable = False
            views.append(view)
        if not np.all(np.isfinite(packed)):
            raise ValueError("banded matrix entries must be finite")
        packed.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "diagonals", tuple(views))
        object.__setattr__(self, "_packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("BandedMatrix is immutable")

    @classmethod
    def zeros(cls, p: int, k: int = 0) -> "BandedMatrix":
        return cls(p, k, [np.zeros(p - abs(m - k)) for m in range(2 * k + 1)])

    @classmethod
    def identity(cls, p: int) -> "BandedMatrix":
        return cls(p, 0, [np.ones(p)])

    @classmethod
    def from_dense(cls, dense, k: int, check: bool = True) -> "BandedMatrix":
        """Build from a dense square array.

        With ``check=True`` (the default) any non-zero entry outside the band
        raises ValueError; truncation must be requested explicitly via
        :func:`bandedvar.autocov.band` first.
        """
        a = np.asarray(dense, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be a square 2-D array")
        p = a.shape[0]
        if check and k < p - 1:
            rows, cols = np.nonzero(a)
            if np.any(np.abs(rows - cols) > k):
                bad = np.argmax(np.abs(rows - cols) > k)
                raise ValueError(
                    f"entry ({rows[bad]}, {cols[bad]}) lies outside bandwidth {k}"
                )
        return cls(p, k, [np.diagonal(a, offset=m - k).copy() for m in range(2 * k + 1)])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for m, d in enumerate(self.diagonals):
            o = m - self.k
            idx = np.arange(self.p - abs(o))
            if o >= 0:
                out[idx, idx + o] = d
            else:
                out[idx - o, idx] = d
        return out

    def __getitem__(self, ij) -> float:
        i, j = ij
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise IndexError(f"index ({i}, {j}) out of range for p={self.p}")
        o = j - i
        if abs(o) > self.k:
            return 0.0
        return float(self.diagonals[o + self.k][min(i, j)])

    def diagonal(self, offset: int = 0) -> np.ndarray:
        if abs(offset) > self.k:
            return np.zeros(self.p - abs(offset))
        return self.diagonals[offset + self.k]

    def scaled(self, c: float) -> "BandedMatrix":
        return BandedMatrix(self.p, self.k, [c * d for d in self.diagonals])

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ValueError(f"vector length {v.shape} does not match p={self.p}")
        # scipy's dgbmv wrapper wants at least 2k + 1 rows; rows past p read
        # the zero padding of the packed array and are dropped.
        rows = max(self.p, 2 * self.k + 1)
        return _dgbmv(rows, self.p, self.k, self.k, 1.0, self._packed, v)[: self.p]

    def __repr__(self):
        return f"BandedMatrix(p={self.p}, k={self.k})"


def band_product(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Multiply two banded matrices, staying in band storage.

    The result has bandwidth parameter ``min(a.k + b.k, p - 1)``; entries
    outside that band of the dense product are identically zero.
    """
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: {a.p} vs {b.p}")
    p = a.p
    kc = min(a.k + b.k, p - 1)
    out = [np.zeros(p - abs(m - kc)) for m in range(2 * kc + 1)]
    for o in range(-kc, kc + 1):
        acc = out[o + kc]
        for u in range(max(-a.k, o - b.k), min(a.k, o + b.k) + 1):
            w = o - u
            lo = max(0, -o, -u)
            hi = p - max(0, o, u)
            if hi <= lo:
                continue
            # C[i, i+o] += A[i, i+u] * B[i+u, i+o]; each diagonal indexes by min
            # of its own (row, col) pair.
            da = a.diagonals[u + a.k]
            db = b.diagonals[w + b.k]
            acc[lo + min(0, o) : hi + min(0, o)] += (
                da[lo + min(0, u) : hi + min(0, u)]
                * db[lo + u + min(0, w) : hi + u + min(0, w)]
            )
    return BandedMatrix(p, kc, out)


def l1_norm(m) -> float:
    """Largest absolute column sum."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=0).max())


def linf_norm(m) -> float:
    """Largest absolute row sum."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    m = np.asarray(m, dtype=float)
    return float(np.sqrt((m * m).sum()))


def spectral_norm(m) -> float:
    """Largest singular value: the square root of the top eigenvalue of the
    smaller Gram matrix, from one LAPACK symmetric eigensolver call."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("input must be 2-D")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite")
    if m.size == 0:
        return 0.0
    g = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    top = g.shape[0] - 1
    lam = _eigvalsh(g, subset_by_index=[top, top], check_finite=False)[0]
    return float(np.sqrt(max(lam, 0.0)))


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square 2-D array")
    if m.size == 0:
        return 0.0
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.abs(eig).max())
