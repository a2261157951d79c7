"""Dense and banded linear-algebra kernels.

A banded matrix is stored by diagonals, so a p x p matrix with bandwidth
parameter k costs O(p k) memory instead of O(p^2). Conversion to a dense
array is always an explicit call, never implicit. Dense matrices are plain
``numpy.ndarray`` values throughout the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvals_banded as _eigvals_banded
from scipy.linalg import eigvalsh as _eigvalsh
from scipy.linalg.blas import daxpy as _daxpy
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
    def from_dense(cls, dense, k: int) -> "BandedMatrix":
        """Build from a dense square array.

        Any non-zero entry outside the band raises ValueError; truncation must
        be requested explicitly via :func:`bandedvar.autocov.band` first.
        """
        a = np.asarray(dense, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be a square 2-D array")
        p = a.shape[0]
        if k < p - 1:
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


def _var_recursion(coeffs, y: np.ndarray, start: int) -> None:
    """Add sum_l A_l y[:, t - l] into column t of the C-ordered p x T array ``y``
    for t = start..T-1, lag 1 first, skipping lags before column 0, with the bits
    of ``y[:, t] += A_l.matvec(y[:, t - l])``: a strided ``dgbmv`` and a unit
    ``daxpy`` per term, called positionally (f2py's keyword parsing is slow)."""
    p, steps = y.shape
    flat = y.reshape(-1)  # a view, written in place by daxpy
    lags = [(ell, max(p, 2 * a.k + 1), a.k, a._packed) for ell, a in enumerate(coeffs, 1)]
    for t in range(start, steps):
        for ell, rows, k, packed in lags[:t]:
            ax = _dgbmv(rows, p, k, k, 1.0, packed, flat, steps, t - ell)
            _daxpy(ax, flat, p, 1.0, 0, 1, t, steps)


def band_product(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Multiply two banded matrices, staying in band storage.

    The result has bandwidth parameter ``min(a.k + b.k, p - 1)``; entries
    outside that band of the dense product are identically zero.
    """
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: {a.p} vs {b.p}")
    p, kf = a.p, a.k + b.k
    kc = min(kf, p - 1)
    # Work in LAPACK band layout at half-width kf, C[i, j] at [kf + i - j, j].
    # B's diagonal at offset w scales column m of A's packed array by
    # B[m, m + w] and lands in column m + w, rows shifted by kb - w. Offsets
    # run downwards, so each entry sums its terms A[i, m] B[m, j] by ascending
    # m; absent terms are zero products and leave the sums' bits unchanged.
    acc = np.zeros((2 * kf + 1, p))
    for w in range(b.k, -b.k - 1, -1):
        lo, hi = max(0, -w), min(p, p - w)
        acc[b.k - w : b.k - w + 2 * a.k + 1, lo + w : hi + w] += (
            a._packed[:, lo:hi] * b.diagonals[w + b.k]
        )
    out = [acc[kf - o, max(o, 0) : p + min(o, 0)] for o in range(-kc, kc + 1)]
    return BandedMatrix(p, kc, out)


def l1_norm(m) -> float:
    """Largest absolute column sum. A :class:`BandedMatrix` sums the columns of
    its packed band, its matrix columns top to bottom between zeros, in C order:
    row by row, the order of a dense array's sums, so the bits are the same."""
    m = np.ascontiguousarray(m._packed) if isinstance(m, BandedMatrix) else np.asarray(m, float)
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
    smaller Gram matrix, from one LAPACK symmetric eigensolver call.

    A :class:`BandedMatrix` stays in band storage: A^T A (half-width 2k) is
    formed from the packed columns and its top eigenvalue comes from the
    banded symmetric eigensolver, whose band reduction costs O(p^2 k) instead
    of the dense O(p^3).

    An input whose largest |entry| lies outside (2^-400, 2^400) is first
    scaled by a power of two, which is exact, so that its Gram matrix neither
    overflows nor underflows; other inputs are used as they are, uncopied.
    """
    banded = isinstance(m, BandedMatrix)
    if not banded:
        m = np.asarray(m, dtype=float)
        if m.ndim != 2:
            raise ValueError("input must be 2-D")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        if m.size == 0:
            return 0.0
    a = m._packed if banded else m
    big = max(a.max(), -a.min())
    if big and not 2.0**-400 < big < 2.0**400:
        e = int(np.frexp(big)[1])
        if banded:
            m = BandedMatrix(m.p, m.k, [np.ldexp(d, -e) for d in m.diagonals])
        else:
            m = np.ldexp(m, -e)
        try:
            return math.ldexp(spectral_norm(m), e)
        except OverflowError:  # the norm itself is beyond the largest float
            return math.inf
    if banded:
        p, k = m.p, m.k
        u = min(2 * k, p - 1)
        # G[i, i + o] is the dot product of columns i and i + o of A, which
        # share packed rows o..2k of column i and 0..2k-o of column i + o
        # (zero padding covers the edges); G[i, j] sits at [u + i - j, j],
        # LAPACK's upper band form.
        g = np.zeros((u + 1, p))
        for o in range(u + 1):
            g[u - o, o:] = (a[o:, : p - o] * a[: 2 * k + 1 - o, o:]).sum(axis=0)
        lam = _eigvals_banded(g, select="i", select_range=(p - 1, p - 1), check_finite=False)[0]
        return float(np.sqrt(max(lam, 0.0)))
    g = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    top = g.shape[0] - 1
    # numpy forms the Gram matrix with syrk and mirrors it, so it is exactly
    # symmetric and its transpose is the same matrix in the Fortran order
    # LAPACK wants: the solver works in g instead of a p x p copy of it.
    lam = _eigvalsh(g.T, subset_by_index=[top, top], check_finite=False, overwrite_a=True)[0]
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
