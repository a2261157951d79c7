"""Row-wise least-squares estimation of banded coefficient matrices.

Each equation i regresses y_{i,t} on the lagged values of the series within
bandwidth k of i, for lags 1..d. Rows are estimated independently, so the
whole fit parallelises across equations without changing the result.

Bandwidth selection and the fit share one kernel, :func:`_gram_blocks`: one
stacked Cholesky per block of rows' banded Gram matrices, with inert padding
past the panel's edges, and one QR per row (:func:`_row_qr`, which raises the
named errors) for the rows its accuracy guard rejects. Every singular row
reaches QR, so one error lists them all.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularDesignError
from .linalg import BandedMatrix
from .model import BandedVarModel, TimeSeries

__all__ = [
    "FitReport",
    "row_regressor_count",
    "band_columns",
    "fit_banded_var",
]


def row_regressor_count(i: int, k: int, d: int, p: int) -> int:
    """Number of regressors for equation i: d lags times the in-band series count.

    Interior rows have (2k+1)d regressors; rows within k of either edge lose
    the out-of-range columns. Indices are 0-based.
    """
    if not 0 <= i < p:
        raise ValueError(f"row {i} out of range for p={p}")
    if not 0 <= k <= p - 1:
        raise ValueError(f"bandwidth parameter k={k} outside [0, {p - 1}]")
    if d < 1:
        raise ValueError("order d must be at least 1")
    return d * (min(p - 1, i + k) - max(0, i - k) + 1)


def _regressor_counts(p: int, ks, d: int) -> np.ndarray:
    """:func:`row_regressor_count` of every row (axis 0) at every bandwidth in ``ks``."""
    i = np.arange(p)[:, None]
    return d * (np.minimum(p - 1, i + ks) - np.maximum(0, i - ks) + 1)


def band_columns(i: int, k: int, d: int, p: int):
    """(lag, series) pairs backing each design column, lag-major then series ascending."""
    lo, hi = max(0, i - k), min(p - 1, i + k)
    return [(lag, j) for lag in range(1, d + 1) for j in range(lo, hi + 1)]


@dataclass
class FitReport:
    """Assembled model plus per-equation diagnostics.

    ``rss[i]`` is the residual sum of squares of equation i, ``betas[i]`` its
    coefficient vector (lag-major, series ascending), ``sigma_hat[i]`` the
    innovation variance estimate rss[i] / (n - d). ``means`` holds the
    per-series sample means that were subtracted when the fit demeaned.
    """

    model: BandedVarModel
    rss: np.ndarray
    betas: list = field(repr=False)
    sigma_hat: np.ndarray = field(repr=False)
    means: np.ndarray | None = None

    def to_dict(self) -> dict:
        """Per-equation diagnostics; the model and means go in the model document."""
        return {"rss": self.rss.tolist(), "sigma_hat": self.sigma_hat.tolist()}


def fit_banded_var(
    ts: TimeSeries, k: int, d: int = 1, demean: bool = False, threads: int = 1
) -> FitReport:
    """Fit all p equations at bandwidth k and order d and assemble the model.

    With ``demean=True`` per-series sample means are removed first and kept in
    the report. Equations may be fitted by several worker threads; the result
    does not depend on the worker count.
    """
    work, means = ts.demeaned() if demean else (ts, None)
    p, n = work.p, work.n

    def solve(chol):
        # coefficients in ring order (zero on padding columns), then the RSS
        w = chol.shape[1] - 1
        beta = np.linalg.solve(chol[:, :w, :w].transpose(0, 2, 1), chol[:, w, :w, None])
        return np.column_stack([beta[..., 0], chol[:, w, w] ** 2])

    out, _ = _gram_blocks(work.values, k, d, solve, d * (2 * k + 1) + 1, threads)

    # ring order to series ascending: position o + k holds series i + o;
    # coefficient (i, j) at lag l sits on diagonal (j - i) + k at min(i, j)
    rss = out[:, -1]
    beta = out[:, :-1].reshape(p, 2 * k + 1, d)[:, np.argsort(_ring_offsets(k))]
    col = np.arange(p)[:, None] + np.arange(-k, k + 1)
    real = (col >= 0) & (col < p)
    row, diag = np.nonzero(real)
    diags = np.zeros((d, 2 * k + 1, p))
    diags[:, diag, np.minimum(row, col[row, diag])] = beta[row, diag].T
    coeffs = [
        BandedMatrix(p, k, [diags[lag, m, : p - abs(m - k)] for m in range(2 * k + 1)])
        for lag in range(d)
    ]
    return FitReport(
        model=BandedVarModel(p, d, k, coeffs),
        rss=rss,
        betas=[beta[i, real[i]].T.ravel() for i in range(p)],  # lag-major
        sigma_hat=rss / (n - d),
        means=means,
    )


def _parallel_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, on ``threads`` worker threads when above one."""
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _ring_offsets(k: int) -> np.ndarray:
    """Offsets of the series within bandwidth k by distance: 0, -1, +1, -2, +2, ..."""
    return np.array([0] + [s for ring in range(1, k + 1) for s in (-ring, ring)])


# Relative pivot threshold below which a design is declared rank deficient.
RANK_TOL = 1e-12


def _row_qr(values: np.ndarray, i: int, k: int, d: int) -> np.ndarray:
    """R factor of equation i's design in ring order with the response appended.

    Columns run over the in-range series at :func:`_ring_offsets` from i, with
    lags 1..d inside each series, then y_{i,t}, t = d..n-1. Each narrower
    bandwidth is a column prefix of width w: its coefficients solve
    ``R[:w, :w] beta = R[:w, -1]`` and its RSS is the tail sum
    ``sum(R[w:, -1] ** 2)``, which adds only squares and so stays accurate on
    series with a large level (Golub & Van Loan, Matrix Computations, sec.
    5.3). A pivot below ``RANK_TOL`` times the largest raises
    SingularDesignError naming the row, lag and series, with the column
    indexed in :func:`band_columns` order.
    """
    p, n = values.shape
    width = row_regressor_count(i, k, d, p)
    if n <= d + width:
        raise ValueError(
            f"series too short for row {i} at (k={k}, d={d}): "
            f"need n > {d + width}, have n = {n}"
        )
    series = i + _ring_offsets(k)
    series = series[(series >= 0) & (series < p)]
    a = np.empty((n - d, width + 1))
    for lag in range(1, d + 1):
        a[:, lag - 1 : width : d] = values[series, d - lag : n - lag].T
    a[:, width] = values[i, d:]
    r = np.linalg.qr(a, mode="r")
    piv = np.abs(np.diagonal(r))[:width]
    largest = piv.max()
    bad = np.nonzero(piv < RANK_TOL * largest)[0]
    if largest == 0.0 or bad.size:
        c = 0 if largest == 0.0 else int(bad[0])
        lag, j = c % d + 1, int(series[c // d])
        col = (lag - 1) * len(series) + j - max(0, i - k)
        raise SingularDesignError(
            f"row {i}: rank-deficient design: pivot {piv[c]:.3e} at column {col} "
            f"below {RANK_TOL:g} x largest pivot {largest:.3e} (lag {lag}, series {j})",
            column=col,
            row=i,
        )
    return r


# Entries per block's stack of Gram matrices (128 KiB): 16 rows at K=15, d=1.
# A block's row count depends on K and d only, never on the worker count.
_BLOCK_ENTRIES = 2**14
# Gram-path guard (see _gram_blocks): the smallest pivot ratio, and the largest
# certified first-order relative error of the RSS.
_PIVOT_TOL = 100 * RANK_TOL
_CERT_TOL = 1e-11
_EPS = np.finfo(float).eps


def _gram_blocks(values, K: int, d: int, solve, width: int, threads: int = 1):
    """``(out, qr_rows)``: ``out[i] = solve(L)``, of ``width`` values, for each
    equation i, with L the Cholesky factor of its augmented Gram matrix at
    bandwidth K, and the rows whose L came from QR.

    L's columns are :func:`_row_qr`'s on all 2K+1 ring positions, then y at
    m = d(2K+1). Each block's Gram matrices are gathered as ``flat[T + rows]``
    from one array of the cross products <x_a(t-l1), x_b(t-l2)>, a <= b <= a
    + 2K, l1, l2 <= d (lag 0 is y), with K columns on each side for series
    past an edge that hold zeros, and ones on each lag's squares. A ring
    position past an edge is then an inert column, zero in L but for a unit
    diagonal, so on every row the RSS of bandwidth k is the tail sum of
    squares of L[m] from d(2k+1) on. ``solve`` maps a stack of factors.

    Normal equations square the condition number (Golub & Van Loan, Matrix
    Computations, sec. 5.3), so R from :func:`_row_qr`, in L's layout, is
    used where the series is too short, the block's Cholesky raises, L is not
    finite, the RSS L[m, m]^2 is not positive, or
    - the smallest eigenvalue lam of the column-scaled Gram matrix
      D^-1 G[:m, :m] D^-1 (unit diagonal) is not certified above
      eps (y.y / RSS) m / ``_CERT_TOL`` by a Cholesky of that matrix less the
      shift (``np.linalg.eigvalsh`` when the stack's Cholesky raises). The
      RSS is y.y less the explained sum, and its first-order rounding error
      relative to itself is about eps (y.y / RSS) (1 + sqrt(m / lam))^2; the
      coefficients' is about eps m / lam. Against QR on 6 200 rows of random,
      rescaled, shifted, near-collinear and autocorrelated panels the RSS
      error stayed below 1.5 eps (y.y / RSS) m / lam, so the certificate
      keeps it below about 1.5e-11, under the 1e-10 at which outputs are
      compared. A
      series level far above its noise (large y.y / RSS) or near-collinear
      regressors (small lam) fail here;
    - the pivot ratio min / max L[c, c] over real columns < ``_PIVOT_TOL`` =
      100 ``RANK_TOL``: certified pivots are accurate to far better than that
      factor, so every design ``_row_qr`` rejects reaches it.
    Blocks of ``_BLOCK_ENTRIES`` / (m + 1)^2 rows, then the QR rows in row
    order, are mapped over ``threads`` workers. A too-short row's ValueError
    propagates; otherwise the QR rows that are singular raise one
    SingularDesignError listing them all in ``rows``, named by the first.
    """
    p, n = values.shape
    row_regressor_count(0, K, d, p)  # the named errors for K and d
    m = d * (2 * K + 1)
    off = np.append(np.repeat(_ring_offsets(K), d), 0)  # series offset of each column
    lag = np.append(np.tile(np.arange(1, d + 1), 2 * K + 1), 0)
    # G[c1, c2] reads the product (distance, lag at a, lag at b) anchored at
    # the lower series a = i + min(off[c1], off[c2]); dot products commute
    lower = off[:, None] < off
    la, lb = np.where(lower, lag[:, None], lag), np.where(lower, lag, lag[:, None])
    shape = (2 * K + 1, d + 1, d + 1)
    key = np.ravel_multi_index((np.abs(off[:, None] - off), la, lb), shape)
    keys, inverse = np.unique(key, return_inverse=True)
    flat = np.zeros((len(keys), p + 2 * K))
    for u, (dist, l1, l2) in enumerate(zip(*np.unravel_index(keys, shape))):
        if dist < p:
            a, b = values[: p - dist, d - l1 : n - l1], values[dist:, d - l2 : n - l2]
            np.einsum("ij,ij->i", a, b, out=flat[u, K : K + p - dist])
        if dist == 0 and l1 == l2:
            flat[u, :K] = flat[u, K + p :] = 1.0
    table = inverse.reshape(m + 1, m + 1) * flat.shape[1] + K + np.minimum(off[:, None], off)
    out, i = np.empty((p, width)), np.arange(p)
    short = n <= d + _regressor_counts(p, [K], d)[:, 0]
    size = max(1, _BLOCK_ENTRIES // (m + 1) ** 2)
    diag = np.arange(m)

    def block(start):
        rows = i[start : start + size][~short[start : start + size]]
        gram = flat.ravel()[table + rows[:, None, None]]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return rows
        col = rows[:, None] + off[:m]
        piv = np.diagonal(chol, axis1=1, axis2=2)
        piv = np.where((col < 0) | (col >= p), piv[:, :1], piv[:, :m])  # real columns only
        rss = chol[:, m, m] ** 2
        ok = (
            np.isfinite(chol).all(axis=(1, 2))
            & (rss > 0.0)
            & (piv.min(axis=1) >= _PIVOT_TOL * piv.max(axis=1))
        )
        # D^-1 G D^-1 - shift I is D^-1 (G less shift x its diagonal) D^-1
        shifted = gram[ok, :m, :m]
        shifted[:, diag, diag] *= 1.0 - _EPS * m / _CERT_TOL * (gram[ok, m, m] / rss[ok])[:, None]
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            scale = np.sqrt(np.diagonal(gram[ok], axis1=1, axis2=2)[:, :m])
            ok[ok] = np.linalg.eigvalsh(shifted / scale[:, :, None] / scale[:, None, :])[:, 0] > 0.0
        if ok.any():
            out[rows[ok]] = solve(chol[ok])
        return rows[~ok]

    def qr_factor(row):
        # R^T is a Cholesky factor of the real columns' Gram matrix, up to signs
        real = np.append(np.flatnonzero((row + off[:m] >= 0) & (row + off[:m] < p)), m)
        chol = np.eye(m + 1)
        try:
            chol[np.ix_(real, real)] = _row_qr(values, row, K, d).T
        except SingularDesignError as exc:
            return exc
        return chol

    rejected = _parallel_map(block, range(0, p, size), threads)
    rejected = sorted(np.concatenate([i[short], *rejected]).tolist())
    factors = _parallel_map(qr_factor, rejected, threads)
    failures = [exc for exc in factors if isinstance(exc, SingularDesignError)]
    if failures:
        rows, first = [exc.row for exc in failures], failures[0]
        message = f"singular design in rows {rows}; {first}"
        raise SingularDesignError(message, column=first.column, row=first.row, rows=rows)
    for row, chol in zip(rejected, factors):
        out[row] = solve(chol[None])[0]
    return out, rejected
