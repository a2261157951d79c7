"""Row-wise least-squares estimation of banded coefficient matrices.

Each equation i regresses y_{i,t} on the lagged values of the series within
bandwidth k of i, for lags 1..d. Rows are estimated independently, so the
whole fit parallelises across equations without changing the result.

Bandwidth selection and the fit share one QR kernel, :func:`_row_qr`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs as _dtrtrs

from .errors import SingularDesignError
from .linalg import RANK_TOL, BandedMatrix, lstsq
from .model import BandedVarModel, TimeSeries

__all__ = [
    "RowDesign",
    "FitReport",
    "row_regressor_count",
    "band_columns",
    "build_row_design",
    "fit_row",
    "fit_banded_var",
    "row_coefficients",
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


def band_columns(i: int, k: int, d: int, p: int):
    """(lag, series) pairs backing each design column, lag-major then series ascending."""
    lo, hi = max(0, i - k), min(p - 1, i + k)
    return [(lag, j) for lag in range(1, d + 1) for j in range(lo, hi + 1)]


@dataclass(frozen=True)
class RowDesign:
    """Design matrix and response for one equation at trial (k, d)."""

    i: int
    k: int
    d: int
    x: np.ndarray
    y: np.ndarray
    col_map: tuple  # (lag, series) per design column

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]


def build_row_design(ts: TimeSeries, i: int, k: int, d: int) -> RowDesign:
    """Assemble the regression for equation i at trial bandwidth k and order d.

    The response stacks y_{i,t} for t = d..n-1; design row t holds, for each
    lag 1..d, the lag-shifted values of the series within bandwidth k of i.
    """
    p, n = ts.p, ts.n
    count = row_regressor_count(i, k, d, p)
    if n <= d + count:
        raise ValueError(
            f"series too short for row {i} at (k={k}, d={d}): "
            f"need n > {d + count}, have n = {n}"
        )
    vals = ts.values
    lo, hi = max(0, i - k), min(p - 1, i + k)
    y = vals[i, d:].copy()
    blocks = [vals[lo : hi + 1, d - lag : n - lag].T for lag in range(1, d + 1)]
    x = np.hstack(blocks)
    return RowDesign(i=i, k=k, d=d, x=x, y=y, col_map=tuple(band_columns(i, k, d, p)))


def fit_row(design: RowDesign):
    """Least-squares fit of one equation; returns (coefficients, residual sum of squares)."""
    try:
        beta = lstsq(design.x, design.y)
    except SingularDesignError as exc:
        lag, j = design.col_map[exc.column] if exc.column is not None and exc.column < len(design.col_map) else (None, None)
        detail = f" (lag {lag}, series {j})" if lag is not None else ""
        raise SingularDesignError(
            f"row {design.i}: {exc}{detail}", column=exc.column, row=design.i
        ) from None
    resid = design.y - design.x @ beta
    return beta, float(resid @ resid)


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
        out = {
            "model": self.model.to_dict(means=self.means),
            "rss": self.rss.tolist(),
            "sigma_hat": self.sigma_hat.tolist(),
        }
        return out


def fit_banded_var(
    ts: TimeSeries, k: int, d: int = 1, demean: bool = False, threads: int = 1
) -> FitReport:
    """Fit all p equations at bandwidth k and order d and assemble the model.

    With ``demean=True`` per-series sample means are removed first and kept in
    the report. Equations may be fitted by several worker threads; the result
    does not depend on the worker count.
    """
    work = ts
    means = None
    if demean:
        work, means = ts.demeaned()
    p, n = work.p, work.n

    def one_row(i):
        try:
            r = _row_qr(work.values, i, k, d)
        except SingularDesignError as exc:
            return exc
        w = r.shape[0] - 1
        beta, info = _dtrtrs(r[:w, :w], r[:w, w])
        if info != 0:
            raise SingularDesignError(f"row {i}: dtrtrs failed with info={info}", row=i)
        # ring order (series by distance, lags inside) to lag-major, series ascending
        beta = beta.reshape(-1, d)[np.argsort(_ring_series(i, k, p))].T.ravel()
        return beta, float(r[w, w] ** 2)

    results = _parallel_map(one_row, range(p), threads)
    failures = [i for i, item in enumerate(results) if isinstance(item, SingularDesignError)]
    if failures:
        first = results[failures[0]]
        raise SingularDesignError(
            f"singular design in rows {failures}; {first}",
            column=first.column,
            row=first.row,
            rows=failures,
        )

    kk = min(k, p - 1)
    # coefficient (i, j) at lag l sits on diagonal (j - i) + kk at position min(i, j)
    diags = np.zeros((d, 2 * kk + 1, p))
    for i, (beta, _) in enumerate(results):
        j = np.arange(max(0, i - kk), min(p - 1, i + kk) + 1)
        diags[:, j - i + kk, np.minimum(i, j)] = beta.reshape(d, -1)
    coeffs = [
        BandedMatrix(p, kk, [diags[lag, m, : p - abs(m - kk)] for m in range(2 * kk + 1)])
        for lag in range(d)
    ]
    rss = np.array([rss_i for _, rss_i in results])
    return FitReport(
        model=BandedVarModel(p, d, kk, coeffs),
        rss=rss,
        betas=[beta for beta, _ in results],
        sigma_hat=rss / (n - d),
        means=means,
    )


def _parallel_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, on ``threads`` worker threads when above one."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _ring_series(i: int, k: int, p: int) -> np.ndarray:
    """Series within bandwidth k of i by distance: i, i-1, i+1, i-2, i+2, ..."""
    return np.array(
        [i] + [j for ring in range(1, k + 1) for j in (i - ring, i + ring) if 0 <= j < p]
    )


def _row_qr(values: np.ndarray, i: int, k: int, d: int) -> np.ndarray:
    """R factor of equation i's design in ring order with the response appended.

    Columns run over :func:`_ring_series` with lags 1..d inside each series,
    then y_{i,t}, t = d..n-1. Each narrower bandwidth is a column prefix of
    width w: its coefficients solve ``R[:w, :w] beta = R[:w, -1]`` and its RSS
    is the tail sum ``sum(R[w:, -1] ** 2)``, which adds only squares and so
    stays accurate on series with a large level (Golub & Van Loan, Matrix
    Computations, sec. 5.3). A pivot below ``RANK_TOL`` times the largest
    raises SingularDesignError naming the row, lag and series, with the
    column indexed in :func:`band_columns` order.
    """
    p, n = values.shape
    width = row_regressor_count(i, k, d, p)
    if n <= d + width:
        raise ValueError(
            f"series too short for row {i} at (k={k}, d={d}): "
            f"need n > {d + width}, have n = {n}"
        )
    series = _ring_series(i, k, p)
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


def row_coefficients(model: BandedVarModel, i: int) -> np.ndarray:
    """Extract equation i's in-band coefficients, lag-major, series ascending."""
    cols = band_columns(i, model.k0, model.d, model.p)
    return np.array([model.coeffs[lag - 1][i, j] for lag, j in cols])
