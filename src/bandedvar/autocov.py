"""Autocovariance estimation by banding or thresholding the sample estimator.

The lag-j sample autocovariance uses the full-sample mean and divisor n (not
n - j). A band-truncated version is consistent for banded VAR processes at a
much smaller bandwidth than the matrix dimension; the truncation level is
tuned by minimising a wild-bootstrap estimate of the matrix L1 risk

    R_j(r) ~ (1/q) sum_k || B_r(S*_{j,k}) - S_j ||_1,

where each bootstrap replicate S* reweights the summands of the sample
autocovariance with i.i.d. unit-mean unit-variance multipliers (standard
exponential by default). Hard thresholding is tuned the same way over a grid
of cutoffs.

No cut replicate is formed: with D = |S* - S| - |S|, a cut's column c sums to
sum_i |S_ic| plus D over the entries it keeps. Banding needs only the diagonals
|o| <= max(grid) of S*, one (p - |o|) x n x q product each, and a running column
sum of D scores every half-width: O(p r_max n q) in all. Thresholding forms each
replicate (O(p^2 n)) into work arrays made once per call, bins its entries by
the number of cutoffs below |S*| (min(ceil(|S*| / step), G) on an evenly spaced
grid, searched only where |S*| / step is within rounding of a whole number, and
searched in full on any other grid), sums D per (column, bin) and scores all G
cutoffs from one suffix sum. At lag 0, S and every S* are
symmetric: banding forms diagonals o and -o as one product, and thresholding
forms only the upper triangle of each replicate (one ``dsyrk``, half the
product) and bins its p(p + 1)/2 entries, each off-diagonal one counting in its
row's sums as well as its column's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandedVarError
from .model import TimeSeries
from .rng import substream

__all__ = [
    "AutocovEstimate",
    "BootstrapRisk",
    "sample_autocov",
    "band",
    "hard_threshold",
    "default_band_width",
    "default_band_grid",
    "default_threshold_grid",
    "bootstrap_select_band",
    "bootstrap_select_threshold",
    "estimate_autocov",
]


def sample_autocov(ts: TimeSeries, j: int) -> np.ndarray:
    """Lag-j sample autocovariance (1/n) sum_t (y_t - ybar)(y_{t+j} - ybar)^T."""
    n = ts.n
    if not 0 <= j < n:
        raise ValueError(f"lag {j} out of range for a series of length {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        xc = ts.values - ts.values.mean(axis=1, keepdims=True)
        sample = (xc[:, : n - j] @ xc[:, j:].T) / n
    if not np.isfinite(sample).all():
        row, col = np.argwhere(~np.isfinite(sample))[0].tolist()
        raise BandedVarError(f"lag-{j} sample autocovariance is not finite at entry "
                             f"({row}, {col}): its products overflow; rescale the series")
    return sample


def band(h, r: int) -> np.ndarray:
    """Keep entries with |i - j| <= r, zero the rest."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("banding is defined for square matrices")
    if r < 0:
        raise ValueError("band half-width must be non-negative")
    return np.triu(np.tril(h, r), -r)


def hard_threshold(h, t: float) -> np.ndarray:
    """Keep entries with |value| > t, zero the rest."""
    h = np.asarray(h, dtype=float)
    if not 0 <= t < math.inf:
        raise ValueError(f"threshold must be finite and non-negative, got {t!r}")
    return np.where(np.abs(h) > t, h, 0.0)


def default_band_width(n: int, p: int, c: float = 1.0) -> int:
    """Asymptotic truncation rule round(c log(n / log p)), floored at zero."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    if c <= 0:
        raise ValueError("constant c must be positive")
    lp = math.log(p)
    if lp >= n:
        raise ValueError(f"log p = {lp:.3f} must be below n = {n}")
    return max(0, int(math.floor(c * math.log(n / lp) + 0.5)))


def default_band_grid(n: int, p: int) -> np.ndarray:
    """Candidate truncation levels 0..min(p-1, 2 * rule + 5); only 0 when p = 1."""
    return np.arange(min(p - 1, 2 * default_band_width(n, p, 1.0) + 5) + 1 if p > 1 else 1)


def default_threshold_grid(sample: np.ndarray) -> np.ndarray:
    """21 evenly spaced cutoffs from 0 to the largest absolute entry."""
    return np.linspace(0.0, float(np.abs(sample).max()), 21)


@dataclass
class BootstrapRisk:
    """Estimated risk curve over a tuning grid and the minimising choice."""

    grid: np.ndarray
    risk: np.ndarray
    q: int
    argmin: float
    lag: int
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "lag": int(self.lag),
            "q": int(self.q),
            "grid": self.grid.tolist(),
            "risk": self.risk.tolist(),
            "argmin": self.argmin,
        }


def _bootstrap_select(ts, j, sample, grid, q, rng, weights, method) -> BootstrapRisk:
    banding = method == "band"
    if grid is None:
        grid = default_band_grid(ts.n, ts.p) if banding else default_threshold_grid(sample)
    grid = np.asarray(grid, dtype=None if banding else float)
    if grid.ndim != 1:
        raise ValueError(f"candidate grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("empty candidate grid")
    for pos, value in enumerate(grid.tolist()):
        if not (0 <= value < math.inf and (value == round(value) or not banding)):
            kind = "whole" if banding else "finite"
            raise ValueError(f"grid entry {value!r} at position {pos} is not a {kind} number >= 0")
    if q < 1:
        raise ValueError("need at least one bootstrap replicate")
    if not isinstance(rng, np.random.Generator):  # an integer seed, or None for seed 0
        rng = substream(0 if rng is None else int(rng), "bootstrap")
    if weights is None:
        weights = lambda g, size: g.standard_exponential(size)
    n = ts.n
    draws = []
    for k in range(q):
        u = np.asarray(weights(rng, n - j), dtype=float)
        if u.shape != (n - j,) or not np.isfinite(u).all():
            got = f"shape {u.shape}" if u.shape != (n - j,) else "non-finite values"
            raise ValueError(f"bootstrap replicate {k}: need {n - j} finite weights, got {got}")
        draws.append(u)
    xc = ts.values - ts.values.mean(axis=1, keepdims=True)
    cuts, e = grid, 0
    big = max(xc.max(), -xc.min())
    if big and not 2.0**-400 < big < 2.0**400:
        # a replicate's products or column sums would leave the float range
        # although S is finite: scale the series by an exact power of two, S
        # and the cutoffs by its square, and the risk curve back, as
        # linalg.spectral_norm does
        e = int(np.frexp(big)[1])
        xc, sample = np.ldexp(xc, -e), np.ldexp(sample, -2 * e)
        cuts = grid if banding else np.ldexp(grid, -2 * e)
    left, right, u = xc[:, : n - j], xc[:, j:], np.stack(draws)
    if banding:
        risks = _band_risks(left, right, u, n, sample, cuts, symmetric=j == 0)
    elif j == 0:
        risks = _symmetric_threshold_risks(xc, u, n, sample, cuts)
    else:
        risks = _threshold_risks(left, right, u, n, sample, cuts)
    argmin = (int if banding else float)(grid[np.argmin(risks)])  # ties: first position
    if e:
        risks = np.ldexp(risks, 2 * e)
    return BootstrapRisk(grid=grid, risk=risks, q=q, argmin=argmin, lag=j, method=method)


def _band_risks(left, right, u, n, sample, grid, symmetric=False):
    """Every half-width's risk from the diagonals |o| <= max(grid) of S*.

    When S and S* are symmetric (lag 0), diagonal -o is diagonal o, so its
    product is formed once and added into the columns of both."""
    p = len(sample)
    cols = np.tile(np.abs(sample).sum(axis=0), (len(u), 1))
    curve = np.empty(int(min(grid.max(), p - 1)) + 1)
    for r in range(len(curve)):
        for o in (r,) if symmetric or not r else (r, -r):
            a, b = max(-o, 0), max(o, 0)  # first row and column of diagonal o
            star = (left[a : p - b] * right[b : p - a]) @ u.T / n
            s = np.diagonal(sample, o)[:, None]
            star = (np.abs(star - s) - np.abs(s)).T  # D; rebinding frees the product
            cols[:, b : p - a] += star
            if symmetric and o:
                cols[:, : p - o] += star
        curve[r] = cols.max(axis=1).mean()
    return curve[np.minimum(grid, p - 1).astype(int)]


def _sorted_cutoffs(grid):
    """The grid's sort order, its sorted cutoffs, and ``_cutoff_bins``'s inv and tol."""
    order = np.argsort(grid, kind="stable")
    sgrid, g = grid[order], grid.size
    step = float(sgrid[-1]) / (g - 1) if g > 1 else 0.0
    inv = 1.0 / step if step > 0 else math.inf  # a float quotient past the range is inf
    tol = float(np.abs(sgrid * inv - np.arange(g)).max()) if inv < math.inf else math.inf
    return order, sgrid, inv, tol


def _cutoff_bins(star, sgrid, inv, tol, slot, bins, r, near, mask):
    """Set ``bins`` to ``slot`` plus the number of cutoffs ``sgrid`` strictly below |star|.

    ``slot`` (whole numbers, as floats) broadcasts against ``star``; ``r``,
    ``near`` (float) and ``mask`` (bool) are scratch of its shape. With
    r = fl(|S*| inv), inv = fl(1 / step), an entry's bin is min(ceil(r), G),
    but ``np.searchsorted`` counts the entries whose r is within ``tol`` of a
    whole number. The count is exact: fl(x inv) is nondecreasing in x, so with
    c_k = fl(grid_k inv), r > c_k implies grid_k < |S*| and r < c_k implies
    grid_k >= |S*|. For tol = max_k |c_k - k| and an r more than tol from every
    whole number, each k < r has c_k <= k + tol < r and each k > r has
    c_k >= k - tol > r, so the cutoffs below |S*| are those with k < r. The
    rounding margin on top of tol is zero: c_k is rounded as r is, r - rint(r)
    is exact, and so is c_k - k below 1/2 (Sterbenz), while a larger one still
    computes to at least 1/2. At tol >= 1/2 (a grid far from evenly spaced)
    every entry is near a whole number, so all are searched, as they are when
    step is 0 or 1 / step overflows (tol = inf). An r of inf (|S*| / step past
    the float range) or NaN lands in bin G, as ``np.searchsorted`` puts it.
    """
    if not tol < 0.5:
        np.add(np.searchsorted(sgrid, np.abs(star, out=r)), slot, out=bins, casting="unsafe")
        return
    with np.errstate(over="ignore", invalid="ignore"):  # r = inf: inf - inf is NaN, not near
        np.multiply(np.abs(star, out=r), inv, out=r)
        np.abs(np.subtract(r, np.rint(r, out=near), out=near), out=near)
        np.less_equal(near, tol, out=mask)
        np.fmin(np.ceil(r, out=r), sgrid.size, out=r)
    idx = np.flatnonzero(mask)
    fix = np.searchsorted(sgrid, np.abs(star.reshape(-1)[idx])) - r.reshape(-1)[idx].astype(np.intp)
    np.copyto(bins, np.add(r, slot, out=r), casting="unsafe")  # the one float -> intp cast
    bins.reshape(-1)[idx] += fix


def _threshold_risks(left, right, u, n, sample, grid):
    """Every cutoff's risk from per-column sums of D binned by sorted cutoff."""
    p, g = len(sample), grid.size
    order, sgrid, inv, tol = _sorted_cutoffs(grid)
    abs_s = np.abs(sample)
    col_abs = abs_s.sum(axis=0)[:, None]
    slot = np.arange(p) * float(g + 1)  # bincount index of (column c, bin 0)
    # work arrays for all replicates; the scratch holds left * w, then r, and
    # D's array is the binning's scratch until D is formed
    star, d, scratch = np.empty((p, p)), np.empty((p, p)), np.empty(max(p * p, left.size))
    bins, mask = np.empty((p, p), dtype=np.intp), np.empty((p, p), dtype=bool)
    weighted, r = scratch[: left.size].reshape(left.shape), scratch[: p * p].reshape(p, p)
    total = np.zeros(g)
    for w in u:
        np.matmul(np.multiply(left, w, out=weighted), right.T, out=star)
        star /= n
        # bin b = number of cutoffs below |S*|: kept for the sorted cutoffs before b
        _cutoff_bins(star, sgrid, inv, tol, slot, bins, r, d, mask)
        np.abs(np.subtract(star, sample, out=d), out=d)
        d -= abs_s
        sums = np.bincount(bins.ravel(), d.ravel(), minlength=p * (g + 1))
        kept = np.cumsum(sums.reshape(p, g + 1)[:, :0:-1], axis=1)[:, ::-1]
        total += (col_abs + kept).max(axis=0)
    return (total / len(u))[np.argsort(order)]


def _symmetric_threshold_risks(x, u, n, sample, grid):
    """Lag 0: ``_threshold_risks`` on the p(p + 1)/2 entries on and above the diagonal.

    S* is a a^T with a = x * sqrt(|w| / n), less twice that product over the
    columns of negative weights. numpy's ``matmul`` forms a matrix times its
    transpose with one ``dsyrk`` (half the product) and mirrors it. scipy's
    ``dsyrk`` would skip the mirror, but it runs on scipy's own copy of the
    BLAS, whose untouched work buffer adds about 1 MiB of resident memory.
    An entry's D counts in the (column, bin) sums of its column and, off the
    diagonal, of its row: the diagonal's second count goes to a spare row of
    slots.
    """
    p, g = len(sample), grid.size
    order, sgrid, inv, tol = _sorted_cutoffs(grid)
    col_abs = np.abs(sample).sum(axis=0)[:, None]
    row, col = np.triu_indices(p)
    s_up, take = sample[row, col], row * p
    take += col  # positions of the upper triangle in the product, row by row
    shift = np.where(row == col, p, row)
    del row
    shift -= col
    shift *= g + 1  # from (column, bin) on to (row, bin)
    col_slot = col * float(g + 1)  # bincount index of (column, bin 0)
    del col
    size = take.size
    # work arrays for all replicates: the product's storage then holds the
    # binning's scratch (D's half until D is formed) and r, and the scratch
    # holds a, then S*
    storage, scratch = np.empty(2 * size), np.empty(max(size, x.size))
    prod, d, r = storage[: p * p].reshape(p, p), storage[:size], storage[size:]
    a, star = scratch[: x.size].reshape(x.shape), scratch[:size]
    bins, mask = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    total = np.zeros(g)
    for w in u:
        np.multiply(x, np.sqrt(np.abs(w) / n), out=a)
        np.matmul(a, a.T, out=prod)
        neg = w < 0
        if neg.any():
            a_neg = a[:, neg]
            prod -= 2.0 * (a_neg @ a_neg.T)
        np.take(storage, take, out=star)
        _cutoff_bins(star, sgrid, inv, tol, col_slot, bins, r, d, mask)
        np.abs(np.subtract(star, s_up, out=d), out=d)
        d -= np.abs(s_up, out=r)
        sums = np.bincount(bins, d, minlength=(p + 1) * (g + 1))
        bins += shift
        sums += np.bincount(bins, d, minlength=(p + 1) * (g + 1))
        kept = np.cumsum(sums.reshape(p + 1, g + 1)[:p, :0:-1], axis=1)[:, ::-1]
        total += (col_abs + kept).max(axis=0)
    return (total / len(u))[np.argsort(order)]


def bootstrap_select_band(
    ts: TimeSeries, j: int = 0, grid=None, q: int = 100, rng=None, weights=None
) -> BootstrapRisk:
    """Pick the banding half-width minimising the bootstrap L1 risk.

    ``weights`` may replace the standard-exponential multiplier law with any
    ``(rng, size) -> array`` callable drawing unit-mean, unit-variance
    weights. Ties on the risk curve go to the first grid position.
    """
    return _bootstrap_select(ts, j, sample_autocov(ts, j), grid, q, rng, weights, "band")


def bootstrap_select_threshold(
    ts: TimeSeries, j: int = 0, grid=None, q: int = 100, rng=None, weights=None
) -> BootstrapRisk:
    """Pick the hard-threshold cutoff minimising the bootstrap L1 risk."""
    return _bootstrap_select(ts, j, sample_autocov(ts, j), grid, q, rng, weights, "threshold")


@dataclass
class AutocovEstimate:
    """A lag-j autocovariance estimate and how its tuning was chosen."""

    j: int
    matrix: np.ndarray
    method: str  # sample | banded | thresholded
    tuning: dict
    risk: BootstrapRisk | None = None  # the risk curve when the bootstrap chose

    def meta_dict(self) -> dict:
        meta = {"method": self.method, "lag": int(self.j), "tuning": self.tuning}
        if self.risk is not None:
            meta["risk"] = self.risk.to_dict()
        return meta


def estimate_autocov(
    ts: TimeSeries,
    j: int = 0,
    method: str = "banded",
    r: int | None = None,
    t: float | None = None,
    q: int = 100,
    rng=None,
) -> AutocovEstimate:
    """One-call estimator: sample, banded, or thresholded autocovariance.

    Banding uses an explicit half-width ``r`` when given, otherwise the
    bootstrap selection; thresholding works the same way with ``t``. The
    returned estimate records which tuning path was taken and, when the
    bootstrap chose, its risk curve.
    """
    sample = sample_autocov(ts, j)
    if method == "sample":
        return AutocovEstimate(j=j, matrix=sample, method="sample", tuning={})
    if method not in ("banded", "thresholded"):
        raise ValueError(f"unknown method {method!r}")
    banding = method == "banded"
    key, value = ("r", r) if banding else ("t", t)
    if value is None:
        kind = "band" if banding else "threshold"
        risk = _bootstrap_select(ts, j, sample, None, q, rng, None, kind)
        value = risk.argmin
        tuning = {key: value, "selected_by": "bootstrap", "q": q}
    else:
        value, risk = int(value) if banding else float(value), None
        tuning = {key: value, "selected_by": "fixed"}
    matrix = band(sample, value) if banding else hard_threshold(sample, value)
    return AutocovEstimate(j=j, matrix=matrix, method=method, tuning=tuning, risk=risk)
