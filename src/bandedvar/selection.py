"""Bandwidth and order selection for banded VAR fits.

The selector computes, per equation i, an information criterion

    BIC_i(k) = log RSS_i(k) + (1/n) d tau_i(k) C_n log(max(p, n))

over trial bandwidths k, takes the per-equation argmin, and aggregates by the
maximum across equations. tau_i(k) is the regressor count of equation i
(which already contains a factor d); the leading d is applied as printed in
the criterion, and ``penalty_multiplier`` rescales the whole penalty for
users who prefer to drop it. A whole-model variant sums log RSS_i over
equations with a single global parameter count, and a two-dimensional variant
scans (bandwidth, order) jointly when the order is unknown.

Residual sums of squares for all nested bandwidths of one equation come from
one Cholesky factor L of its augmented Gram matrix (``estimation._gram_blocks``).
Columns are ordered by distance from the diagonal, with the response last, so
every trial bandwidth is a column prefix and its RSS is a tail sum of squares
of L's last row. Ring positions past the panel's edges are inert padding
columns, so bandwidth k starts its tail at d(2k+1) on every row. Rows a guard
finds at risk of losing accuracy, such as series with a large level, take the
factor from one QR per row instead; ``RssSurface.qr_rows`` lists them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BandedVarError
from .estimation import _gram_blocks, _regressor_counts
from .model import TimeSeries, _check_permutation

__all__ = [
    "RssSurface",
    "SelectionTrace",
    "OrderingScore",
    "default_penalty_const",
    "rss_surface",
    "select_bandwidth",
    "select_bandwidth_from_surface",
    "select_bandwidth_and_order",
    "joint_bic_select",
    "joint_bic_from_surface",
    "joint_parameter_count",
    "ordering_score",
    "ordering_candidates",
]


def default_penalty_const(n: int) -> float:
    """Default slowly-diverging penalty constant, log log n."""
    if n < 3:
        raise ValueError("need n >= 3 for a positive log log n penalty")
    return math.log(math.log(n))


def default_max_bandwidth(n: int, p: int) -> int:
    """Default search bound floor(sqrt(n)), capped at p - 1."""
    return max(1, min(int(math.isqrt(n)), p - 1))


@dataclass(frozen=True)
class RssSurface:
    """Residual sums of squares of every equation over a bandwidth grid.

    ``qr_rows`` lists the equations whose RSS came from the QR fallback
    rather than the banded Gram factor (see ``estimation._gram_blocks``).
    """

    ks: tuple
    rss: np.ndarray     # p x len(ks)
    counts: np.ndarray  # p x len(ks) regressor counts (includes the d factor)
    n: int
    p: int
    d: int
    qr_rows: tuple = ()


def rss_surface(
    ts: TimeSeries,
    d: int = 1,
    K: int | None = None,
    include_zero: bool = False,
    threads: int = 1,
) -> RssSurface:
    """RSS of every equation over bandwidths 1..K (optionally including 0)."""
    p, n = ts.p, ts.n
    if K is None:
        K = default_max_bandwidth(n, p)
    if K < 1:
        raise ValueError("search bound K must be at least 1")
    if K > p - 1:
        raise ValueError(f"search bound K={K} exceeds p - 1 = {p - 1}")
    ks = np.array(([0] if include_zero else []) + list(range(1, K + 1)))
    counts = _regressor_counts(p, ks, d)

    def tails(chol):
        # padding columns add zeros, so ring position d(2k+1) starts bandwidth k's tail
        tail = np.cumsum(chol[:, -1, ::-1] ** 2, axis=1)[:, ::-1]
        return tail[:, d * (2 * ks + 1)]

    rss, qr_rows = _gram_blocks(ts.values, K, d, tails, len(ks), threads)
    return RssSurface(
        ks=tuple(ks.tolist()), rss=rss, counts=counts, n=n, p=p, d=d, qr_rows=tuple(qr_rows)
    )


def _require_positive_rss(row_min) -> None:
    """Raise if an equation's smallest RSS is zero: its log, and so the
    criterion, is undefined."""
    bad = np.nonzero(np.asarray(row_min) <= 0.0)[0]
    if bad.size:
        raise BandedVarError(
            f"row {int(bad[0])} has zero residual sum of squares; the "
            "criterion is undefined (exact fit or degenerate data)"
        )


def _penalty(weight, count, n: int, p: int, cn: float):
    """Penalty ``weight / n * count * cn * log(max(p, n))``, evaluated in that
    order; ``count`` may be an array of regressor counts."""
    return weight / n * count * cn * math.log(max(p, n))


def _bic_matrix(surface: RssSurface, cn: float, leading_d: bool, penalty_multiplier: float):
    _require_positive_rss(surface.rss.min(axis=1))
    lead = surface.d if leading_d else 1
    pen = _penalty(penalty_multiplier * lead, surface.counts, surface.n, surface.p, cn)
    return np.log(surface.rss) + pen


@dataclass
class SelectionTrace:
    """Criterion surface, per-equation argmins, and the aggregated choice.

    ``bic`` has shape (p, len(ks)) for bandwidth-only scans and
    (p, len(ks), len(ds)) when the order was scanned as well.
    """

    ks: tuple
    bic: np.ndarray
    argmin_per_row: np.ndarray
    k_hat: int
    cn: float
    K: int
    ds: tuple | None = None
    d_argmin_per_row: np.ndarray | None = None
    d_hat: int | None = None

    def total_bic(self) -> float:
        """Sum of per-equation criteria at k_hat."""
        if self.bic.ndim != 2:
            raise BandedVarError("total criterion is defined for bandwidth-only scans")
        return float(self.bic[:, self.ks.index(self.k_hat)].sum())

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "ks": list(self.ks),
            "bic": self.bic.tolist(),
            "argmin_per_row": self.argmin_per_row.tolist(),
            "k_hat": int(self.k_hat),
            "cn": self.cn,
            "K": self.K,
        }
        if self.ds is not None:
            out["ds"] = list(self.ds)
            out["d_argmin_per_row"] = self.d_argmin_per_row.tolist()
            out["d_hat"] = int(self.d_hat)
        return out


def select_bandwidth_from_surface(
    surface: RssSurface,
    cn: float | None = None,
    penalty_multiplier: float = 1.0,
) -> SelectionTrace:
    """Run the per-equation criterion on a precomputed RSS surface."""
    if cn is None:
        cn = default_penalty_const(surface.n)
    bic = _bic_matrix(surface, cn, leading_d=True, penalty_multiplier=penalty_multiplier)
    ks_arr = np.array(surface.ks)
    argmin = ks_arr[np.argmin(bic, axis=1)]  # first minimum: smallest k wins ties
    return SelectionTrace(
        ks=surface.ks,
        bic=bic,
        argmin_per_row=argmin,
        k_hat=int(argmin.max()),
        cn=float(cn),
        K=int(max(surface.ks)),
    )


def select_bandwidth(
    ts: TimeSeries,
    d: int = 1,
    K: int | None = None,
    cn: float | None = None,
    include_zero: bool = False,
    penalty_multiplier: float = 1.0,
    threads: int = 1,
) -> SelectionTrace:
    """Choose the bandwidth as the max over equations of per-equation argmins.

    The grid is 1..K (K defaults to floor(sqrt(n))); ``include_zero`` adds a
    bandwidth-0 candidate, i.e. pure own-lag autoregressions. Per-equation
    ties break toward the smallest bandwidth.
    """
    surface = rss_surface(ts, d=d, K=K, include_zero=include_zero, threads=threads)
    return select_bandwidth_from_surface(surface, cn=cn, penalty_multiplier=penalty_multiplier)


def select_bandwidth_and_order(
    ts: TimeSeries,
    K: int | None = None,
    L: int = 10,
    cn: float | None = None,
    include_zero: bool = False,
    threads: int = 1,
) -> SelectionTrace:
    """Scan bandwidth and order jointly when the order is unknown.

    Per equation, (k_i, d_i) minimise log RSS_i(k, l) + (1/n) tau_i(k, l) C_n
    log(max(p, n)) over the K x L grid; the aggregated choice takes the max of
    each coordinate across equations. Each trial order uses its own t = l..n-1
    estimation window. Grid ties break toward the smaller (order, bandwidth).
    """
    p, n = ts.p, ts.n
    if K is None:
        K = default_max_bandwidth(n, p)
    if L < 1:
        raise ValueError("order bound L must be at least 1")
    if cn is None:
        cn = default_penalty_const(n)
    surfaces = [
        rss_surface(ts, d=ell, K=K, include_zero=include_zero, threads=threads)
        for ell in range(1, L + 1)
    ]
    ks = surfaces[0].ks
    criteria = [_bic_matrix(s, cn, leading_d=False, penalty_multiplier=1.0) for s in surfaces]
    bic = np.stack(criteria, axis=2)  # p x len(ks) x L
    # order-major scan of each row: ties go to the smaller (d, k)
    flat = np.argmin(bic.transpose(0, 2, 1).reshape(p, -1), axis=1)
    d_idx, k_idx = np.divmod(flat, len(ks))
    k_pick = np.array(ks)[k_idx]
    d_pick = d_idx + 1
    return SelectionTrace(
        ks=ks,
        bic=bic,
        argmin_per_row=k_pick,
        k_hat=int(k_pick.max()),
        cn=float(cn),
        K=int(max(ks)),
        ds=tuple(range(1, L + 1)),
        d_argmin_per_row=d_pick,
        d_hat=int(d_pick.max()),
    )


def joint_parameter_count(k: int, p: int) -> int:
    """Global parameter count (2p+1)k - k^2 - k used by the whole-model criterion."""
    return (2 * p + 1) * k - k * k - k


def joint_bic_from_surface(surface: RssSurface, cn: float | None = None):
    """Whole-model criterion curve over the bandwidth grid; returns (choice, curve)."""
    if cn is None:
        cn = default_penalty_const(surface.n)
    _require_positive_rss(surface.rss.min(axis=1))
    logterm = np.log(surface.rss).sum(axis=0)
    counts = np.abs([joint_parameter_count(k, surface.p) for k in surface.ks])
    curve = logterm + _penalty(counts, 1, surface.n, surface.p, cn)
    choice = int(np.array(surface.ks)[int(np.argmin(curve))])
    return choice, curve


def joint_bic_select(
    ts: TimeSeries,
    d: int = 1,
    K: int | None = None,
    cn: float | None = None,
    include_zero: bool = False,
    threads: int = 1,
) -> int:
    """Choose one bandwidth for the whole model by summing log RSS over equations."""
    surface = rss_surface(ts, d=d, K=K, include_zero=include_zero, threads=threads)
    choice, _ = joint_bic_from_surface(surface, cn=cn)
    return choice


OrderingScore = namedtuple("OrderingScore", ["score", "k_hat", "trace"])


def ordering_score(
    ts: TimeSeries,
    perm,
    d: int = 1,
    K: int | None = None,
    cn: float | None = None,
    include_zero: bool = False,
    threads: int = 1,
) -> OrderingScore:
    """Total criterion of the series reordered by ``perm``.

    Applies the permutation, selects a bandwidth, and sums the per-equation
    criterion at that bandwidth. Lower scores indicate orderings under which
    a narrow band captures the dynamics better.
    """
    perm = _check_permutation(perm, ts.p)
    trace = select_bandwidth(
        ts.permuted(perm), d=d, K=K, cn=cn, include_zero=include_zero, threads=threads
    )
    return OrderingScore(score=trace.total_bic(), k_hat=trace.k_hat, trace=trace)


_AXIS_STRATEGIES = {
    # Sort keys over (x, y) = (east-west position, north-south position).
    "ns": lambda xy: -xy[:, 1],
    "we": lambda xy: xy[:, 0],
    "nwse": lambda xy: xy[:, 0] - xy[:, 1],
    "swne": lambda xy: xy[:, 0] + xy[:, 1],
}


def ordering_candidates(coords, strategies=("ns", "we", "nwse", "swne")):
    """Generate candidate orderings from per-series 2-D coordinates.

    Supported strategies: ``ns`` (north to south), ``we`` (west to east),
    ``nwse`` and ``swne`` (diagonal sweeps via 45-degree projections), and
    ``anchor:IDX`` (ascending distance to the series at index IDX). Returns
    ``[(name, permutation), ...]``; ties keep the original series order.
    """
    if coords is None:
        raise ValueError("per-series coordinates are required to build orderings")
    xy = np.asarray(coords, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("coords must be an array of shape (p, 2)")
    out = []
    for name in strategies:
        if name in _AXIS_STRATEGIES:
            key = _AXIS_STRATEGIES[name](xy)
        elif name.startswith("anchor:"):
            idx = int(name.split(":", 1)[1])
            if not 0 <= idx < xy.shape[0]:
                raise ValueError(f"anchor index {idx} out of range")
            key = np.sqrt(((xy - xy[idx]) ** 2).sum(axis=1))
        else:
            raise ValueError(f"unknown ordering strategy {name!r}")
        out.append((name, np.argsort(key, kind="stable")))
    return out
