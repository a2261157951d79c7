"""Multi-step prediction and post-sample evaluation.

Forecasts run the recursion simulation uses (``linalg._var_recursion``) on the
last d observations, then on their own predictions beyond one step ahead.
Post-sample evaluation scores each of the last ``holdout`` time points at
horizons 1..h_max, one prediction per forecast origin, by default with a model
fitted once on the pre-holdout window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import fit_banded_var
from .linalg import _var_recursion
from .model import BandedVarModel, TimeSeries
from .selection import select_bandwidth

__all__ = [
    "FitSpec",
    "ForecastReport",
    "predict",
    "rolling_evaluation",
    "deseasonalize",
]


def predict(model: BandedVarModel, history, h: int = 1, mean=None) -> np.ndarray:
    """h-step-ahead predictions from the end of ``history`` as a p x h array.

    ``history`` is a TimeSeries or a p x m array whose last columns feed the
    recursion; horizons beyond one plug earlier predictions in for unknown
    values. ``mean`` holds the offsets that were removed before the model was
    fitted: a length-p vector, or a p x period table whose column s applies at
    times t with t mod period = s, counting history column 0 as t = 0. They
    are subtracted from the history and added back to the output by phase.
    """
    if h < 1:
        raise ValueError("horizon must be at least 1")
    vals = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != model.p:
        raise ValueError(f"history must be {model.p} x m")
    d, m = model.d, vals.shape[1]
    if m < d:
        raise ValueError(f"insufficient history: need at least {d} observations")
    path = np.zeros((model.p, d + h))  # the last d observations, then the predictions
    path[:, :d] = vals[:, m - d :]
    if mean is not None:
        offsets = np.asarray(mean, dtype=float)
        if offsets.ndim == 1:
            offsets = offsets[:, None]
        if offsets.ndim != 2 or offsets.shape[0] != model.p or offsets.shape[1] < 1:
            raise ValueError(f"mean must have length {model.p} or shape {model.p} x period")
        offsets = offsets[:, np.arange(m - d, m + h) % offsets.shape[1]]  # times m-d .. m+h-1
        path[:, :d] -= offsets[:, :d]
    _var_recursion(model.coeffs, path, d)
    out = path[:, d:] + offsets[:, d:] if mean is not None else path[:, d:].copy()
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite prediction; model or history out of range")
    return out


@dataclass(frozen=True)
class FitSpec:
    """How to fit the forecasting model on a training window.

    ``k=None`` selects the bandwidth by the per-equation criterion with bound
    ``K`` (default floor(sqrt(n))). ``period`` switches preprocessing from
    plain demeaning to seasonal-mean removal with that cycle length; either
    way the removed offsets are added back to the predictions by phase.
    """

    d: int = 1
    k: int | None = None
    K: int | None = None
    include_zero: bool = False
    demean: bool = True
    period: int | None = None


@dataclass
class ForecastReport:
    """Post-sample errors per horizon, series and forecast target."""

    h_max: int
    metric: str
    targets: np.ndarray
    errors: dict = field(repr=False)  # horizon -> p x len(targets)
    k_used: int | None = None
    summary: dict = field(default_factory=dict)

    def recompute_summary(self):
        self.summary = {
            h: (float(e.mean()), float(e.std(ddof=1)) if e.size > 1 else 0.0)
            for h, e in self.errors.items()
        }
        return self.summary

    def to_dict(self) -> dict:
        return {
            "h_max": self.h_max,
            "metric": self.metric,
            "k_used": self.k_used,
            "targets": self.targets.tolist(),
            "summary": {str(h): list(v) for h, v in self.summary.items()},
        }


def _fit_window(train: TimeSeries, spec: FitSpec, threads: int):
    """Select (unless ``spec.k`` is set) and fit on a training window; returns
    (model, k, offsets). ``offsets`` is the p x period table removed from the
    window first (period 1 when only demeaning), or None, as ``predict`` takes
    it."""
    offsets = None
    if spec.period is not None or spec.demean:
        train, offsets = deseasonalize(train, spec.period or 1)
    k = spec.k
    if k is None:
        k = select_bandwidth(
            train, d=spec.d, K=spec.K, include_zero=spec.include_zero, threads=threads
        ).k_hat
    return fit_banded_var(train, k, d=spec.d, threads=threads).model, k, offsets


def rolling_evaluation(
    ts: TimeSeries,
    fit_spec: FitSpec = FitSpec(),
    holdout: int = 30,
    h_max: int = 2,
    refit: bool = False,
    metric: str = "absolute",
    model: BandedVarModel | None = None,
    model_means=None,
    threads: int = 1,
) -> ForecastReport:
    """Score h-step predictions of the last ``holdout`` observations.

    Each holdout time t is predicted at horizons s = 1..h_max from the data
    through t - s. By default one model is fitted on the pre-holdout window
    and held fixed; ``refit=True`` refits for every forecast origin. Passing
    ``model`` skips fitting entirely. Reports |error| per (series, target)
    and, per horizon, the mean and sample standard deviation pooled over
    series and targets.
    """
    if metric not in ("absolute", "squared"):
        raise ValueError(f"unknown metric {metric!r}")
    if h_max < 1 or holdout < 1:
        raise ValueError("holdout and h_max must be at least 1")
    n = ts.n
    train_end = n - holdout
    d = model.d if model is not None else fit_spec.d
    if train_end - h_max < d or train_end <= d + 1:
        raise ValueError(
            f"degenerate evaluation window: training length {train_end} too "
            f"short for order {d} and horizon {h_max}"
        )
    vals = ts.values

    fitted = {}

    def model_for(train_len):
        if model is not None:
            return model, None, model_means
        if train_len not in fitted:
            fitted[train_len] = _fit_window(ts.window(0, train_len), fit_spec, threads)
        return fitted[train_len]

    targets = np.arange(train_end, n)
    errors = {h: np.empty((ts.p, holdout)) for h in range(1, h_max + 1)}
    k_used = model_for(train_end)[1]  # the first target's one-step model, fitted first
    # one prediction per origin serves every horizon: the recursion is
    # sequential, so step s of a longer run has the bits of an s-step run
    for origin in range(train_end - h_max, n - 1):
        mdl, _, offsets = model_for(train_end if not refit else origin + 1)
        pred = predict(mdl, vals[:, : origin + 1], h=min(h_max, n - 1 - origin), mean=offsets)
        for s in range(max(1, train_end - origin), pred.shape[1] + 1):
            err = pred[:, s - 1] - vals[:, origin + s]
            errors[s][:, origin + s - train_end] = np.abs(err) if metric == "absolute" else err**2
    report = ForecastReport(
        h_max=h_max, metric=metric, targets=targets, errors=errors, k_used=k_used
    )
    report.recompute_summary()
    return report


def deseasonalize(ts: TimeSeries, period: int):
    """Remove per-series seasonal means; returns (adjusted series, seasonal table).

    ``seasonal[i, s]`` is the mean of series i over times t with t mod period
    = s, so adding the table back by phase reproduces the input exactly.
    Period 1 is plain demeaning.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    if ts.n < period:
        raise ValueError(f"series of length {ts.n} shorter than period {period}")
    vals = ts.values
    phases = np.arange(ts.n) % period
    seasonal = np.empty((ts.p, period))
    for s in range(period):
        seasonal[:, s] = vals[:, phases == s].mean(axis=1)
    adjusted = vals - seasonal[:, phases]
    return TimeSeries(adjusted, ts.labels), seasonal
