"""The benchmark's workloads: one task each, its checks, and its set-up checks.

A task is one unit of user work. It calls the library through module
attributes (``lib.selection.select_bandwidth``), so the traced run's hooks see
the calls. Inputs come only from the seed the task is given.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import references as ref

LAGS = (0, 1)
AUTOCOV_METHODS = ("banded", "thresholded")


def task_seed(seed: int, label: str, index: int) -> int:
    """Seed of task ``index`` in phase ``label`` of a run with workload seed ``seed``."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(zlib.crc32(label.encode()), int(index)))
    return int(seq.generate_state(1)[0])


def bootstrap_rng(seed: int, j: int, method: str) -> np.random.Generator:
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(j), zlib.crc32(method.encode())))
    return np.random.Generator(np.random.Philox(seq))


# --- pipeline_p1000 -------------------------------------------------------


@dataclass
class PipelineOutputs:
    series: object
    read_back: object
    trace: object
    fit: object
    forecast: np.ndarray
    rolling: object


def pipeline_task(lib, seed, workdir, p=1000, n=400, k0=2, K=15, holdout=30, h=2, threads=1):
    """README quick tour at p=1000 plus a CSV round trip."""
    _, series = lib.simulate.run_simulation(lib.simulate.SimConfig(p=p, n=n, k0=k0, seed=seed))
    path = os.path.join(workdir, "series.csv")
    lib.io.write_timeseries_csv(path, series)
    back = lib.io.read_timeseries_csv(path)
    trace = lib.selection.select_bandwidth(back, d=1, K=K, threads=threads)
    fit = lib.estimation.fit_banded_var(back, trace.k_hat, threads=threads)
    forecast = lib.forecast.predict(fit.model, back, h=h)
    rolling = lib.forecast.rolling_evaluation(
        back, lib.forecast.FitSpec(d=1, K=K, demean=False), holdout=holdout, h_max=h,
        threads=threads,
    )
    return PipelineOutputs(series, back, trace, fit, forecast, rolling)


def pipeline_check(lib, out):
    return ref.check_pipeline(out)


def pipeline_setup_check(lib, seed, out):
    """None beyond checking the warm-up task itself."""
    return []


# --- montecarlo_p100 ------------------------------------------------------


@dataclass
class MonteCarloOutputs:
    request: dict
    table1: list
    table3: list


def montecarlo_task(lib, seed, workdir, p=100, n=200, reps=10, K=15, threads=2):
    """Monte Carlo tables 1 and 3 for one (p, k0=1) cell."""
    kw = dict(n=n, reps=reps, K=K, seed=seed, threads=threads)
    t1 = lib.bench.table1_rows([p], [1], **kw)
    t3 = lib.bench.table3_rows([p], [1], **kw)
    return MonteCarloOutputs({"ps": [p], "k0s": [1], "reps": reps, "K": K}, t1, t3)


def montecarlo_check(lib, out):
    return ref.check_montecarlo(out)


def montecarlo_setup_check(lib, seed, out, p=30, n=120, reps=4, K=6):
    """A small cell gives identical rows at threads=1 and threads=2, and its
    selected bandwidths average inside [1, K]."""
    fails = []
    kw = dict(n=n, reps=reps, K=K, seed=seed)
    for name in ("table1_rows", "table3_rows"):
        table = getattr(lib.bench, name)
        fails += ref.check_same_rows(name, table([p], [1], threads=1, **kw), table([p], [1], threads=2, **kw))
    cell = lib.bench.estimation_error_cell("uniform", p, 1, threads=2, **kw)
    return fails + ref.check_k_hat_mean(cell, K)


# --- autocov_p300 ---------------------------------------------------------


@dataclass
class AutocovOutputs:
    series: object
    estimates: dict = field(default_factory=dict)  # (lag, method) -> AutocovEstimate


def autocov_task(lib, seed, workdir, p=300, n=200, q=100, threads=1):
    """Table 4 design; bootstrap-tuned banded and thresholded estimates at lags 0 and 1.

    The autocov functions take no worker count, so ``threads`` must be 1."""
    if threads != 1:
        raise ValueError("autocov estimation is single-threaded")
    config = lib.simulate.SimConfig(
        p=p, n=n, k0=3, seed=seed, setting="uniform",
        sigma_eps_kind="structured_bbt", target_norm=0.8,
    )
    _, series = lib.simulate.run_simulation(config)
    out = AutocovOutputs(series)
    for j in LAGS:
        for method in AUTOCOV_METHODS:
            out.estimates[(j, method)] = lib.autocov.estimate_autocov(
                series, j, method=method, q=q, rng=bootstrap_rng(seed, j, method)
            )
    return out


def autocov_check(lib, out):
    samples = {j: lib.autocov.sample_autocov(out.series, j) for j in LAGS}
    return ref.check_autocov(out, samples)


def autocov_setup_check(lib, seed, out, q=4):
    """The library's bootstrap risk curves equal brute force at small q."""
    fails = []
    values = out.series.values
    n, p = values.shape[1], values.shape[0]
    for j in LAGS:
        for method, select in (
            ("band", lib.autocov.bootstrap_select_band),
            ("threshold", lib.autocov.bootstrap_select_threshold),
        ):
            risk = select(out.series, j, q=q, rng=bootstrap_rng(seed, j, method))
            grid = (
                ref.band_grid(n, p)
                if method == "band"
                else ref.threshold_grid(ref.centred_autocov(values, j))
            )
            brute = ref.brute_force_risk(values, j, method, grid, q, bootstrap_rng(seed, j, method))
            fails += ref.check_risk_curve(
                f"lag {j} {method} risk", risk.grid, risk.risk, risk.argmin, grid, brute
            )
    return fails


# --- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    task: Callable
    check: Callable
    setup_check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_p1000", 1, pipeline_task, pipeline_check, pipeline_setup_check),
        Workload("montecarlo_p100", 2, montecarlo_task, montecarlo_check, montecarlo_setup_check),
        Workload("autocov_p300", 1, autocov_task, autocov_check, autocov_setup_check),
    )
}


# --- traced run: hook targets and their work counters ---------------------


def _count(name, amount_fn):
    def counter(recorder, arguments, result):
        recorder.count(name, amount_fn(arguments, result))

    return counter


_csv_bytes = _count("io.csv_bytes", lambda a, r: os.path.getsize(a["path"]))
_replicates = _count("autocov.bootstrap.replicates", lambda a, r: int(r.q))

HOOK_TARGETS = {
    "simulate.make_model": None,
    "simulate.simulate_var": _count(
        "simulate.simulate_var.steps", lambda a, r: int(a["burn_in"]) + int(a["n"])
    ),
    "simulate.gen_coeff_uniform": None,
    "simulate.gen_coeff_mixture": None,
    "model.is_stationary": None,
    "linalg.spectral_norm": None,
    "io.write_timeseries_csv": _csv_bytes,
    "io.read_timeseries_csv": _csv_bytes,
    "selection.select_bandwidth": None,
    "selection.rss_surface": _count(
        "selection.rss_surface.rows", lambda a, r: int(r.rss.shape[0])
    ),
    "estimation.fit_banded_var": _count(
        "estimation.fit_banded_var.rows", lambda a, r: int(r.rss.shape[0])
    ),
    "forecast.predict": None,
    "forecast.rolling_evaluation": None,
    "autocov.estimate_autocov": None,
    "autocov.sample_autocov": None,
    "autocov.bootstrap_select_band": _replicates,
    "autocov.bootstrap_select_threshold": _replicates,
    "bench.table1_rows": None,
    "bench.table3_rows": None,
}

COUNT_NAMES = (
    "selection.rss_surface.rows",
    "estimation.fit_banded_var.rows",
    "simulate.simulate_var.steps",
    "autocov.bootstrap.replicates",
    "io.csv_bytes",
)

CPU_SPANS = ("bench.table1_rows", "bench.table3_rows")
