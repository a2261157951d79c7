"""Tests of the benchmark's own logic: span arithmetic, hooks, references.

    python3 -m pytest perfbench

The reference tests run each workload's task at a small size, check that
the unmodified outputs pass, then hand each check a perturbed copy of one
output and require it to be flagged. No library code is changed.
"""

import dataclasses
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import references as ref
import run
import tracing
import workloads as wl

LIB = run.load_library(run.ROOT)


def span(name, thread, start, end):
    return tracing.Span(name, thread, 0, start, end, 0.0)


def test_self_times_subtract_nested_spans_of_the_same_thread_only():
    spans = [
        span("task", 1, 0.0, 10.0),
        span("child", 1, 1.0, 4.0),
        span("grandchild", 1, 2.0, 3.0),
        span("sibling", 1, 5.0, 6.0),
        span("worker", 2, 1.0, 8.0),  # runs for "task" on another thread
        span("worker_child", 2, 2.0, 5.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 4.0, 3.0]
    b = tracing.task_breakdown(spans, task_thread=1, task_wall=12.0)
    assert b["spans_self_s"] == 10.0
    assert b["untraced_s"] == 2.0
    assert b["worker_self_s"] == 7.0
    assert b["spans"]["child"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}


def test_self_times_of_repeated_and_back_to_back_children():
    spans = [span("outer", 1, 0.0, 4.0)] + [
        span("inner", 1, float(t), t + 1.0) for t in range(4)
    ]
    assert tracing.self_times(spans) == [0.0, 1.0, 1.0, 1.0, 1.0]
    b = tracing.task_breakdown(spans, task_thread=1, task_wall=4.0)
    assert b["spans"]["inner"]["calls"] == 4
    assert b["untraced_s"] == 0.0


def test_recorded_threaded_spans_account_for_the_task_wall_time():
    recorder = tracing.Recorder()
    inner = tracing._wrap(recorder, "inner", lambda: time.sleep(0.02), None)
    nested = tracing._wrap(recorder, "nested", lambda: time.sleep(0.01), None)

    def work():
        nested()
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(inner) for _ in range(6)]:
                f.result()

    outer = tracing._wrap(recorder, "outer", work, None)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    b = tracing.task_breakdown(recorder.spans, threading.get_ident(), wall)
    s = b["spans"]
    assert s["inner"]["calls"] == 6 and s["nested"]["calls"] == 1
    # Worker spans do not reduce the self time of the span that waits for them.
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["busy_s"] - s["nested"]["busy_s"], abs=1e-12)
    assert s["inner"]["self_s"] == s["inner"]["busy_s"]
    assert b["worker_self_s"] == pytest.approx(s["inner"]["busy_s"], abs=1e-12)
    assert b["spans_self_s"] + b["untraced_s"] == pytest.approx(wall, abs=1e-12)
    assert b["untraced_s"] >= 0.0


def test_hooks_see_calls_inside_the_library_and_restore_it():
    original = LIB.selection.rss_surface
    recorder = tracing.Recorder()
    hooks = tracing.Hooks(LIB.package, recorder, {"selection.rss_surface": None})
    hooks.install()
    try:
        assert LIB.selection.rss_surface is not original
        _, ts = LIB.simulate.run_simulation(LIB.simulate.SimConfig(p=12, n=60, k0=1, seed=3))
        LIB.selection.select_bandwidth(ts, K=3)
    finally:
        hooks.uninstall()
    assert LIB.selection.rss_surface is original
    assert [s.name for s in recorder.spans] == ["selection.rss_surface"]


def test_hooks_fail_loudly_on_a_missing_target():
    hooks = tracing.Hooks(
        LIB.package, tracing.Recorder(),
        {"selection.rss_surface": None, "selection.no_such_function": None},
    )
    with pytest.raises(tracing.HookError, match="no_such_function"):
        hooks.install()
    assert not hasattr(LIB.selection.rss_surface, "__wrapped__")


def test_every_hook_target_exists():
    hooks = tracing.Hooks(LIB.package, tracing.Recorder(), wl.HOOK_TARGETS)
    hooks.install()
    hooks.uninstall()


def flagged(fails, prefix):
    return any(f.startswith(prefix) for f in fails)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("pipeline"))
    return wl.pipeline_task(LIB, 11, workdir, p=40, n=120, K=5, holdout=10)


def test_pipeline_references_pass_and_flag_perturbed_outputs(pipeline_out):
    out = pipeline_out
    assert ref.check_pipeline(out) == []
    p = out.series.p

    values = np.array(out.read_back.values)
    values[3, 7] = np.nextafter(values[3, 7], np.inf)
    assert flagged(ref.check_pipeline(dataclasses.replace(out, read_back=LIB.model.TimeSeries(values))), "csv")

    bic = np.array(out.trace.bic)
    bic[p - 1, 2] += 1e-9
    bad = dataclasses.replace(out, trace=dataclasses.replace(out.trace, bic=bic))
    assert flagged(ref.check_pipeline(bad), f"select: row {p - 1} criterion")

    argmin = np.array(out.trace.argmin_per_row)
    argmin[p // 2] += 1
    bad = dataclasses.replace(out, trace=dataclasses.replace(out.trace, argmin_per_row=argmin))
    assert flagged(ref.check_pipeline(bad), "select: argmin_per_row")

    bad = dataclasses.replace(out, trace=dataclasses.replace(out.trace, k_hat=out.trace.k_hat + 1))
    assert flagged(ref.check_pipeline(bad), "select: k_hat")

    a = out.fit.model.coeffs[0]
    diags = [np.array(d) for d in a.diagonals]
    diags[a.k][0] *= 1 + 1e-8  # entry (0, 0)
    model = LIB.model.BandedVarModel(p, 1, a.k, [LIB.linalg.BandedMatrix(p, a.k, diags)])
    bad = dataclasses.replace(out, fit=dataclasses.replace(out.fit, model=model))
    assert flagged(ref.check_pipeline(bad), "fit: row 0 coefficients")

    rss = np.array(out.fit.rss)
    rss[1] *= 1 + 1e-8
    bad = dataclasses.replace(out, fit=dataclasses.replace(out.fit, rss=rss))
    assert flagged(ref.check_pipeline(bad), "fit: row 1 RSS")

    forecast = np.array(out.forecast)
    forecast[5, 1] += 1e-10 * np.abs(forecast).max()
    assert flagged(ref.check_pipeline(dataclasses.replace(out, forecast=forecast)), "predict")

    errors = dict(out.rolling.errors)
    errors[2] = np.array(errors[2])
    errors[2][0, 0] = np.nan
    bad = dataclasses.replace(out, rolling=dataclasses.replace(out.rolling, errors=errors))
    assert flagged(ref.check_pipeline(bad), "rolling: horizon 2")


def test_montecarlo_references_pass_and_flag_perturbed_outputs():
    out = wl.montecarlo_task(LIB, 5, None, p=20, n=100, reps=4, K=5)
    assert ref.check_montecarlo(out) == []

    def with_row(table, **changes):
        rows = [dict(r) for r in getattr(out, table)]
        rows[0].update(changes)
        return dataclasses.replace(out, **{table: rows})

    assert flagged(ref.check_montecarlo(with_row("table1", i_equal=150.0, i_over=0.0, i_under=-50.0)), "table1")
    row = out.table1[0]
    assert flagged(ref.check_montecarlo(with_row("table1", ii_equal=row["ii_equal"] + 5.0)), "table1")
    assert flagged(ref.check_montecarlo(with_row("table1", i_equal=12.5, i_over=37.5, i_under=50.0)), "table1")
    assert flagged(ref.check_montecarlo(with_row("table1", p=21)), "table1")
    assert flagged(ref.check_montecarlo(with_row("table3", estimated_l1_mean=-1.0)), "table3")
    assert flagged(ref.check_montecarlo(with_row("table3", true_l2_sd=float("nan"))), "table3")

    assert ref.check_k_hat_mean({"k_hat_mean": 2.5}, 5) == []
    assert ref.check_k_hat_mean({"k_hat_mean": 0.5}, 5)
    assert ref.check_k_hat_mean({"k_hat_mean": 5.5}, 5)

    assert ref.check_same_rows("t1", out.table1, [dict(r) for r in out.table1]) == []
    assert ref.check_same_rows("t1", out.table1, with_row("table1", i_over=row["i_over"] + 1.0).table1)
    assert wl.montecarlo_setup_check(LIB, 5, out) == []


@pytest.fixture(scope="module")
def autocov_out():
    return wl.autocov_task(LIB, 9, None, p=30, n=100, q=5)


def test_autocov_references_pass_and_flag_perturbed_outputs(autocov_out):
    out = autocov_out
    samples = {j: LIB.autocov.sample_autocov(out.series, j) for j in wl.LAGS}
    assert ref.check_autocov(out, samples) == []

    def with_estimate(key, **changes):
        estimates = dict(out.estimates)
        estimates[key] = dataclasses.replace(estimates[key], **changes)
        return dataclasses.replace(out, estimates=estimates)

    est = out.estimates[(0, "banded")]
    matrix = np.array(est.matrix)
    matrix[2, 2] *= 1 + 1e-15
    assert flagged(ref.check_autocov(with_estimate((0, "banded"), matrix=matrix), samples), "lag 0 banded")
    grid = ref.band_grid(out.series.n, out.series.p)
    other = int(grid[0] if est.tuning["r"] != grid[0] else grid[1])
    for r in (other, int(grid.max()) + 1):
        bad = with_estimate((0, "banded"), tuning={**est.tuning, "r": r})
        assert flagged(ref.check_autocov(bad, samples), "lag 0 banded")

    est = out.estimates[(1, "thresholded")]
    bad = with_estimate((1, "thresholded"), tuning={**est.tuning, "t": est.tuning["t"] * (1 + 1e-12) + 1e-300})
    assert flagged(ref.check_autocov(bad, samples), "lag 1 thresholded")

    wrong = dict(samples)
    wrong[1] = samples[1] * (1 + 1e-9)
    assert flagged(ref.check_autocov(out, wrong), "lag 1")


def test_risk_curve_reference_passes_and_flags_perturbed_curves(autocov_out):
    assert wl.autocov_setup_check(LIB, 4, autocov_out) == []
    values = autocov_out.series.values
    risk = LIB.autocov.bootstrap_select_band(autocov_out.series, 1, q=3, rng=wl.bootstrap_rng(4, 1, "band"))
    grid = ref.band_grid(values.shape[1], values.shape[0])
    brute = ref.brute_force_risk(values, 1, "band", grid, 3, wl.bootstrap_rng(4, 1, "band"))
    assert ref.check_risk_curve("r", risk.grid, risk.risk, risk.argmin, grid, brute) == []
    assert ref.check_risk_curve("r", risk.grid, risk.risk * (1 + 1e-8), risk.argmin, grid, brute)
    assert ref.check_risk_curve("r", risk.grid, risk.risk, risk.argmin + 1, grid, brute)
    assert ref.check_risk_curve("r", risk.grid[:-1], risk.risk[:-1], risk.argmin, grid, brute)


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names(
        wl.HOOK_TARGETS, wl.COUNT_NAMES
    )


def test_task_seeds_depend_on_seed_phase_and_index():
    seeds = {wl.task_seed(s, label, i) for s in (1, 2) for label in ("task", "warmup") for i in range(3)}
    assert len(seeds) == 12
    assert wl.task_seed(1, "task", 0) == wl.task_seed(1, "task", 0)


def test_tasks_per_s_leaves_out_the_fastest_and_slowest_quarter():
    assert run.middle_half_rate([2.0, 2.0, 2.0]) == pytest.approx(0.5)
    # One stalled task and one fast one of eight are dropped with their quarters.
    walls = [0.1, 9.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert run.middle_half_rate(walls) == pytest.approx(0.5)
