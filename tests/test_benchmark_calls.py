"""The benchmark's calls into the library, checked in the regular suite.

The benchmark under ``perfbench/`` drives the library through module
attributes and keywords (``lib.bench.table1_rows([p], [1], threads=2)``)
and hooks named library functions. These tests import its workload
definitions, unchanged, and run each task once at a tiny size, so a name or
keyword the benchmark needs that goes missing fails here instead of only in
a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import bandedvar
import bandedvar.bench  # noqa: F401  the package does not import these two itself
import bandedvar.io  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# each workload's task keywords at a size that runs in well under a second
TINY = {
    "pipeline_p1000": dict(p=12, n=60, K=3, holdout=5),
    "montecarlo_p100": dict(p=12, n=60, reps=2, K=3),
    "autocov_p300": dict(p=12, n=60, q=3),
}


@pytest.fixture(scope="module")
def wl():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_hook_target_is_a_library_function(wl):
    for name in wl.HOOK_TARGETS:
        module, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"bandedvar.{module}"), attr, None)), name


def test_every_workload_has_a_tiny_size(wl):
    assert set(TINY) == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_task_runs_and_passes_its_check(wl, tmp_path, name):
    workload = wl.WORKLOADS[name]
    out = workload.task(bandedvar, 1, str(tmp_path), threads=workload.threads, **TINY[name])
    assert workload.check(bandedvar, out) == []
