"""Run one bandedvar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline_p1000 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` there,
and the run fails when it is missing. The process pins BLAS to one thread
before numpy is imported, sets up (imports, then three rounds of a warm-up
task and the set-up checks, reporting the median round), then runs tasks back
to back for about ``--seconds`` of task time and checks every task's outputs
against the references in ``references.py``.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
measured on every other task with the library's public functions hooked.
The full result, with its environment record, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from types import SimpleNamespace

import tracing

# Set-up time is counted from here; the interpreter and the imports above
# take a few tens of milliseconds before it.
T_START = time.perf_counter()

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
MIN_TRACED_TASKS = 4  # two traced and two untraced, for trace.overhead_frac
LIBRARY_MODULES = (
    "simulate", "model", "linalg", "io", "selection", "estimation", "forecast", "autocov", "bench",
)
END_TO_END = {
    "setup_s": "s",
    "task_s_p50": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_library(root: str) -> SimpleNamespace:
    """Import bandedvar from ``<root>/src`` and return its modules by short name."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bandedvar", "__init__.py")):
        raise SystemExit(f"error: no bandedvar sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)
    package = importlib.import_module("bandedvar")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "bandedvar"):
        raise SystemExit(f"error: bandedvar imported from {package.__file__}, not {src}")
    mods = {name: importlib.import_module(f"bandedvar.{name}") for name in LIBRARY_MODULES}
    return SimpleNamespace(package=package, **mods)


def per_layer_names(hook_targets, count_names) -> dict:
    """Per-layer metric name -> unit, in output order."""
    names = {}
    for span in hook_targets:
        names[f"{span}.calls"] = "count"
        names[f"{span}.busy_s"] = "s"
        names[f"{span}.self_s"] = "s"
    for name in count_names:
        names[name] = "bytes" if name.endswith("bytes") else "count"
    names.update({
        "bench.cpu_per_wall": "ratio",
        "trace.task_s": "s",
        "trace.spans_self_s": "s",
        "trace.untraced_s": "s",
        "trace.worker_self_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return names


def middle_half_rate(walls) -> float:
    """Tasks per second over the middle half of the tasks by wall time.

    The fastest and the slowest quarter are left out, so that a host stall
    during one task of a short run does not swing the throughput."""
    cut = len(walls) // 4
    kept = sorted(walls)[cut:len(walls) - cut]
    return len(kept) / sum(kept)


def environment(workload, args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": cpu_model,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": workload.name,
        "threads": workload.threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(workload, lib, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from workloads import COUNT_NAMES, CPU_SPANS, HOOK_TARGETS, task_seed

    def attempt(label, index, hooks=None, setup_round=None):
        """Run one task, then its checks; returns (task wall seconds, failures)."""
        if hooks is not None:
            hooks.install()
        failure = None
        start = time.perf_counter()
        try:
            out = workload.task(lib, task_seed(seed, label, index), workdir, threads=workload.threads)
        except Exception:  # a failing task is counted, not fatal
            failure = traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            if hooks is not None:
                hooks.uninstall()
        if failure is not None:
            return wall, [failure]
        fails = workload.check(lib, out)
        if setup_round is not None:
            fails += workload.setup_check(lib, task_seed(seed, "setup", setup_round), out)
        return wall, fails

    import_s = time.perf_counter() - T_START
    rounds, setup_fails, warmup_walls = [], [], []
    for r in range(SETUP_ROUNDS):
        start = time.perf_counter()
        wall, fails = attempt("warmup", r, setup_round=r)
        rounds.append(time.perf_counter() - start)
        warmup_walls.append(wall)
        setup_fails += fails

    recorder = tracing.Recorder()
    hooks = tracing.Hooks(lib.package, recorder, HOOK_TARGETS) if trace else None
    walls, traced_walls, task_fails = [], {}, []
    elapsed, index = 0.0, 0
    # Stop at the task boundary nearest to ``seconds`` of task time.
    while index < (MIN_TRACED_TASKS if trace else 1) or (
        elapsed + 0.5 * statistics.median(walls or warmup_walls) < seconds
    ):
        traced = trace and index % 2 == 1
        recorder.task = index
        wall, fails = attempt("task", index, hooks if traced else None)
        elapsed += wall
        if traced:
            traced_walls[index] = wall
        else:
            walls.append(wall)
        if fails:
            task_fails.append({"task": index, "failures": fails})
        index += 1

    result = {
        "attempted": index,
        "failed": len(task_fails),
        "setup_failures": setup_fails,
        "task_failures": task_fails,
        "setup": {"import_s": import_s, "rounds_s": rounds},
        "task_walls_s": walls,
        "traced_task_walls_s": list(traced_walls.values()),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": import_s + statistics.median(rounds),
            "task_s_p50": statistics.median(walls),
            "tasks_per_s": middle_half_rate(walls),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    spans_by_task = {}
    for span in recorder.spans:
        spans_by_task.setdefault(span.task, []).append(span)
    breakdowns = {}
    for task, wall in traced_walls.items():
        b = tracing.task_breakdown(spans_by_task.get(task, []), threading.get_ident(), wall)
        gap = b["spans_self_s"] + b["untraced_s"] - b["task_s"]
        if abs(gap) > 1e-9 * max(1.0, wall) or b["untraced_s"] < 0.0:
            raise RuntimeError(f"task {task}: span self times do not account for its wall time ({gap:.3e} s)")
        breakdowns[task] = b
    first_task = min(breakdowns)
    first = breakdowns[first_task]

    def mean(value):
        return sum(value(b) for b in breakdowns.values()) / len(breakdowns)

    metrics = {}
    for span in HOOK_TARGETS:
        metrics[f"{span}.calls"] = first["spans"].get(span, {}).get("calls", 0)
        for key in ("busy_s", "self_s"):
            metrics[f"{span}.{key}"] = mean(lambda b: b["spans"].get(span, {}).get(key, 0.0))
    for name in COUNT_NAMES:
        metrics[name] = recorder.counts[first_task].get(name, 0)
    table_spans = [s for s in recorder.spans if s.name in CPU_SPANS]
    table_wall = sum(s.end - s.start for s in table_spans)
    metrics["bench.cpu_per_wall"] = sum(s.cpu_s for s in table_spans) / table_wall if table_wall else 0.0
    for key in ("task_s", "spans_self_s", "untraced_s", "worker_self_s"):
        metrics[f"trace.{key}"] = mean(lambda b: b[key])
    untraced_p50 = statistics.median(walls)
    metrics["trace.overhead_frac"] = (statistics.median(list(traced_walls.values())) - untraced_p50) / untraced_p50
    result["metrics"] = metrics
    result["spans"] = recorder.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library(ROOT)
    # workloads imports numpy, so it is imported only after BLAS is pinned.
    from workloads import COUNT_NAMES, HOOK_TARGETS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(workload, lib, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_names(HOOK_TARGETS, COUNT_NAMES) if args.trace else END_TO_END
    stem = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    spans = result.pop("spans", [])
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(workload, args), **result}, fh, indent=1)
        fh.write("\n")
    if spans:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    for msg in result["setup_failures"]:
        print(f"set-up check failed: {msg}", file=sys.stderr)
    for item in result["task_failures"]:
        for msg in item["failures"]:
            print(f"task {item['task']} failed: {msg}", file=sys.stderr)

    metrics = result["metrics"]
    print(f"workload {workload.name}  seed {args.seed}  threads {workload.threads}  "
          f"tasks {result['attempted']}  trace {'on' if args.trace else 'off'}")
    for name, unit in units.items():
        note = f"  (n={len(result['task_walls_s'])})" if name == "task_s_p50" else ""
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'failed_fraction':<44} {result['failed'] / result['attempted']:>14.6g} ratio"
              f"  ({result['failed']}/{result['attempted']})")
    print(json.dumps({
        "correct": not result["setup_failures"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # Pin BLAS before anything imports numpy.
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
