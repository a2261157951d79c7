"""Golden command-line outputs: the cases, how to run them, and a rewriter.

Each seed directory holds the files one fixed sequence of ``bandedvar``
commands writes into a working directory that starts with only the fixed
``INPUTS`` copied from this directory (relative paths only), plus one
``<case>.stdout`` file per command. Manifests are stored without their
``nondeterministic`` key, the one part of an output that differs between
reruns with identical flags and seed.

Every file is compared byte for byte, except those named in ``ROUNDING``:
outputs built on a kernel whose swap may change only rounding, compared by
``same_up_to_rounding`` (1e-10 relative, integers and all other text exact).

Rewrite the golden files from the current library with

    PYTHONPATH=src python tests/golden/generate.py

A rounding-case file whose new bytes pass that comparison is kept as it is,
so rerunning on another host does not churn its host-dependent last digits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
SEEDS = (3, 4)

# (case name, argv); the case name is also the --out prefix
CASES = (
    ("sim", ["simulate", "--p", "40", "--n", "150", "--k0", "2", "--seed", "{seed}"]),
    ("select", ["select", "--data", "sim.csv"]),
    ("select_L2", ["select", "--data", "sim.csv", "--L", "2"]),
    ("select_joint", ["select", "--data", "sim.csv", "--joint"]),
    ("fit", ["fit", "--data", "sim.csv", "--k", "2"]),
    ("forecast_model", ["forecast", "--data", "sim.csv", "--model", "fit.model.json",
                        "--h", "3"]),
    ("forecast", ["forecast", "--data", "sim.csv", "--holdout", "10"]),
    ("forecast_period", ["forecast", "--data", "sim.csv", "--period", "6", "--h", "2"]),
    ("autocov_banded", ["autocov", "--data", "sim.csv", "--method", "banded",
                        "--q", "20", "--seed", "{seed}"]),
    ("autocov_thresholded", ["autocov", "--data", "sim.csv", "--method", "thresholded",
                             "--q", "20", "--seed", "{seed}"]),
    ("bench_t1", ["bench", "--table", "t1", "--p", "30", "--reps", "3", "--K", "5",
                  "--seed", "{seed}"]),
    ("bench_t2", ["bench", "--table", "t2", "--p", "30", "--reps", "3", "--K", "5",
                  "--seed", "{seed}"]),
    ("bench_t3", ["bench", "--table", "t3", "--p", "30", "--reps", "3", "--K", "5",
                  "--seed", "{seed}"]),
    ("bench_t4", ["bench", "--table", "t4", "--p", "30", "--reps", "2", "--q", "10",
                  "--seed", "{seed}"]),
    ("bench_t7", ["bench", "--table", "t7", "--p", "30", "--reps", "2", "--K", "5",
                  "--k0", "2", "--seed", "{seed}"]),
    ("order", ["order", "--data", "sim.csv", "--coords", "coords.csv",
               "--strategy", "ns,we,nwse,swne,anchor:0", "--K", "5"]),
)

# fixed input files, copied from this directory into the working directory
INPUTS = ("coords.csv",)

# Table 4 scores estimators against the model-implied autocovariance, whose
# summation may change rounding without changing the maths. The selection and
# fit cases read least squares from the Cholesky factor of each equation's
# Gram matrix, whose rounding differs from the QR fallback's.
ROUNDING = (
    "bench_t3", "bench_t4", "bench_t7", "fit", "forecast", "forecast_model",
    "forecast_period", "order", "select", "select_L2",
)


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
REL_TOL = 1e-10


def is_rounding(name: str) -> bool:
    return name.split(".", 1)[0] in ROUNDING


def same_up_to_rounding(got: bytes, want: bytes) -> bool:
    """Every number within ``REL_TOL`` relative, integers and other text exact."""
    got, want = got.decode(), want.decode()
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if g == w:
            continue
        if not any(c in g + w for c in ".eE"):
            return False  # integers (picks, sizes, lags) must match exactly
        if abs(float(g) - float(w)) > REL_TOL * abs(float(w)):
            return False
    return True


def run_cases(seed: int) -> dict:
    """Run every case for ``seed`` in a fresh directory; returns {file name: bytes}."""
    from bandedvar.cli import main

    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            shutil.copy(GOLDEN_DIR / name, tmp)
        os.chdir(tmp)
        try:
            for name, argv in CASES:
                argv = [a.format(seed=seed) for a in argv] + ["--out", name]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"bandedvar {' '.join(argv)} exited with {code}")
                outputs[f"{name}.stdout"] = out.getvalue().encode()
        finally:
            os.chdir(cwd)
        for path in sorted(Path(tmp).iterdir()):
            if path.name in INPUTS:
                continue
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                doc = json.loads(data)
                doc.pop("nondeterministic")
                data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
            outputs[path.name] = data
    return outputs


def main() -> None:
    for seed in SEEDS:
        target = GOLDEN_DIR / f"seed{seed}"
        target.mkdir(exist_ok=True)
        outputs = run_cases(seed)
        for old in target.iterdir():
            if old.name not in outputs:
                old.unlink()
        for name, data in outputs.items():
            path = target / name
            if is_rounding(name) and path.exists() and same_up_to_rounding(data, path.read_bytes()):
                continue
            path.write_bytes(data)
        print(f"wrote {target}")


if __name__ == "__main__":
    sys.path.insert(0, os.fspath(GOLDEN_DIR.parents[1] / "src"))
    main()
