"""Command-line behaviour: formats, exit codes, reproducibility."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    DataFormatError,
    TimeSeries,
    cli,
    fit_banded_var,
    gen_sigma_eps_structured,
    predict,
)
from bandedvar.cli import build_parser, main
from bandedvar.io import (
    _read_timeseries_lines,
    load_model_json,
    read_timeseries_csv,
    write_timeseries_csv,
)
from bandedvar.rng import substream

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*argv):
    return main([str(a) for a in argv])


def simulate_panel(tmp_path, name="sim", p=20, n=120, k0=2, seed=3, extra=()):
    out = tmp_path / name
    code = run(
        "simulate", "--p", p, "--n", n, "--k0", k0, "--seed", seed, "--out", out, *extra
    )
    assert code == 0
    return out


class TestSimulateCommand:
    def test_writes_expected_shape(self, tmp_path):
        out = simulate_panel(tmp_path, p=10, n=40)
        with open(f"{out}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 41  # header + time points
        assert len(rows[0]) == 10
        ts = read_timeseries_csv(f"{out}.csv")
        assert (ts.p, ts.n) == (10, 40)
        model, _ = load_model_json(f"{out}.model.json")
        assert model.k0 == 2

    def test_structured_truth_is_a_version_3_band(self, tmp_path):
        out = simulate_panel(tmp_path, p=30, n=40, extra=("--sigma-eps", "structured"))
        doc = json.loads(Path(f"{out}.model.json").read_text())
        assert doc["schema_version"] == 3
        assert [len(diag) for diag in doc["sigma_eps"]["diagonals"]] == [28, 29, 30, 29, 28]
        model, _ = load_model_json(f"{out}.model.json")
        assert model.sigma_eps._packed.tobytes() == gen_sigma_eps_structured(30)._packed.tobytes()
        code = run(
            "forecast", "--data", f"{out}.csv", "--model", f"{out}.model.json",
            "--out", tmp_path / "pred",
        )
        assert code == 0

    def test_same_seed_identical_bytes(self, tmp_path):
        a = simulate_panel(tmp_path, "a", seed=9)
        b = simulate_panel(tmp_path, "b", seed=9)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        c = simulate_panel(tmp_path, "c", seed=10)
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()

    def test_lossless_round_trip(self, tmp_path):
        out = simulate_panel(tmp_path, p=5, n=30)
        ts = read_timeseries_csv(f"{out}.csv")
        write_timeseries_csv(tmp_path / "again.csv", ts)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / (out.name + ".csv")).read_bytes()

    def test_mixture_needs_band(self, tmp_path, capsys):
        code = run(
            "simulate", "--p", 10, "--n", 30, "--k0", 0,
            "--setting", "mixture", "--out", tmp_path / "x",
        )
        assert code == 1
        assert "k0" in capsys.readouterr().err

    def test_extreme_target_norm_exit_code_two(self, tmp_path, capsys):
        code = run("simulate", "--p", 6, "--n", 40, "--k0", 1, "--target-norm", "1e200",
                   "--out", tmp_path / "x")
        assert code == 2
        assert "non-stationary" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert run("simulate", "--p", "10") == 1  # missing required flags
        assert run("nonsense") == 1


class TestFitAndForecast:
    def test_fit_then_forecast_reproduces_fitted_values(self, tmp_path):
        out = simulate_panel(tmp_path, p=8, n=100, k0=1, seed=5)
        assert run(
            "fit", "--data", f"{out}.csv", "--k", 1, "--no-demean",
            "--out", tmp_path / "fit",
        ) == 0
        model, means = load_model_json(f"{tmp_path}/fit.model.json")
        assert means is None
        ts = read_timeseries_csv(f"{out}.csv")
        # one-step prediction from the first t observations matches the
        # in-sample fitted value at t computed from the model directly
        t = 60
        write_timeseries_csv(tmp_path / "head.csv", ts.window(0, t))
        assert run(
            "forecast", "--data", tmp_path / "head.csv",
            "--model", tmp_path / "fit.model.json", "--h", 1,
            "--out", tmp_path / "pred",
        ) == 0
        with open(tmp_path / "pred.predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        got = np.array([float(v) for v in rows[1]])
        manual = model.coeffs[0].to_dense() @ ts.values[:, t - 1]
        assert np.allclose(got, manual, atol=1e-12)

    @pytest.mark.parametrize(
        "option",
        [("--k", 1), ("--K", 3), ("--period", 4), ("--refit",), ("--include-zero",),
         ("--no-demean",), ("--d", 2)],
    )
    @pytest.mark.parametrize("holdout", [(), ("--holdout", 5)])
    def test_model_rejects_fitting_options(self, tmp_path, capsys, option, holdout):
        out = simulate_panel(tmp_path, p=6, n=60, k0=1, seed=9)
        assert run("fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp_path / "fit") == 0
        capsys.readouterr()
        code = run(
            "forecast", "--data", f"{out}.csv", "--model", tmp_path / "fit.model.json",
            *option, *holdout, "--out", tmp_path / "pred",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert option[0] in err and "--model" in err
        assert not list(tmp_path.glob("pred.*"))

    MALFORMED = {
        "schema_version 3": (lambda doc: doc.update(schema_version=3), "schema_version 3"),
        "lag with 4 diagonals": (
            lambda doc: doc["coeffs"][0].append(doc["coeffs"][0][0]),
            "lag 1: expected 3 diagonals, got 4",
        ),
        "banded sigma_eps with 4 diagonals": (
            lambda doc: doc.update(schema_version=3, sigma_eps={"diagonals": [[1.0] * 6] * 4}),
            "sigma_eps: expected 3 diagonals, got 4",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_model_exits_one_naming_the_file(self, tmp_path, capsys, case):
        edit, message = self.MALFORMED[case]
        out = simulate_panel(tmp_path, p=6, n=60, k0=1, seed=9)
        assert run("fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp_path / "fit") == 0
        path = tmp_path / "fit.model.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("forecast", "--data", f"{out}.csv", "--model", path, "--out", tmp_path / "pred")
        err = capsys.readouterr().err
        assert code == 1
        assert str(path) in err and message in err

    def test_model_takes_default_fitting_options(self, tmp_path):
        out = simulate_panel(tmp_path, p=6, n=60, k0=1, seed=9)
        assert run("fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp_path / "fit") == 0
        assert run(
            "forecast", "--data", f"{out}.csv", "--model", tmp_path / "fit.model.json",
            "--d", 1, "--demean", "--out", tmp_path / "pred",
        ) == 0

    def test_fit_demean_records_means(self, tmp_path):
        out = simulate_panel(tmp_path, p=6, n=90, k0=1, seed=6)
        assert run(
            "fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp_path / "fit",
        ) == 0
        _, means = load_model_json(tmp_path / "fit.model.json")
        ts = read_timeseries_csv(f"{out}.csv")
        assert np.allclose(means, ts.values.mean(axis=1), atol=1e-12)

    def test_singular_design_exit_code_two(self, tmp_path, capsys):
        vals = substream(0, "x").standard_normal((1, 50))
        ts = TimeSeries(np.vstack([vals, vals, vals]))
        write_timeseries_csv(tmp_path / "dup.csv", ts)
        code = run("fit", "--data", tmp_path / "dup.csv", "--k", 1, "--out", tmp_path / "f")
        assert code == 2
        assert "rows" in capsys.readouterr().err

    def test_linalg_error_exit_code_two(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError, yet a numerical failure
        out = simulate_panel(tmp_path, p=6, n=40, k0=1)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("stub eigensolver failure")

        monkeypatch.setattr(cli, "fit_banded_var", fail)
        code = run("fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp_path / "f")
        assert code == 2
        assert capsys.readouterr().err == "bandedvar: stub eigensolver failure\n"

    def test_period_forecast_adds_seasonal_table_back(self, tmp_path):
        # a level of 100 and a period-12 cycle of amplitude 50 on a simulated panel
        out = simulate_panel(tmp_path, p=8, n=120, k0=1, seed=8)
        period, n = 12, 120
        t = np.arange(n)
        vals = read_timeseries_csv(f"{out}.csv").values + 100 + 50 * np.sin(2 * np.pi * t / period)
        write_timeseries_csv(tmp_path / "seasonal.csv", TimeSeries(vals))
        assert run(
            "forecast", "--data", tmp_path / "seasonal.csv", "--k", 1, "--period", period,
            "--h", 2, "--out", tmp_path / "pred",
        ) == 0
        got = np.loadtxt(tmp_path / "pred.predictions.csv", delimiter=",", skiprows=1).T
        table = np.column_stack([vals[:, t % period == s].mean(axis=1) for s in range(period)])
        adjusted = vals - table[:, t % period]
        a = fit_banded_var(TimeSeries(adjusted), 1).model.coeffs[0].to_dense()
        step1 = a @ adjusted[:, -1]
        want = np.column_stack([step1, a @ step1]) + table[:, [n % period, (n + 1) % period]]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_holdout_summary(self, tmp_path, capsys):
        out = simulate_panel(tmp_path, p=6, n=150, k0=1, seed=7)
        code = run(
            "forecast", "--data", f"{out}.csv", "--k", 1, "--no-demean",
            "--holdout", 10, "--h", 2, "--out", tmp_path / "eval",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "1-step absolute error" in text
        summary = json.loads((tmp_path / "eval.summary.json").read_text())
        assert set(summary["summary"]) == {"1", "2"}


class TestSelectCommand:
    def test_prints_selected_bandwidth(self, tmp_path, capsys):
        out = simulate_panel(tmp_path, p=30, n=300, k0=2, seed=11)
        code = run(
            "select", "--data", f"{out}.csv", "--K", 6, "--Cn", "loglog",
            "--out", tmp_path / "sel",
        )
        assert code == 0
        assert "k_hat = 2" in capsys.readouterr().out
        trace = json.loads((tmp_path / "sel.trace.json").read_text())
        assert trace["k_hat"] == 2
        with open(tmp_path / "sel.argmin.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "k_argmin"]
        assert len(rows) == 31

    def test_joint_selector_prints(self, tmp_path, capsys):
        out = simulate_panel(tmp_path, p=20, n=200, k0=1, seed=12)
        code = run(
            "select", "--data", f"{out}.csv", "--K", 4, "--joint",
            "--out", tmp_path / "sel",
        )
        assert code == 0
        assert "k_tilde" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "first, second",
        [
            (("--joint",), ("--L", 3)),
            (("--joint",), ("--penalty-multiplier", 2.0)),
            (("--L", 2), ("--penalty-multiplier", 1.0)),
        ],
    )
    def test_criterion_options_are_exclusive(self, tmp_path, capsys, first, second):
        # each option picks the criterion its own way; a second one would be ignored
        code = run("select", "--data", tmp_path / "x.csv", *first, *second,
                   "--out", tmp_path / "sel")
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_order_scan_rejects_fixed_order(self, tmp_path, capsys):
        out = simulate_panel(tmp_path, p=8, n=100, k0=1, seed=13)
        code = run("select", "--data", f"{out}.csv", "--L", 2, "--d", 3,
                   "--out", tmp_path / "sel")
        assert code == 1
        err = capsys.readouterr().err
        assert "--d" in err and "--L" in err
        assert not (tmp_path / "sel.trace.json").exists()

    def test_level_shift_does_not_move_the_pick(self, tmp_path, capsys):
        # select demeans by default, like fit, forecast and order
        out = simulate_panel(tmp_path, p=12, n=150, k0=2, seed=15)
        ts = read_timeseries_csv(f"{out}.csv")
        write_timeseries_csv(tmp_path / "shifted.csv", TimeSeries(ts.values + 1e3))
        picks = []
        for name in (f"{out}.csv", tmp_path / "shifted.csv"):
            capsys.readouterr()
            assert run("select", "--data", name, "--K", 4, "--out", tmp_path / "sel") == 0
            picks.append(capsys.readouterr().out)
        assert picks[0] == picks[1]
        assert picks[0].startswith("k_hat = ")

    def test_malformed_csv_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        code = run("select", "--data", bad, "--out", tmp_path / "s")
        assert code == 1
        assert "line 3" in capsys.readouterr().err


class TestReadTimeseriesCsv:
    def test_non_finite_value_names_line_and_column(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataFormatError) as err:
            read_timeseries_csv(bad)
        assert err.value.line == 3
        assert "'b'" in str(err.value)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_golden_series_bitwise_equal_to_line_reader(self, seed):
        path = GOLDEN / f"seed{seed}" / "sim.csv"
        fast, lines = read_timeseries_csv(path), _read_timeseries_lines(path)
        assert fast.values.tobytes() == lines.values.tobytes()
        assert fast.labels == lines.labels

    # (file text, values as rows of the file, labels) for files that read
    VALID = {
        "quoted number": ('a,b\n"1.5",2\n', [[1.5, 2.0]], ("a", "b")),
        "underscore": ("a,b\n1_0,2\n", [[10.0, 2.0]], ("a", "b")),
        "quoted label with comma": ('"x,y",b\n1,2\n', [[1.0, 2.0]], ("x,y", "b")),
        "crlf": ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], ("a", "b")),
        "blank line": ("a,b\n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]], ("a", "b")),
        "no trailing newline": ("a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]], ("a", "b")),
        "padded cells": ("a,b\n 1 ,\t2\n", [[1.0, 2.0]], ("a", "b")),
        "one column": ("a\n1\n2\n", [[1.0], [2.0]], ("a",)),
    }

    @pytest.mark.parametrize("case", sorted(VALID))
    def test_awkward_files_read_as_line_reader(self, tmp_path, case):
        text, rows, labels = self.VALID[case]
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        ts = read_timeseries_csv(path)
        assert ts.values.tobytes() == np.array(rows).T.tobytes()
        assert ts.labels == labels

    # (file text, line, message after the path) for files that do not
    INVALID = {
        "hash in first cell": ("a,b\n1,2\n4#5,2\n", 3, "line 3: could not convert string to float: '4#5'"),
        # numpy's default comments="#" would read this row as 2, 4
        "hash in last cell": ("a,b\n1,2\n2,4#5\n", 3, "line 3: could not convert string to float: '4#5'"),
        "nan": ("a,b\n1,2\nnan,2\n", 3, "line 3: non-finite value nan in column 'a'"),
        "inf": ("a,b\n1,2\n3,-inf\n", 3, "line 3: non-finite value -inf in column 'b'"),
        "short row": ("a,b\n1,2\n3\n", 3, "line 3: expected 2 fields, found 1"),
        "long row": ("a,b\n1,2,3\n", 2, "line 2: expected 2 fields, found 3"),
        "empty cell": ("a,b\n1,\n", 2, "line 2: could not convert string to float: ''"),
        "blank-looking row": ("a,b\n1,2\n \n", 3, "line 3: expected 2 fields, found 1"),
        "header only": ("a,b\n", 1, "no data rows"),
        "header and blank lines": ("a,b\n\n\n", 1, "no data rows"),
        "empty file": ("", 1, "empty file"),
        "empty header": ("\n1,2\n", 1, "empty header"),
    }

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_bad_files_raise_line_reader_error(self, tmp_path, case):
        text, line, message = self.INVALID[case]
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as err:
            read_timeseries_csv(path)
        assert str(err.value) == f"{path}: {message}"
        assert err.value.line == line


class TestOrderCommand:
    def test_table_structure(self, tmp_path, capsys):
        out = simulate_panel(tmp_path, p=10, n=150, k0=1, seed=13)
        coords = tmp_path / "coords.csv"
        rows = ["label,x,y"]
        rng = substream(13, "coords")
        for i in range(10):
            rows.append(f"y{i + 1},{rng.uniform(0, 10):.3f},{rng.uniform(0, 10):.3f}")
        coords.write_text("\n".join(rows) + "\n")
        code = run(
            "order", "--data", f"{out}.csv", "--coords", coords,
            "--strategy", "ns,we,nwse,swne,anchor:0", "--K", 3,
            "--no-demean", "--out", tmp_path / "ord",
        )
        assert code == 0
        with open(tmp_path / "ord.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["ordering", "k_hat", "total_bic"]
        assert [r[0] for r in table[1:]] == ["ns", "we", "nwse", "swne", "anchor:0"]


class TestAutocovCommand:
    def test_sidecar_and_matrix(self, tmp_path):
        out = simulate_panel(tmp_path, p=12, n=100, k0=1, seed=14)
        code = run(
            "autocov", "--data", f"{out}.csv", "--lag", 0, "--method", "banded",
            "--r", 2, "--out", tmp_path / "cov",
        )
        assert code == 0
        meta = json.loads((tmp_path / "cov.meta.json").read_text())
        assert meta == {"method": "banded", "lag": 0, "tuning": {"r": 2, "selected_by": "fixed"}}
        with open(tmp_path / "cov.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12 and len(rows[0]) == 12
        top_right = float(rows[0][-1])
        assert top_right == 0.0  # outside the band

    def test_overflowing_series_exit_code_two(self, tmp_path, capsys):
        values = substream(0, "x").standard_normal((5, 40))
        values[2] *= 1e200
        write_timeseries_csv(tmp_path / "big.csv", TimeSeries(values))
        for method in ("sample", "banded", "thresholded"):
            code = run("autocov", "--data", tmp_path / "big.csv", "--lag", 1,
                       "--method", method, "--q", 2, "--out", tmp_path / "cov")
            assert code == 2
            assert "lag-1 sample autocovariance is not finite at entry (2, 2)" in (
                capsys.readouterr().err
            )
        assert not (tmp_path / "cov.csv").exists()

    def test_single_series_banded(self, tmp_path):
        values = substream(0, "x").standard_normal((1, 60))
        write_timeseries_csv(tmp_path / "one.csv", TimeSeries(values))
        code = run("autocov", "--data", tmp_path / "one.csv", "--method", "banded",
                   "--q", 3, "--out", tmp_path / "cov")
        assert code == 0
        meta = json.loads((tmp_path / "cov.meta.json").read_text())
        assert meta["tuning"]["r"] == 0 and meta["risk"]["grid"] == [0]


class TestBenchCommand:
    def test_single_rep_degenerate_frequencies(self, tmp_path):
        code = run(
            "bench", "--table", "t1", "--reps", 1, "--p", 20, "--k0", 1,
            "--n", 100, "--K", 4, "--seed", 2, "--out", tmp_path / "b",
        )
        assert code == 0
        with open(tmp_path / "b.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, row = rows[0], rows[1]
        freq = {h: float(v) for h, v in zip(header, row) if h not in ("p", "k0")}
        assert all(v in (0.0, 100.0) for v in freq.values())

    def test_identical_seed_identical_bytes(self, tmp_path):
        args = ["bench", "--table", "t1", "--reps", 2, "--p", 15, "--k0", 1,
                "--n", 80, "--K", 3, "--seed", 5]
        assert run(*args, "--out", tmp_path / "one") == 0
        assert run(*args, "--out", tmp_path / "two") == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    @pytest.mark.parametrize("table, k0", [("t4", 3), ("t7", 2)])
    def test_default_k0_is_the_tables_design(self, tmp_path, table, k0):
        # each table gets only the options it uses: t4 runs a bootstrap, t7 selects
        option = {"t4": ("--q", 5), "t7": ("--K", 3)}[table]
        args = ["bench", "--table", table, "--reps", 1, "--p", 12, "--n", 60, *option,
                "--seed", 1]
        assert run(*args, "--out", tmp_path / "default") == 0
        assert run(*args, "--k0", k0, "--out", tmp_path / "given") == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()
        manifest = json.loads((tmp_path / "default.manifest.json").read_text())
        assert manifest["config"]["k0"] == [k0]

    def test_unknown_table_rejected(self, tmp_path):
        assert run("bench", "--table", "t9", "--out", tmp_path / "x") == 1

    @pytest.mark.parametrize("table, option", [("t4", ("--q", 3)), ("t7", ("--K", 3))])
    def test_every_k0_runs(self, tmp_path, table, option):
        code = run("bench", "--table", table, "--reps", 1, "--p", 12, "--n", 60,
                   "--k0", "1,2", *option, "--out", tmp_path / "b")
        assert code == 0
        with open(tmp_path / "b.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_k0 = len(rows) // 2
        assert [r["k0"] for r in rows] == ["1"] * per_k0 + ["2"] * per_k0
        manifest = json.loads((tmp_path / "b.manifest.json").read_text())
        assert manifest["config"]["k0"] == [1, 2]


def simulate_tiny(tmp_path):
    out = simulate_panel(tmp_path, p=6, n=60, k0=1, seed=9)
    return f"{out}.csv"


class TestRejectedArguments:
    """Each argv exits 1 before writing anything, naming the option or path."""

    CASES = {
        "holdout 0": (["forecast", "--data", "{data}", "--holdout", 0], "--holdout"),
        "period 0": (["forecast", "--data", "{data}", "--period", 0], "--period"),
        "threads 0": (["fit", "--data", "{data}", "--k", 1, "--threads", 0], "--threads"),
        "threads above the cap": (["select", "--data", "{data}", "--threads", 33], "--threads"),
        "reps 0": (["bench", "--table", "t1", "--reps", 0, "--p", 12], "--reps"),
        "reps -1": (["bench", "--table", "t1", "--reps", -1, "--p", 12], "--reps"),
        "empty p list": (["bench", "--table", "t1", "--reps", 1, "--p", ","], "--p"),
        "blank p list": (["bench", "--table", "t1", "--reps", 1, "--p", ""], "--p"),
        "empty k0 list": (["bench", "--table", "t1", "--reps", 1, "--k0", ""], "--k0"),
        "negative seed": (["simulate", "--p", 5, "--n", 9, "--k0", 1, "--seed", -1], "--seed"),
        "nan threshold": (["autocov", "--data", "{data}", "--method", "thresholded",
                           "--t", "nan"], "--t"),
        "search bound above p - 1": (["select", "--data", "{data}", "--K", 500],
                                     "search bound K=500 exceeds p - 1 = 5"),
        "missing data": (["fit", "--data", "{tmp}/none.csv", "--k", 1], "none.csv"),
        "missing coords": (["order", "--data", "{data}", "--coords", "{tmp}/none.csv"],
                           "none.csv"),
        "missing model": (["forecast", "--data", "{data}", "--model", "{tmp}/none.json"],
                          "none.json"),
        "r outside banding": (["autocov", "--data", "{data}", "--method", "thresholded",
                               "--r", 2], "--r"),
        "t outside thresholding": (["autocov", "--data", "{data}", "--t", 0.1], "--t"),
        "K for table 4": (["bench", "--table", "t4", "--reps", 1, "--K", 3], "--K"),
        "q outside table 4": (["bench", "--table", "t7", "--reps", 1, "--q", 3], "--q"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_one_naming_the_option(self, tmp_path, capsys, case):
        argv, named = self.CASES[case]
        data = simulate_tiny(tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        argv = [str(a).format(data=data, tmp=tmp_path) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert named in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        data = simulate_tiny(tmp_path)
        code = run("fit", "--data", data, "--k", 1, "--out", tmp_path / "no" / "fit")
        assert code == 1
        assert str(tmp_path / "no" / "fit") in capsys.readouterr().err


class TestCommonOptions:
    # every flag each command takes, besides -h/--help and --out
    FLAGS = {
        "simulate": "--p --n --k0 --setting --sigma-eps --target-norm --burn-in --seed",
        "fit": "--data --k --d --demean --no-demean --threads",
        "select": "--data --d --K --Cn --L --joint --penalty-multiplier --include-zero "
                  "--demean --no-demean --threads",
        "autocov": "--data --lag --method --r --t --q --seed",
        "forecast": "--data --model --k --K --d --h --holdout --refit --metric --period "
                    "--include-zero --demean --no-demean --threads",
        "order": "--data --coords --strategy --d --K --Cn --include-zero --demean "
                 "--no-demean --threads",
        "bench": "--table --reps --p --k0 --n --K --q --seed --threads",
    }

    def test_each_command_keeps_its_flags(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert set(commands) == set(self.FLAGS)
        for name, flags in self.FLAGS.items():
            want = set(flags.split()) | {"-h", "--help", "--out"}
            assert set(commands[name]._option_string_actions) == want, name

    # (takes --seed, takes --threads): a command takes an option only if it uses it
    OPTIONS = {
        "simulate": (True, False),
        "fit": (False, True),
        "select": (False, True),
        "autocov": (True, False),
        "forecast": (False, True),
        "order": (False, True),
        "bench": (True, True),
    }

    def test_each_command_takes_only_the_options_it_uses(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(self.OPTIONS)
        for name, (seed, threads) in self.OPTIONS.items():
            flags = commands[name]._option_string_actions
            assert ("--seed" in flags, "--threads" in flags) == (seed, threads), name


BAD = ("", "x", "-1", "1.5", "nan")


def values(*good):
    """Drawn values: each good one three times as likely as each awkward one."""
    return good * 3 + BAD


INTS, SMALL = values("0", "1", "2", "3"), values("1", "2", "3")
FLOATS = values("0", "0.01", "0.5", "2", "inf", "1e308")
THREADS = values("0", "1", "2", "4")  # never more than 4 worker threads
DATA = ("{data}", "{data}", "{data}", "{missing}", "{malformed}")
SWITCH = (None,)  # an option that takes no value

# per command, each option and the values drawn for it; ALWAYS options are
# given in every draw, so that a run stays small whatever else is drawn
OPTIONS = {
    "simulate": {
        "--setting": ("uniform", "mixture", "other"), "--sigma-eps": ("identity", "structured"),
        "--target-norm": FLOATS, "--burn-in": INTS, "--seed": INTS,
    },
    "fit": {"--d": SMALL, "--no-demean": SWITCH, "--threads": THREADS},
    "select": {
        "--d": SMALL, "--K": SMALL, "--Cn": ("loglog", *FLOATS), "--L": SMALL,
        "--joint": SWITCH, "--penalty-multiplier": FLOATS, "--include-zero": SWITCH,
        "--no-demean": SWITCH, "--threads": THREADS,
    },
    "autocov": {
        "--lag": values("0", "1", "39", "40"), "--r": INTS, "--t": FLOATS, "--seed": INTS,
        "--method": ("sample", "banded", "thresholded", "x"),
    },
    "forecast": {
        "--model": ("{model}", "{model}", "{missing}", "{data}"), "--k": INTS, "--K": SMALL,
        "--d": SMALL, "--h": SMALL, "--holdout": values("1", "5", "39", "40"),
        "--refit": SWITCH, "--metric": ("absolute", "squared"), "--period": values("1", "4", "50"),
        "--include-zero": SWITCH, "--no-demean": SWITCH, "--demean": SWITCH,
        "--threads": THREADS,
    },
    "order": {
        "--strategy": ("ns", "we,nwse,swne", "anchor:3", "", ",", "anchor:9", "anchor:x", "x"),
        "--d": SMALL, "--K": SMALL, "--Cn": ("loglog", *FLOATS), "--include-zero": SWITCH,
        "--no-demean": SWITCH, "--threads": THREADS,
    },
    "bench": {
        "--k0": values("0", "1", "1,2"), "--K": SMALL, "--q": values("1", "2"), "--seed": INTS,
        "--threads": THREADS,
    },
}
ALWAYS = {
    "simulate": {"--p": values("7", "4", "1"), "--n": values("30", "3", "1"), "--k0": INTS},
    "fit": {"--data": DATA, "--k": INTS},
    "select": {"--data": DATA},
    "autocov": {"--data": DATA, "--q": values("1", "3")},
    "forecast": {"--data": DATA},
    "order": {"--data": DATA, "--coords": ("{coords}", "{coords}", "{missing}", "{data}")},
    "bench": {
        "--table": ("t4", "t1", "t2", "t3", "t7", "t9"), "--p": values("16", "7", "5,7", ","),
        "--n": values("40", "5"), "--reps": values("1", "2"),
    },
}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    out = simulate_panel(tmp, p=4, n=40, k0=1, seed=21)
    assert run("fit", "--data", f"{out}.csv", "--k", 1, "--out", tmp / "fit") == 0
    (tmp / "coords.csv").write_text("label,x,y\ny1,0,1\ny2,1,1\ny3,2,0\ny4,3,2\n")
    (tmp / "bad.csv").write_text("y1,y2\n1,2\n3\n")
    return {
        "data": f"{out}.csv", "model": tmp / "fit.model.json", "coords": tmp / "coords.csv",
        "malformed": tmp / "bad.csv", "missing": tmp / "none.csv", "out": tmp / "out",
        "out_in_missing_dir": tmp / "none" / "out",
    }


class TestAnyArgv:
    """No argv ends in a traceback, whatever its values and files."""

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    @settings(max_examples=80)
    @given(draw=st.data())
    def test_main_returns_an_exit_code_and_raises_nothing(self, argv_files, command, draw):
        options = draw.draw(
            st.fixed_dictionaries(
                {flag: st.sampled_from(v) for flag, v in ALWAYS[command].items()},
                optional={flag: st.sampled_from(v) for flag, v in OPTIONS[command].items()},
            )
        )
        out = draw.draw(st.sampled_from(("{out}", "{out_in_missing_dir}")))
        argv = [command, "--out", out]
        for flag, value in options.items():
            argv += [flag] if value is None else [flag, value]
        assert main([a.format(**argv_files) for a in argv]) in (0, 1, 2)
