"""Command-line behaviour: formats, exit codes, reproducibility."""

import csv
import json

import numpy as np
import pytest

from bandedvar import DataFormatError, TimeSeries, predict
from bandedvar.cli import build_parser, main
from bandedvar.io import (
    load_model_json,
    read_timeseries_csv,
    write_timeseries_csv,
)
from bandedvar.rng import substream


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

    def test_unknown_table_rejected(self, tmp_path):
        assert run("bench", "--table", "t9", "--out", tmp_path / "x") == 1


class TestCommonOptions:
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
