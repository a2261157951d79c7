"""Command-line surface: simulation, fitting, selection, autocovariance,
forecasting, ordering comparison, and the Monte Carlo table runner.

Exit codes: 0 success, 1 usage, input-format or file-access problems, 2
numerical failures (singular designs, non-convergence, non-stationary
models). All randomness flows from ``--seed`` through named substreams, and
every command rewrites identical output bytes when rerun with identical flags
and seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from numpy.linalg import LinAlgError

from . import __version__
from .autocov import estimate_autocov
from .bench import BENCH_TABLES
from .errors import BandedVarError, DataFormatError
from .estimation import fit_banded_var
from .forecast import FitSpec, _fit_window, predict, rolling_evaluation
from .io import (
    RunManifest, fmt, load_model_json, read_coords_csv, read_timeseries_csv, save_json,
    save_model_json, write_matrix_csv, write_timeseries_csv,
)
from .rng import substream
from .selection import (
    joint_bic_select, ordering_candidates, ordering_score, select_bandwidth,
    select_bandwidth_and_order,
)
from .simulate import SimConfig, run_simulation

# The --threads cap. It is a constant, so the accepted argv do not depend on the host.
MAX_THREADS = 32

# (command, option, the option's values that fire the rule, or None for any
# value other than its default; the options it makes do nothing; why). While
# a rule fires, each of those options must keep its default.
RULES = (
    ("select", "--L", None, ("--d",), "--L scans orders 1..L"),
    ("autocov", "--method", ("sample", "thresholded"), ("--r",), "--r is the banding half-width"),
    ("autocov", "--method", ("sample", "banded"), ("--t",), "--t is the threshold"),
    ("forecast", "--model", None,
     ("--k", "--K", "--period", "--refit", "--include-zero", "--demean", "--d"),
     "the model is already fitted"),
    ("bench", "--table", ("t4",), ("--K",), "table 4 selects no bandwidth"),
    ("bench", "--table", ("t1", "t2", "t3", "t7"), ("--q",), "only table 4 runs a bootstrap"),
)

# the k0 values each bench table runs when --k0 is not given
BENCH_K0 = {"t1": [1], "t2": [1], "t3": [1], "t4": [3], "t7": [2]}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        _check_rules(self, args)
        return args, extras


def _check_rules(parser, args) -> None:
    """Reject an option that a rule in ``RULES`` makes do nothing, judged
    against the command's defaults before any file is read."""
    actions = parser._option_string_actions
    for command, option, values, dead, why in RULES:
        if parser.prog != f"bandedvar {command}":
            continue
        value = getattr(args, actions[option].dest)
        fires = value != actions[option].default if values is None else value in values
        for flag in dead if fires else ():
            action = actions[flag]
            if getattr(args, action.dest) != action.default:
                given = option if values is None else f"{option} {value}"
                flags = "/".join(action.option_strings)
                parser.error(f"{flags} cannot be combined with {given}: {why}")


def _int_in(low, high=math.inf):
    """An argparse type: an integer in [low, high]."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            bound = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {value}")
        return value

    return parse


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _list_of(item):
    """An argparse type: comma-separated ``item`` values, none of them empty."""
    return lambda text: [item(v) for v in text.split(",")]


def _cn_value(text: str):
    return None if text == "loglog" else _finite(text)  # None: the default, log log n


COUNT, INDEX = _int_in(1), _int_in(0)

# options that several commands take, declared once
SHARED = {
    "--data": dict(required=True, help="series CSV"),
    "--d": dict(type=COUNT, default=1, help="VAR order"),
    "--K": dict(type=COUNT, default=None, help="largest bandwidth searched"),
    "--Cn": dict(dest="cn", type=_cn_value, default=None,
                 help="'loglog' (default) or a numeric constant"),
    "--include-zero": dict(action="store_true", help="also try bandwidth 0"),
    "--demean": dict(action=argparse.BooleanOptionalAction, default=True),
    "--threads": dict(type=_int_in(1, MAX_THREADS), default=1,
                      help=f"worker thread cap, at most {MAX_THREADS}"),
    "--seed": dict(type=INDEX, default=0, help="master seed"),
    "--q": dict(type=COUNT, default=100, help="bootstrap replicates"),
}
SEARCH = ("--data", "--d", "--K", "--include-zero", "--demean", "--threads")


def _write_rows_csv(path, rows):
    """Rows of one dict each, all with the keys of the first, in that order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([fmt(v) if isinstance(v, float) else v for v in r.values()] for r in rows)


def cmd_simulate(args) -> list:
    model, ts = run_simulation(SimConfig(
        p=args.p, n=args.n, k0=args.k0, seed=args.seed, setting=args.setting,
        sigma_eps_kind="structured_bbt" if args.sigma_eps == "structured" else "identity",
        target_norm=args.target_norm, burn_in=args.burn_in,
    ))
    data_path = f"{args.out}.csv"
    truth_path = f"{args.out}.model.json"
    write_timeseries_csv(data_path, ts)
    save_model_json(truth_path, model)
    print(f"wrote {ts.n} x {ts.p} series to {data_path} (truth in {truth_path})")
    return [data_path, truth_path]


def cmd_fit(args) -> list:
    ts = read_timeseries_csv(args.data)
    report = fit_banded_var(ts, args.k, d=args.d, demean=args.demean, threads=args.threads)
    model_path = f"{args.out}.model.json"
    fit_path = f"{args.out}.fit.json"
    save_model_json(model_path, report.model, means=report.means)
    save_json(fit_path, report.to_dict())
    print(f"fitted bandwidth {args.k}, order {args.d}; model in {model_path}")
    return [model_path, fit_path]


def cmd_select(args) -> list:
    ts = read_timeseries_csv(args.data)
    if args.demean:
        ts = ts.demeaned()[0]
    options = dict(K=args.K, cn=args.cn, include_zero=args.include_zero, threads=args.threads)
    if args.joint:
        k = joint_bic_select(ts, d=args.d, **options)
        print(f"k_tilde = {k}")
        save_json(f"{args.out}.selection.json", {"k_tilde": k})
        return [f"{args.out}.selection.json"]
    if args.L is not None:
        trace = select_bandwidth_and_order(ts, L=args.L, **options)
        print(f"k_hat = {trace.k_hat}")
        print(f"d_hat = {trace.d_hat}")
    else:
        trace = select_bandwidth(
            ts, d=args.d, penalty_multiplier=args.penalty_multiplier, **options
        )
        print(f"k_hat = {trace.k_hat}")
    trace_path = f"{args.out}.trace.json"
    save_json(trace_path, trace.to_dict())
    rows = [{"row": i, "k_argmin": int(k)} for i, k in enumerate(trace.argmin_per_row)]
    if trace.d_argmin_per_row is not None:
        for row, d in zip(rows, trace.d_argmin_per_row):
            row["d_argmin"] = int(d)
    argmin_path = f"{args.out}.argmin.csv"
    _write_rows_csv(argmin_path, rows)
    return [trace_path, argmin_path]


def cmd_autocov(args) -> list:
    ts = read_timeseries_csv(args.data)
    est = estimate_autocov(
        ts, j=args.lag, method=args.method, r=args.r, t=args.t, q=args.q,
        rng=substream(args.seed, "bootstrap"),
    )
    matrix_path = f"{args.out}.csv"
    meta_path = f"{args.out}.meta.json"
    write_matrix_csv(matrix_path, est.matrix)
    save_json(meta_path, est.meta_dict())
    print(f"{est.method} lag-{est.j} estimate in {matrix_path} (tuning {est.tuning})")
    return [matrix_path, meta_path]


def cmd_forecast(args) -> list:
    ts = read_timeseries_csv(args.data)
    model = means = None
    if args.model is not None:
        model, means = load_model_json(args.model)
    spec = FitSpec(
        d=args.d, k=args.k, K=args.K, include_zero=args.include_zero, demean=args.demean,
        period=args.period,
    )
    if args.holdout is None:
        if model is None:
            model, _, means = _fit_window(ts, spec, args.threads)
        preds = predict(model, ts, h=args.h, mean=means)
        pred_path = f"{args.out}.predictions.csv"
        write_matrix_csv(pred_path, preds.T, labels=ts.labels)
        print(f"wrote {args.h}-step predictions to {pred_path}")
        return [pred_path]
    report = rolling_evaluation(
        ts, fit_spec=spec, holdout=args.holdout, h_max=args.h, refit=args.refit,
        metric=args.metric, model=model, model_means=means, threads=args.threads,
    )
    rows = [
        {"horizon": h, "target": int(t), "series": i, "error": float(report.errors[h][i, c])}
        for h in range(1, args.h + 1)
        for c, t in enumerate(report.targets)
        for i in range(ts.p)
    ]
    errors_path = f"{args.out}.errors.csv"
    summary_path = f"{args.out}.summary.json"
    _write_rows_csv(errors_path, rows)
    save_json(summary_path, report.to_dict())
    for h in range(1, args.h + 1):
        mean, sd = report.summary[h]
        print(f"{h}-step {args.metric} error: {mean:.6g} ({sd:.6g})")
    return [errors_path, summary_path]


def cmd_order(args) -> list:
    ts = read_timeseries_csv(args.data)
    labels, coords = read_coords_csv(args.coords)
    if ts.labels and set(labels) == set(ts.labels):
        index = {lbl: i for i, lbl in enumerate(labels)}
        coords = coords[[index[lbl] for lbl in ts.labels]]
    elif coords.shape[0] != ts.p:
        raise DataFormatError(
            f"{args.coords}: {coords.shape[0]} coordinate rows for {ts.p} series"
        )
    if args.demean:
        ts = ts.demeaned()[0]
    rows = []
    for name, perm in ordering_candidates(coords, args.strategy.split(",")):
        score = ordering_score(
            ts, perm, d=args.d, K=args.K, cn=args.cn,
            include_zero=args.include_zero, threads=args.threads,
        )
        rows.append(
            {"ordering": name, "k_hat": int(score.k_hat), "total_bic": float(score.score)}
        )
        print(f"{name}: k_hat = {score.k_hat}, total criterion = {score.score:.6g}")
    table_path = f"{args.out}.csv"
    _write_rows_csv(table_path, rows)
    return [table_path]


def cmd_bench(args) -> list:
    if args.k0 is None:  # resolved here so the manifest records the design that ran
        args.k0 = BENCH_K0[args.table]
    options = {"q": args.q} if args.table == "t4" else {"K": args.K}
    rows = BENCH_TABLES[args.table](
        args.p, args.k0, n=args.n, reps=args.reps, seed=args.seed, threads=args.threads,
        **options,
    )
    table_path = f"{args.out}.csv"
    _write_rows_csv(table_path, rows)
    print(f"wrote {len(rows)} rows to {table_path}")
    return [table_path]


def build_parser() -> _Parser:
    parser = _Parser(prog="bandedvar", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, shared, out=None):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **SHARED[flag])
        p.add_argument("--out", default=out or name, help="output path prefix")
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "draw a banded VAR model and simulate a path",
                ("--seed",), out="sim")
    p.add_argument("--p", type=COUNT, required=True)
    p.add_argument("--n", type=COUNT, required=True)
    p.add_argument("--k0", type=INDEX, required=True)
    p.add_argument("--setting", choices=("uniform", "mixture"), default="uniform")
    p.add_argument("--sigma-eps", choices=("identity", "structured"), default="identity")
    p.add_argument("--target-norm", type=_finite, default=None)
    p.add_argument("--burn-in", type=INDEX, default=500)

    p = command("fit", cmd_fit, "row-wise least squares at a fixed bandwidth",
                ("--data", "--d", "--demean", "--threads"))
    p.add_argument("--k", type=INDEX, required=True)

    p = command("select", cmd_select, "bandwidth (and order) selection", SEARCH + ("--Cn",))
    # each of these picks a different criterion, so at most one applies
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--L", type=COUNT, default=None,
                      help="scan orders 1..L jointly with the bandwidth")
    mode.add_argument("--joint", action="store_true",
                      help="whole-model criterion instead of per-equation")
    mode.add_argument("--penalty-multiplier", type=_finite, default=1.0)

    p = command("autocov", cmd_autocov, "sample / banded / thresholded autocovariance",
                ("--data", "--q", "--seed"))
    p.add_argument("--lag", type=INDEX, default=0)
    p.add_argument("--method", choices=("sample", "banded", "thresholded"), default="banded")
    p.add_argument("--r", type=INDEX, default=None, help="fixed banding half-width")
    p.add_argument("--t", type=_finite, default=None, help="fixed threshold")

    p = command("forecast", cmd_forecast, "multi-step prediction / post-sample scoring", SEARCH)
    p.add_argument("--model", default=None, help="reuse a fitted model document")
    p.add_argument("--k", type=INDEX, default=None)
    p.add_argument("--h", type=COUNT, default=2, help="forecast horizon")
    p.add_argument("--holdout", type=COUNT, default=None,
                   help="score the last N observations instead of predicting ahead")
    p.add_argument("--refit", action="store_true")
    p.add_argument("--metric", choices=("absolute", "squared"), default="absolute")
    p.add_argument("--period", type=COUNT, default=None, help="seasonal cycle length")

    p = command("order", cmd_order, "compare series orderings by total criterion",
                SEARCH + ("--Cn",))
    p.add_argument("--coords", required=True, help="CSV of label,x,y rows")
    p.add_argument("--strategy", default="ns,we,nwse,swne")

    p = command("bench", cmd_bench, "rerun a benchmark table at chosen scale",
                ("--q", "--seed", "--threads"))
    p.add_argument("--table", choices=sorted(BENCH_TABLES), required=True)
    p.add_argument("--reps", type=COUNT, default=100)
    p.add_argument("--p", type=_list_of(COUNT), default=[100])
    p.add_argument("--k0", type=_list_of(INDEX), default=None,
                   help="default: 1 for t1-t3, 3 for t4, 2 for t7")
    p.add_argument("--n", type=COUNT, default=200)
    p.add_argument("--K", type=COUNT, default=15)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors (exit 1), --help and --version (exit 0)
        return exc.code or 0
    try:
        outputs = args.func(args)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        RunManifest(
            command=[args.command], config=config, seed=getattr(args, "seed", None),
            outputs=outputs, version=__version__,
        ).write(f"{args.out}.manifest.json")
    except (OSError, ValueError, BandedVarError) as exc:
        print(f"bandedvar: {exc}", file=sys.stderr)
        numerical = isinstance(exc, (LinAlgError, BandedVarError))  # LinAlgError is a ValueError
        return 2 if numerical and not isinstance(exc, DataFormatError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
