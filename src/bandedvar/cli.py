"""Command-line surface: simulation, fitting, selection, autocovariance,
forecasting, ordering comparison, and the Monte Carlo table runner.

Exit codes: 0 success, 1 usage or input-format problems, 2 numerical
failures (singular designs, non-convergence, non-stationary models). All
randomness flows from ``--seed`` through named substreams, and every command
rewrites identical output bytes when rerun with identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import __version__
from .autocov import estimate_autocov
from .bench import BENCH_TABLES
from .errors import (
    BandedVarError,
    ConvergenceError,
    DataFormatError,
    NonStationaryError,
    SingularDesignError,
)
from .estimation import fit_banded_var
from .forecast import FitSpec, _fit_window, predict, rolling_evaluation
from .io import (
    RunManifest,
    fmt,
    load_model_json,
    read_coords_csv,
    read_timeseries_csv,
    save_json,
    save_model_json,
    write_matrix_csv,
    write_timeseries_csv,
)
from .rng import substream
from .selection import (
    joint_bic_select,
    ordering_candidates,
    ordering_score,
    select_bandwidth,
    select_bandwidth_and_order,
)
from .simulate import SimConfig, run_simulation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v]


def _cn_value(text: str):
    if text == "loglog":
        return None  # module default, log log n
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'loglog' or a number, got {text!r}")


def _write_rows_csv(path, rows):
    columns = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    fmt(v) if isinstance(v, float) else v
                    for v in (row[c] for c in columns)
                ]
            )


def _manifest(args, outputs):
    config = {
        k: v for k, v in vars(args).items() if k != "func" and not callable(v)
    }
    return RunManifest(
        command=[args.command] if hasattr(args, "command") else [],
        config=config,
        seed=getattr(args, "seed", None),
        outputs=outputs,
        version=__version__,
    )


def cmd_simulate(args) -> int:
    config = SimConfig(
        p=args.p,
        n=args.n,
        k0=args.k0,
        seed=args.seed,
        setting=args.setting,
        sigma_eps_kind="structured_bbt" if args.sigma_eps == "structured" else "identity",
        target_norm=args.target_norm,
        burn_in=args.burn_in,
    )
    model, ts = run_simulation(config)
    data_path = f"{args.out}.csv"
    truth_path = f"{args.out}.model.json"
    write_timeseries_csv(data_path, ts)
    save_model_json(truth_path, model)
    _manifest(args, [data_path, truth_path]).write(f"{args.out}.manifest.json")
    print(f"wrote {ts.n} x {ts.p} series to {data_path} (truth in {truth_path})")
    return 0


def cmd_fit(args) -> int:
    ts = read_timeseries_csv(args.data)
    report = fit_banded_var(ts, args.k, d=args.d, demean=args.demean, threads=args.threads)
    model_path = f"{args.out}.model.json"
    fit_path = f"{args.out}.fit.json"
    save_model_json(model_path, report.model, means=report.means)
    save_json(fit_path, report.to_dict())
    _manifest(args, [model_path, fit_path]).write(f"{args.out}.manifest.json")
    print(f"fitted bandwidth {args.k}, order {args.d}; model in {model_path}")
    return 0


def cmd_select(args) -> int:
    ts = read_timeseries_csv(args.data)
    if args.demean:
        ts = ts.demeaned()[0]
    outputs = []
    if args.joint:
        k = joint_bic_select(
            ts, d=args.d, K=args.K, cn=args.cn, include_zero=args.include_zero,
            threads=args.threads,
        )
        print(f"k_tilde = {k}")
        save_json(f"{args.out}.selection.json", {"k_tilde": k})
        outputs.append(f"{args.out}.selection.json")
    else:
        if args.L is not None:
            trace = select_bandwidth_and_order(
                ts, K=args.K, L=args.L, cn=args.cn,
                include_zero=args.include_zero, threads=args.threads,
            )
            print(f"k_hat = {trace.k_hat}")
            print(f"d_hat = {trace.d_hat}")
        else:
            trace = select_bandwidth(
                ts, d=args.d, K=args.K, cn=args.cn,
                include_zero=args.include_zero,
                penalty_multiplier=args.penalty_multiplier, threads=args.threads,
            )
            print(f"k_hat = {trace.k_hat}")
        trace_path = f"{args.out}.trace.json"
        save_json(trace_path, trace.to_dict())
        rows = [
            {"row": i, "k_argmin": int(trace.argmin_per_row[i])}
            for i in range(ts.p)
        ]
        if trace.d_argmin_per_row is not None:
            for i, row in enumerate(rows):
                row["d_argmin"] = int(trace.d_argmin_per_row[i])
        argmin_path = f"{args.out}.argmin.csv"
        _write_rows_csv(argmin_path, rows)
        outputs += [trace_path, argmin_path]
    _manifest(args, outputs).write(f"{args.out}.manifest.json")
    return 0


def cmd_autocov(args) -> int:
    ts = read_timeseries_csv(args.data)
    est = estimate_autocov(
        ts,
        j=args.lag,
        method=args.method,
        r=args.r,
        t=args.t,
        q=args.q,
        rng=substream(args.seed, "bootstrap"),
    )
    matrix_path = f"{args.out}.csv"
    meta_path = f"{args.out}.meta.json"
    write_matrix_csv(matrix_path, est.matrix)
    save_json(meta_path, est.meta_dict())
    _manifest(args, [matrix_path, meta_path]).write(f"{args.out}.manifest.json")
    print(f"{est.method} lag-{est.j} estimate in {matrix_path} (tuning {est.tuning})")
    return 0


def cmd_forecast(args) -> int:
    ts = read_timeseries_csv(args.data)
    model = means = None
    if args.model:
        model, means = load_model_json(args.model)
    spec = FitSpec(
        d=args.d,
        k=args.k,
        K=args.K,
        include_zero=args.include_zero,
        demean=args.demean,
        period=args.period,
    )
    outputs = []
    if args.holdout:
        report = rolling_evaluation(
            ts,
            fit_spec=spec,
            holdout=args.holdout,
            h_max=args.h,
            refit=args.refit,
            metric=args.metric,
            model=model,
            model_means=means,
            threads=args.threads,
        )
        rows = [
            {
                "horizon": h,
                "target": int(t),
                "series": i,
                "error": float(report.errors[h][i, c]),
            }
            for h in range(1, args.h + 1)
            for c, t in enumerate(report.targets)
            for i in range(ts.p)
        ]
        errors_path = f"{args.out}.errors.csv"
        summary_path = f"{args.out}.summary.json"
        _write_rows_csv(errors_path, rows)
        save_json(summary_path, report.to_dict())
        outputs += [errors_path, summary_path]
        for h in range(1, args.h + 1):
            mean, sd = report.summary[h]
            print(f"{h}-step {args.metric} error: {mean:.6g} ({sd:.6g})")
    else:
        if model is None:
            model, _, means, _ = _fit_window(ts, spec, args.threads)
        preds = predict(model, ts, h=args.h, mean=means)
        pred_path = f"{args.out}.predictions.csv"
        write_matrix_csv(pred_path, preds.T, labels=ts.labels)
        outputs.append(pred_path)
        print(f"wrote {args.h}-step predictions to {pred_path}")
    _manifest(args, outputs).write(f"{args.out}.manifest.json")
    return 0


def cmd_order(args) -> int:
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
    _manifest(args, [table_path]).write(f"{args.out}.manifest.json")
    return 0


def cmd_bench(args) -> int:
    fn = BENCH_TABLES[args.table]
    kwargs = dict(n=args.n, reps=args.reps, seed=args.seed, threads=args.threads)
    if args.table in ("t1", "t2", "t3"):
        rows = fn(args.p, args.k0, K=args.K, **kwargs)
    elif args.table == "t4":
        rows = fn(args.p, q=args.q, k0=args.k0[0] if args.k0 else 3, **kwargs)
    else:  # t7
        rows = fn(args.p, k0=args.k0[0] if args.k0 else 2, K=args.K, **kwargs)
    table_path = f"{args.out}.csv"
    _write_rows_csv(table_path, rows)
    _manifest(args, [table_path]).write(f"{args.out}.manifest.json")
    print(f"wrote {len(rows)} rows to {table_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bandedvar", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, threads=True):
        if threads:
            p.add_argument("--threads", type=int, default=1, help="worker thread cap")
        p.add_argument("--out", default=None, help="output path prefix")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("simulate", help="draw a banded VAR model and simulate a path")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--setting", choices=("uniform", "mixture"), default="uniform")
    p.add_argument("--sigma-eps", choices=("identity", "structured"), default="identity")
    p.add_argument("--target-norm", type=float, default=None)
    p.add_argument("--burn-in", type=int, default=500)
    common(p, seed=True, threads=False)
    p.set_defaults(func=cmd_simulate, out_default="sim")

    p = sub.add_parser("fit", help="row-wise least squares at a fixed bandwidth")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    common(p)
    p.set_defaults(func=cmd_fit, out_default="fit")

    p = sub.add_parser("select", help="bandwidth (and order) selection")
    p.add_argument("--data", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--Cn", dest="cn", type=_cn_value, default=None,
                   help="'loglog' (default) or a numeric constant")
    # each of these picks a different criterion, so at most one applies
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--L", type=int, default=None,
                      help="scan orders 1..L jointly with the bandwidth")
    mode.add_argument("--joint", action="store_true",
                      help="whole-model criterion instead of per-equation")
    mode.add_argument("--penalty-multiplier", type=float, default=1.0)
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=False)
    common(p)
    p.set_defaults(func=cmd_select, out_default="select")

    p = sub.add_parser("autocov", help="sample / banded / thresholded autocovariance")
    p.add_argument("--data", required=True)
    p.add_argument("--lag", type=int, default=0)
    p.add_argument("--method", choices=("sample", "banded", "thresholded"), default="banded")
    p.add_argument("--r", type=int, default=None, help="fixed banding half-width")
    p.add_argument("--t", type=float, default=None, help="fixed threshold")
    p.add_argument("--q", type=int, default=100, help="bootstrap replicates")
    common(p, seed=True, threads=False)
    p.set_defaults(func=cmd_autocov, out_default="autocov")

    p = sub.add_parser("forecast", help="multi-step prediction / post-sample scoring")
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None, help="reuse a fitted model document")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--h", type=int, default=2, help="forecast horizon")
    p.add_argument("--holdout", type=int, default=None,
                   help="score the last N observations instead of predicting ahead")
    p.add_argument("--refit", action="store_true")
    p.add_argument("--metric", choices=("absolute", "squared"), default="absolute")
    p.add_argument("--period", type=int, default=None, help="seasonal cycle length")
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    common(p)
    p.set_defaults(func=cmd_forecast, out_default="forecast")

    p = sub.add_parser("order", help="compare series orderings by total criterion")
    p.add_argument("--data", required=True)
    p.add_argument("--coords", required=True, help="CSV of label,x,y rows")
    p.add_argument("--strategy", default="ns,we,nwse,swne")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--Cn", dest="cn", type=_cn_value, default=None)
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    common(p)
    p.set_defaults(func=cmd_order, out_default="order")

    p = sub.add_parser("bench", help="rerun a benchmark table at chosen scale")
    p.add_argument("--table", choices=sorted(BENCH_TABLES), required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--p", type=_int_list, default=[100])
    p.add_argument("--k0", type=_int_list, default=[1])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--K", type=int, default=15)
    p.add_argument("--q", type=int, default=100)
    common(p, seed=True)
    p.set_defaults(func=cmd_bench, out_default="bench")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.out is None:
        args.out = args.out_default
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"bandedvar: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bandedvar: {exc}", file=sys.stderr)
        return 1
    except (SingularDesignError, ConvergenceError, NonStationaryError) as exc:
        print(f"bandedvar: {exc}", file=sys.stderr)
        return 2
    except BandedVarError as exc:
        print(f"bandedvar: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
