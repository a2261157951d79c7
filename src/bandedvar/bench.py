"""Monte Carlo experiments over the synthetic designs.

Each experiment draws a fresh ground-truth model and path per replication
from named substreams of one master seed, so results are reproducible and
independent of how replications are scheduled across workers. Cell functions
return plain dicts; the ``table*_rows`` wrappers arrange them like the
benchmark tables for CSV export.
"""

from __future__ import annotations

import numpy as np

from .autocov import estimate_autocov, sample_autocov
from .estimation import _parallel_map, fit_banded_var
from .forecast import predict
from .linalg import BandedMatrix, frobenius_norm, l1_norm, spectral_norm
from .model import theoretical_autocov_var1
from .rng import substream
from .selection import (
    joint_bic_from_surface,
    rss_surface,
    select_bandwidth_from_surface,
)
from .simulate import _draw_model, gen_sigma_eps_structured, simulate_var

__all__ = [
    "selection_frequency_cell",
    "estimation_error_cell",
    "frobenius_trend_cell",
    "autocov_error_cell",
    "ordering_prediction_cell",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table7_rows",
    "BENCH_TABLES",
]


def _draw_and_simulate(setting, p, k0, n, seed, rep, sigma=None, target_norm=None):
    model = _draw_model(setting, p, k0, substream(seed, "coeffs", rep), target_norm, sigma)
    ts = simulate_var(model, n, rng=substream(seed, "innovations", rep))
    return model, ts


def _band_difference(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """a - b in band storage at half-width max(a.k, b.k), entries bitwise the dense ones."""
    w = max(a.k, b.k)
    diag = lambda m, o: m.diagonals[o + m.k] if abs(o) <= m.k else 0.0
    return BandedMatrix(a.p, w, [diag(a, o) - diag(b, o) for o in range(-w, w + 1)])


def _mean_sd(values) -> tuple:
    """Mean and sample standard deviation over replications (sd 0 for one)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) if values.size > 1 else 0.0


def _freq(picks, k0) -> dict:
    picks = np.asarray(picks)
    total = picks.size
    return {
        "equal": 100.0 * float((picks == k0).sum()) / total,
        "over": 100.0 * float((picks > k0).sum()) / total,
        "under": 100.0 * float((picks < k0).sum()) / total,
    }


def selection_frequency_cell(
    setting: str,
    p: int,
    k0: int,
    n: int = 200,
    reps: int = 100,
    K: int = 15,
    seed: int = 0,
    with_joint: bool = True,
    threads: int = 1,
) -> dict:
    """How often the per-equation and whole-model selectors recover k0.

    Both selectors see the same replications (shared RSS surfaces), so their
    frequencies are directly comparable.
    """

    def job(rep):
        _, ts = _draw_and_simulate(setting, p, k0, n, seed, rep)
        surface = rss_surface(ts, d=1, K=K)
        k_marginal = select_bandwidth_from_surface(surface).k_hat
        k_joint = joint_bic_from_surface(surface)[0] if with_joint else None
        return k_marginal, k_joint

    picks = _parallel_map(job, range(reps), threads)
    out = {"marginal": _freq([k for k, _ in picks], k0)}
    if with_joint:
        out["joint"] = _freq([kj for _, kj in picks], k0)
    return out


def estimation_error_cell(
    setting: str,
    p: int,
    k0: int,
    n: int = 200,
    reps: int = 100,
    K: int = 15,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """Coefficient-matrix errors with a selected bandwidth vs the true one."""

    def job(rep):
        model, ts = _draw_and_simulate(setting, p, k0, n, seed, rep)
        truth = model.coeffs[0]
        k_hat = select_bandwidth_from_surface(rss_surface(ts, d=1, K=K)).k_hat

        def errors(k):
            err = _band_difference(fit_banded_var(ts, k).model.coeffs[0], truth)
            return l1_norm(err), spectral_norm(err)

        oracle = errors(k0)
        # at k_hat == k0 the estimated and oracle fits are the same computation
        return (*(oracle if k_hat == k0 else errors(k_hat)), *oracle, k_hat)

    rows = np.array(_parallel_map(job, range(reps), threads))
    out = {}
    for c, name in enumerate(("estimated_l1", "estimated_l2", "true_l1", "true_l2")):
        mean, sd = _mean_sd(rows[:, c])
        out[name] = {"mean": mean, "sd": sd}
    out["k_hat_mean"] = float(rows[:, 4].mean())
    return out


def frobenius_trend_cell(
    setting: str,
    p: int,
    k0: int,
    ns=(200, 800),
    reps: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """Frobenius error of the true-bandwidth fit at several sample sizes.

    Each replication keeps one coefficient draw across all sample sizes, so
    the error ratios isolate the effect of n.
    """

    def job(rep):
        model = _draw_model(setting, p, k0, substream(seed, "coeffs", rep))
        errs = []
        for n in ns:
            ts = simulate_var(model, n, rng=substream(seed, "innovations", rep, n))
            err = _band_difference(fit_banded_var(ts, k0).model.coeffs[0], model.coeffs[0])
            errs.append(frobenius_norm(err._packed))  # the band's zero padding adds nothing
        return errs

    rows = np.array(_parallel_map(job, range(reps), threads))
    return {int(n): float(rows[:, c].mean()) for c, n in enumerate(ns)}


def autocov_error_cell(
    p: int,
    n: int = 200,
    reps: int = 100,
    q: int = 100,
    seed: int = 0,
    k0: int = 3,
    target_norm: float = 0.8,
    lags=(0, 1),
    threads: int = 1,
) -> dict:
    """Matrix L1 and spectral errors of banded, thresholded and raw sample
    autocovariance estimators against the model-implied truth."""

    def job(rep):
        sigma = gen_sigma_eps_structured(p)
        model, ts = _draw_and_simulate(
            "uniform", p, k0, n, seed, rep, sigma=sigma, target_norm=target_norm
        )
        out = {}
        for j in lags:
            truth = theoretical_autocov_var1(model, j)
            banded, thresh = (
                estimate_autocov(ts, j, method, q=q, rng=substream(seed, "bootstrap", rep, j, kind))
                for method, kind in (("banded", "band"), ("thresholded", "threshold"))
            )
            estimates = (banded.matrix, thresh.matrix, sample_autocov(ts, j))
            out[j] = {
                name: (l1_norm(est - truth), spectral_norm(est - truth))
                for name, est in zip(("banding", "thresholding", "sample"), estimates)
            }
            out[j]["r"], out[j]["t"] = banded.tuning["r"], thresh.tuning["t"]
        return out

    results = _parallel_map(job, range(reps), threads)
    cell = {}
    for j in lags:
        cell[j] = {}
        for method in ("banding", "thresholding", "sample"):
            stats = cell[j][method] = {}
            for c, norm in enumerate(("l1", "l2")):
                values = [res[j][method][c] for res in results]
                stats[f"{norm}_mean"], stats[f"{norm}_sd"] = _mean_sd(values)
        cell[j]["r_selected"] = [res[j]["r"] for res in results]
        cell[j]["t_selected"] = [res[j]["t"] for res in results]
    return cell


def _local_permutation(p: int, rng, group: int = 5) -> np.ndarray:
    perm = np.arange(p)
    for g in range(p // group):
        sl = slice(g * group, (g + 1) * group)
        perm[sl] = perm[sl][rng.permutation(group)]
    return perm


def ordering_prediction_cell(
    p: int,
    n: int = 200,
    reps: int = 20,
    seed: int = 0,
    k0: int = 2,
    K: int = 15,
    threads: int = 1,
) -> dict:
    """Criterion scores, selected bandwidths and post-sample errors when the
    series order is true, locally shuffled, or fully random.

    Each replication simulates n + 2 observations; the last two are scored by
    one-step and two-step predictions from the end of the training window.
    Selection runs with the bandwidth-0 candidate enabled, since shuffled
    orderings often leave no usable neighbourhood structure.
    """

    def job(rep):
        model, full = _draw_and_simulate("uniform", p, k0, n + 2, seed, rep)
        orderings = [
            ("true", np.arange(p)),
            ("local", _local_permutation(p, substream(seed, "perm", rep, 0))),
            ("random1", substream(seed, "perm", rep, 1).permutation(p)),
            ("random2", substream(seed, "perm", rep, 2).permutation(p)),
        ]
        out = {}
        for name, perm in orderings:
            series = full.permuted(perm)
            train = series.window(0, n)
            surface = rss_surface(train, d=1, K=K, include_zero=True)
            trace = select_bandwidth_from_surface(surface)
            fit = fit_banded_var(train, trace.k_hat)
            pred = predict(fit.model, train, h=2)
            err1 = float(np.abs(pred[:, 0] - series.values[:, n]).mean())
            err2 = float(np.abs(pred[:, 1] - series.values[:, n + 1]).mean())
            out[name] = (trace.total_bic(), trace.k_hat, err1, err2)
        return out

    results = _parallel_map(job, range(reps), threads)
    cell = {}
    for name in ("true", "local", "random1", "random2"):
        arr = np.array([res[name] for res in results])
        stats = cell[name] = {}
        for c, stat in enumerate(("bic", "k", "one_step", "two_step")):
            stats[f"{stat}_mean"], stats[f"{stat}_sd"] = _mean_sd(arr[:, c])
    return cell


def _selection_rows(key, ps, k0s, n, reps, K, seed, threads):
    """Recovery frequencies of the ``key`` selector ("marginal" or "joint")
    over a p x k0 grid, uniform (i) and mixture (ii) settings side by side."""
    rows = []
    for p in ps:
        for k0 in k0s:
            row = {"p": p, "k0": k0}
            for tag, setting in (("i", "uniform"), ("ii", "mixture")):
                cell = selection_frequency_cell(
                    setting, p, k0, n=n, reps=reps, K=K, seed=seed,
                    with_joint=key == "joint", threads=threads,
                )[key]
                row.update({f"{tag}_{name}": cell[name] for name in ("equal", "over", "under")})
            rows.append(row)
    return rows


def table1_rows(ps, k0s, n=200, reps=100, K=15, seed=0, threads=1):
    return _selection_rows("marginal", ps, k0s, n, reps, K, seed, threads)


def table2_rows(ps, k0s, n=200, reps=100, K=15, seed=0, threads=1):
    return _selection_rows("joint", ps, k0s, n, reps, K, seed, threads)


def table3_rows(ps, k0s, n=200, reps=100, K=15, seed=0, threads=1):
    rows = []
    for p in ps:
        for k0 in k0s:
            cell = estimation_error_cell(
                "uniform", p, k0, n=n, reps=reps, K=K, seed=seed, threads=threads
            )
            row = {"p": p, "k0": k0}
            for name in ("estimated_l1", "estimated_l2", "true_l1", "true_l2"):
                row[f"{name}_mean"], row[f"{name}_sd"] = cell[name]["mean"], cell[name]["sd"]
            rows.append(row)
    return rows


def table4_rows(ps, k0s, n=200, reps=100, q=100, seed=0, target_norm=0.8, threads=1):
    rows = []
    for p in ps:
        for k0 in k0s:
            cell = autocov_error_cell(
                p, n=n, reps=reps, q=q, seed=seed, k0=k0, target_norm=target_norm,
                threads=threads,
            )
            for j in sorted(k for k in cell if isinstance(k, int)):
                for norm in ("l1", "l2"):
                    row = {"p": p, "k0": k0, "lag": j, "norm": norm}
                    for method in ("banding", "thresholding", "sample"):
                        for stat in ("mean", "sd"):
                            row[f"{method}_{stat}"] = cell[j][method][f"{norm}_{stat}"]
                    rows.append(row)
    return rows


def table7_rows(ps, k0s, n=200, reps=20, K=15, seed=0, threads=1):
    rows = []
    for p in ps:
        for k0 in k0s:
            cell = ordering_prediction_cell(
                p, n=n, reps=reps, seed=seed, k0=k0, K=K, threads=threads
            )
            for name in ("true", "local", "random1", "random2"):
                rows.append({"p": p, "k0": k0, "ordering": name, **cell[name]})
    return rows


BENCH_TABLES = {
    "t1": table1_rows,
    "t2": table2_rows,
    "t3": table3_rows,
    "t4": table4_rows,
    "t7": table7_rows,
}
