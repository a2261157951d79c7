"""Independent references for the benchmark's correctness checks.

Every check takes a task's outputs as plain data and returns a list of
failure messages (empty when the outputs are right). The references are
computed here with numpy alone, never with the library function under test,
so a check can be handed a deliberately perturbed copy of an output.

Tolerances come from what the unmodified library meets on every seed tried
(see README.md); they are not to be widened to make a change pass.
"""

from __future__ import annotations

import math

import numpy as np

# Largest gaps the unmodified library shows over 12 seeds are given beside
# each tolerance.
# |criterion - log(lstsq RSS) - penalty| on centred panels; seen 1.8e-15.
CRITERION_ATOL = 1e-11
# Fitted coefficients and RSS against numpy.linalg.lstsq (SVD); seen 5.9e-15.
FIT_RTOL = 1e-10
# predict against a dense recursion on the same coefficients; seen 0.
PREDICT_RTOL = 1e-12
# The library's sample autocovariance against the formula evaluated here; seen 0.
AUTOCOV_RTOL = 1e-12
# Bootstrap risk curve against the brute-force curve, relative to its scale.
RISK_RTOL = 1e-10
# Frequencies are percentages of whole replications.
PERCENT_ATOL = 1e-9


def sample_rows(p: int, K: int) -> list:
    """Fixed rows to check: both edges, where designs are truncated, and the interior."""
    rows = {0, 1, K // 2, K, p // 2, p - 1 - K, p - 1 - K // 2, p - 2, p - 1}
    return sorted(i for i in rows if 0 <= i < p)


def row_design(values: np.ndarray, i: int, k: int):
    """First-order regression of series i on its neighbours within k, at lag 1."""
    p, n = values.shape
    lo, hi = max(0, i - k), min(p - 1, i + k)
    return values[lo : hi + 1, : n - 1].T, values[i, 1:], lo


def lstsq_fit(x: np.ndarray, y: np.ndarray):
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    return beta, float(resid @ resid)


def criterion_row(values: np.ndarray, i: int, ks) -> np.ndarray:
    """log RSS + (1/n) tau C_n log(max(p, n)) with C_n = log log n, order 1."""
    p, n = values.shape
    scale = math.log(math.log(n)) * math.log(max(p, n)) / n
    out = []
    for k in ks:
        x, y, _ = row_design(values, i, k)
        out.append(math.log(lstsq_fit(x, y)[1]) + x.shape[1] * scale)
    return np.array(out)


def dense_from_diagonals(p: int, k: int, diagonals) -> np.ndarray:
    out = np.zeros((p, p))
    for m, diag in enumerate(diagonals):
        o = m - k
        idx = np.arange(p - abs(o))
        if o >= 0:
            out[idx, idx + o] = diag
        else:
            out[idx - o, idx] = diag
    return out


def _close(a, b, rtol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    scale = max(float(np.abs(b).max(initial=0.0)), np.finfo(float).tiny)
    return float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def check_pipeline(out) -> list:
    """Outputs of one pipeline task: CSV round trip, criterion, fit, forecasts."""
    fails = []
    written, back = out.series.values, out.read_back.values
    if written.shape != back.shape or written.tobytes() != back.tobytes():
        fails.append("csv: read-back values differ from the written series")
    values = back
    p, n = values.shape
    trace = out.trace
    ks = np.array(trace.ks)
    bic = np.asarray(trace.bic)
    if bic.shape != (p, len(ks)):
        return fails + [f"select: criterion shape {bic.shape}, expected {(p, len(ks))}"]
    rows = sample_rows(p, int(ks.max()))
    for i in rows:
        gap = float(np.abs(bic[i] - criterion_row(values, i, ks)).max())
        if not gap <= CRITERION_ATOL:
            fails.append(f"select: row {i} criterion off lstsq by {gap:.3e}")
    argmin = ks[np.argmin(bic, axis=1)]
    if not np.array_equal(np.asarray(trace.argmin_per_row), argmin):
        fails.append("select: argmin_per_row disagrees with the criterion array")
    if trace.k_hat != int(argmin.max()):
        fails.append(f"select: k_hat {trace.k_hat} is not the max argmin {int(argmin.max())}")

    k = trace.k_hat
    coeff = out.fit.model.coeffs[0]
    a = dense_from_diagonals(p, coeff.k, coeff.diagonals)
    if coeff.k != min(k, p - 1):
        fails.append(f"fit: bandwidth {coeff.k}, expected {k}")
    else:
        for i in rows:
            x, y, lo = row_design(values, i, k)
            beta, rss = lstsq_fit(x, y)
            if not _close(a[i, lo : lo + x.shape[1]], beta, FIT_RTOL):
                fails.append(f"fit: row {i} coefficients differ from lstsq")
            if not _close(out.fit.rss[i], rss, FIT_RTOL):
                fails.append(f"fit: row {i} RSS {out.fit.rss[i]!r} vs lstsq {rss!r}")

    state, ref = values[:, -1], []
    for _ in range(out.forecast.shape[1] if out.forecast.ndim == 2 else 0):
        state = a @ state
        ref.append(state)
    if not ref or not _close(out.forecast, np.column_stack(ref), PREDICT_RTOL):
        fails.append("predict: differs from the dense recursion")

    rolling = out.rolling
    if rolling.k_used is None or not 1 <= rolling.k_used <= int(ks.max()):
        fails.append(f"rolling: bandwidth {rolling.k_used} outside 1..{int(ks.max())}")
    for h in range(1, rolling.h_max + 1):
        err = rolling.errors.get(h)
        if err is None or err.shape != (p, len(rolling.targets)):
            fails.append(f"rolling: horizon {h} errors missing or misshapen")
        elif not (np.all(np.isfinite(err)) and np.all(err >= 0.0)):
            fails.append(f"rolling: horizon {h} errors not finite and non-negative")
    return fails


def check_frequency_rows(rows, ps, k0s, reps) -> list:
    fails = []
    if [(r.get("p"), r.get("k0")) for r in rows] != [(p, k0) for p in ps for k0 in k0s]:
        return ["table1: rows do not match the requested (p, k0) grid"]
    for row in rows:
        for tag in ("i", "ii"):
            freqs = [row.get(f"{tag}_{kind}") for kind in ("equal", "over", "under")]
            if not all(isinstance(f, float) and 0.0 <= f <= 100.0 for f in freqs):
                fails.append(f"table1: p={row['p']} {tag} frequencies {freqs} outside [0, 100]")
                continue
            if abs(sum(freqs) - 100.0) > PERCENT_ATOL:
                fails.append(f"table1: p={row['p']} {tag} frequencies sum to {sum(freqs)!r}")
            whole = [f * reps / 100.0 for f in freqs]
            if any(abs(w - round(w)) > PERCENT_ATOL for w in whole):
                fails.append(f"table1: p={row['p']} {tag} frequencies are not whole replications")
    return fails


ERROR_FIELDS = tuple(
    f"{which}_{norm}_{stat}"
    for which in ("estimated", "true")
    for norm in ("l1", "l2")
    for stat in ("mean", "sd")
)


def check_error_rows(rows, ps, k0s) -> list:
    fails = []
    if [(r.get("p"), r.get("k0")) for r in rows] != [(p, k0) for p in ps for k0 in k0s]:
        return ["table3: rows do not match the requested (p, k0) grid"]
    for row in rows:
        for name in ERROR_FIELDS:
            v = row.get(name)
            if not (isinstance(v, float) and math.isfinite(v) and v >= 0.0):
                fails.append(f"table3: p={row['p']} {name}={v!r} not finite and non-negative")
    return fails


def check_k_hat_mean(cell, K) -> list:
    v = cell.get("k_hat_mean")
    if not (isinstance(v, float) and 1.0 <= v <= K):
        return [f"table3 cell: k_hat_mean {v!r} outside [1, {K}]"]
    return []


def check_same_rows(name, one, two) -> list:
    if one != two:
        return [f"{name}: rows differ between threads=1 and threads=2"]
    return []


def check_montecarlo(out) -> list:
    req = out.request
    return check_frequency_rows(out.table1, req["ps"], req["k0s"], req["reps"]) + check_error_rows(
        out.table3, req["ps"], req["k0s"]
    )


def centred_autocov(values: np.ndarray, j: int) -> np.ndarray:
    n = values.shape[1]
    xc = values - values.mean(axis=1, keepdims=True)
    return (xc[:, : n - j] @ xc[:, j:].T) / n


def band_grid(n: int, p: int) -> np.ndarray:
    """Candidate half-widths 0..min(p - 1, 2 round(log(n / log p)) + 5)."""
    rule = max(0, int(math.floor(math.log(n / math.log(p)) + 0.5)))
    return np.arange(0, min(p - 1, 2 * rule + 5) + 1)


def threshold_grid(sample: np.ndarray, size: int = 21) -> np.ndarray:
    return np.linspace(0.0, float(np.abs(sample).max()), size)


def banded(h: np.ndarray, r: int) -> np.ndarray:
    idx = np.arange(h.shape[0])
    return np.where(np.abs(idx[:, None] - idx[None, :]) <= r, h, 0.0)


def thresholded(h: np.ndarray, t: float) -> np.ndarray:
    return np.where(np.abs(h) > t, h, 0.0)


def check_autocov(out, samples: dict) -> list:
    """Each estimate is the band/threshold of the library's sample
    autocovariance (``samples[j]``) at its recorded, on-grid tuning value,
    exactly."""
    fails = []
    values = out.series.values
    p, n = values.shape
    for (j, method), est in sorted(out.estimates.items()):
        tag = f"lag {j} {method}"
        sample = samples[j]
        if not _close(sample, centred_autocov(values, j), AUTOCOV_RTOL):
            fails.append(f"{tag}: sample autocovariance differs from the formula")
        if est.j != j or est.method != method or est.tuning.get("selected_by") != "bootstrap":
            fails.append(f"{tag}: estimate metadata {est.meta_dict()!r}")
            continue
        if method == "banded":
            r = est.tuning.get("r")
            if not (isinstance(r, int) and r in band_grid(n, p)):
                fails.append(f"{tag}: r={r!r} not on the grid")
                continue
            ref = banded(sample, r)
        else:
            t = est.tuning.get("t")
            if not (isinstance(t, float) and np.any(threshold_grid(sample) == t)):
                fails.append(f"{tag}: t={t!r} not on the grid")
                continue
            ref = thresholded(sample, t)
        if est.matrix.shape != ref.shape or est.matrix.tobytes() != ref.tobytes():
            fails.append(f"{tag}: estimate is not the sample autocovariance cut at the recorded value")
    return fails


def brute_force_risk(values: np.ndarray, j: int, method: str, grid, q: int, rng) -> np.ndarray:
    """Bootstrap L1 risk by definition: (1/q) sum ||cut(S*) - S||_1 per grid value,
    with S* weighting the lag-j summands by standard-exponential draws."""
    n = values.shape[1]
    xc = values - values.mean(axis=1, keepdims=True)
    left, right = xc[:, : n - j], xc[:, j:]
    sample = left @ right.T / n
    cut = banded if method == "band" else thresholded
    risks = np.zeros(len(grid))
    for _ in range(q):
        star = (left * rng.standard_exponential(n - j)) @ right.T / n
        for g, value in enumerate(grid):
            risks[g] += np.abs(cut(star, value) - sample).sum(axis=0).max()
    return risks / q


def check_risk_curve(tag: str, grid, risk, argmin, ref_grid, ref_risk) -> list:
    grid, risk = np.asarray(grid, dtype=float), np.asarray(risk, dtype=float)
    if not _close(grid, ref_grid, 1e-12):
        return [f"{tag}: candidate grid differs from the reference grid"]
    if not _close(risk, ref_risk, RISK_RTOL):
        return [f"{tag}: risk curve differs from brute force"]
    if argmin != grid[int(np.argmin(ref_risk))]:
        return [f"{tag}: argmin {argmin!r} is not the brute-force minimiser"]
    return []
