"""Sample autocovariances, banding/thresholding, bootstrap tuning."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    BandedVarError,
    BandedVarModel,
    TimeSeries,
    band,
    bootstrap_select_band,
    bootstrap_select_threshold,
    default_band_width,
    estimate_autocov,
    gen_coeff_uniform,
    gen_sigma_eps_structured,
    hard_threshold,
    l1_norm,
    sample_autocov,
    simulate_var,
    theoretical_autocov_var1,
)
from bandedvar.autocov import (
    _band_risks,
    _cutoff_bins,
    _sorted_cutoffs,
    _symmetric_threshold_risks,
    _threshold_risks,
    default_band_grid,
    default_threshold_grid,
)
from bandedvar.rng import substream


def table4_style_panel(p, n, seed, k0=3, norm=0.8):
    a = gen_coeff_uniform(p, k0, substream(seed, "coeffs"), target_norm=norm)
    model = BandedVarModel(p, 1, k0, [a], gen_sigma_eps_structured(p))
    return model, simulate_var(model, n, rng=substream(seed, "innovations"))


def exponential(g, size):
    return g.standard_exponential(size)


def unit_weights(g, size):
    return np.ones(size)


def signed_weights(g, size):
    """Unit mean and variance, negative about one time in six."""
    return 1.0 + g.standard_normal(size)


def brute_force_risk(ts, j, method, grid, q, rng, weights=exponential):
    """Bootstrap L1 risk by definition: cut every replicate densely per grid value."""
    n = ts.n
    xc = ts.values - ts.values.mean(axis=1, keepdims=True)
    sample = sample_autocov(ts, j)
    cut = band if method == "band" else hard_threshold
    risks = np.zeros(len(grid))
    for _ in range(q):
        star = (xc[:, : n - j] * weights(rng, n - j)) @ xc[:, j:].T / n
        risks += [l1_norm(cut(star, value) - sample) for value in grid]
    return risks / q


def assert_matches_brute_force(ts, j, method, grid, q, seed, weights=exponential):
    select = bootstrap_select_band if method == "band" else bootstrap_select_threshold
    risk = select(ts, j, grid=grid, q=q, rng=substream(seed, "boot"), weights=weights)
    brute = brute_force_risk(ts, j, method, grid, q, substream(seed, "boot"), weights)
    scale = np.abs(brute).max()
    assert np.abs(risk.risk - brute).max() <= 1e-12 * scale
    assert risk.argmin == np.asarray(grid)[np.argmin(brute)]
    return risk


class TestSampleAutocov:
    def test_constant_series_is_zero(self):
        ts = TimeSeries(np.full((3, 20), 7.0))
        for j in range(3):
            assert np.array_equal(sample_autocov(ts, j), np.zeros((3, 3)))

    def test_lag_zero_symmetric_psd(self):
        ts = TimeSeries(substream(0, "wn").standard_normal((6, 50)))
        s0 = sample_autocov(ts, 0)
        assert np.abs(s0 - s0.T).max() < 1e-12
        assert np.linalg.eigvalsh(s0).min() >= -1e-8

    def test_hand_computed_univariate(self):
        ts = TimeSeries(np.array([[1.0, 2.0, 3.0]]))
        assert np.isclose(sample_autocov(ts, 0)[0, 0], 2.0 / 3.0)
        assert np.isclose(sample_autocov(ts, 1)[0, 0], 0.0)

    def test_lag_out_of_range(self):
        ts = TimeSeries(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="lag"):
            sample_autocov(ts, 5)

    @pytest.mark.parametrize("method", ["sample", "banded", "thresholded"])
    def test_overflow_names_lag_and_entry(self, method):
        # only the last series is huge: its own products overflow, its
        # products with the others do not
        values = substream(0, "wn").standard_normal((5, 40))
        values[4] *= 1e200
        ts = TimeSeries(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BandedVarError, match=r"lag-1 .* at entry \(4, 4\)"):
                estimate_autocov(ts, 1, method=method, q=2, rng=1)
            with pytest.raises(BandedVarError, match=r"lag-0 .* at entry \(0, 0\)"):
                estimate_autocov(TimeSeries(1e200 * values[:4]), 0, method=method, q=2, rng=1)


class TestBandingOperator:
    def test_full_width_is_identity(self):
        rng = substream(1, "x")
        h = rng.standard_normal((5, 5))
        assert np.array_equal(band(h, 4), h)
        assert np.array_equal(band(h, 10), h)

    def test_zero_width_keeps_diagonal(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(band(h, 0), np.diag([1.0, 4.0]))

    def test_idempotent(self):
        rng = substream(2, "x")
        h = rng.standard_normal((7, 7))
        once = band(h, 2)
        assert np.array_equal(band(once, 2), once)

    def test_commutes_with_transpose(self):
        rng = substream(3, "x")
        h = rng.standard_normal((6, 6))
        assert np.array_equal(band(h.T, 2), band(h, 2).T)


class TestThreshold:
    def test_zero_cutoff_is_identity(self):
        h = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert np.array_equal(hard_threshold(h, 0.0), h)

    def test_large_cutoff_zeroes_everything(self):
        h = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert np.array_equal(hard_threshold(h, 5.0), np.zeros((2, 2)))

    def test_small_example(self):
        h = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert np.array_equal(hard_threshold(h, 2.5), np.array([[0.0, 0.0], [3.0, 4.0]]))

    def test_commutes_with_transpose(self):
        rng = substream(4, "x")
        h = rng.standard_normal((6, 6))
        assert np.array_equal(hard_threshold(h.T, 0.7), hard_threshold(h, 0.7).T)


class TestDefaultBandWidth:
    def test_reference_value(self):
        assert default_band_width(200, 100, 1.0) == 4

    def test_small_constant_floors_at_zero(self):
        assert default_band_width(200, 100, 1e-9) == 0

    def test_ratio_e_gives_one(self):
        # n / log p close to e
        assert default_band_width(13, 100, 1.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_band_width(200, 1, 1.0)
        with pytest.raises(ValueError):
            default_band_width( 2, 100, 1.0)
        with pytest.raises(ValueError):
            default_band_width(200, 100, 0.0)

    def test_single_series_grid_is_zero(self):
        # the rule needs log p > 0, but the only half-width at p = 1 is 0
        assert default_band_grid(40, 1).tolist() == [0]
        ts = TimeSeries(substream(0, "wn").standard_normal((1, 40)))
        est = estimate_autocov(ts, 0, method="banded", q=3, rng=1)
        assert est.tuning["r"] == 0 and est.risk.grid.tolist() == [0]
        assert est.matrix[0, 0] == sample_autocov(ts, 0)[0, 0]


class TestBootstrapSelection:
    def test_degenerate_unit_weights(self):
        _, ts = table4_style_panel(20, 100, seed=5)
        sample = sample_autocov(ts, 0)
        risk = bootstrap_select_band(
            ts, 0, grid=np.arange(20), q=1, weights=lambda g, size: np.ones(size)
        )
        expected = np.array([l1_norm(band(sample, r) - sample) for r in range(20)])
        assert np.allclose(risk.risk, expected, atol=1e-12)
        assert np.all(np.diff(risk.risk) <= 1e-12)
        assert risk.risk[-1] <= 1e-12

    def test_fixed_seed_reproducible(self):
        _, ts = table4_style_panel(15, 120, seed=6)
        a = bootstrap_select_band(ts, 1, q=20, rng=substream(6, "bootstrap"))
        b = bootstrap_select_band(ts, 1, q=20, rng=substream(6, "bootstrap"))
        assert np.array_equal(a.risk, b.risk)
        assert a.argmin == b.argmin

    def test_empty_grid_rejected(self):
        _, ts = table4_style_panel(10, 80, seed=7)
        with pytest.raises(ValueError, match="grid"):
            bootstrap_select_band(ts, 0, grid=[])

    def test_threshold_grid_of_zero_returns_zero(self):
        _, ts = table4_style_panel(10, 80, seed=8)
        risk = bootstrap_select_threshold(
            ts, 0, grid=[0.0], q=5, rng=substream(8, "bootstrap")
        )
        assert risk.argmin == 0.0
        assert risk.risk.shape == (1,)

    def test_selected_level_in_plausible_range(self):
        hits = 0
        for rep in range(20):
            _, ts = table4_style_panel(100, 200, seed=900 + rep)
            pick = bootstrap_select_band(
                ts, 0, q=100, rng=substream(900 + rep, "bootstrap")
            ).argmin
            hits += 2 <= pick <= 12
        assert hits / 20 >= 0.9

    def test_mean_bootstrap_estimate_near_sample(self):
        _, ts = table4_style_panel(20, 200, seed=10)
        sample = sample_autocov(ts, 0)
        n = ts.n
        xc = ts.values - ts.values.mean(axis=1, keepdims=True)
        rng = substream(10, "bootstrap")
        acc = np.zeros_like(sample)
        q = 2000
        for _ in range(q):
            u = rng.standard_exponential(n)
            acc += (xc * u) @ xc.T / n
        assert l1_norm(acc / q - sample) <= 0.05 * l1_norm(sample)

    @pytest.mark.parametrize("select", [bootstrap_select_band, bootstrap_select_threshold])
    @pytest.mark.parametrize("j", [0, 1])
    def test_huge_series_picks_as_its_scaled_copy(self, select, j):
        # S is finite (largest entry about 4e306), but a replicate or a column
        # sum of |S* - S| would pass the float range
        values = 1.6e153 * substream(51, "wn").standard_normal((4, 40))
        xc = values - values.mean(axis=1, keepdims=True)
        e = int(np.frexp(np.abs(xc).max())[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            risk = select(TimeSeries(values), j, q=20, rng=1)
        small = select(TimeSeries(np.ldexp(values, -e)), j, q=20, rng=1)
        assert np.isfinite(risk.risk).all()
        banding = select is bootstrap_select_band
        assert risk.argmin == (small.argmin if banding else np.ldexp(small.argmin, 2 * e))
        assert np.array_equal(risk.risk, np.ldexp(small.risk, 2 * e))


class TestRealizedErrors:
    def test_banding_beats_thresholding_most_runs(self):
        # Banding adapts to the diagonal layout directly, so it wins most
        # replications and clearly in the mean; thresholding stays in between
        # banding and the raw sample estimate.
        banded_wins = 0
        err_band_all, err_thresh_all = [], []
        for rep in range(20):
            model, ts = table4_style_panel(100, 200, seed=1100 + rep)
            truth = theoretical_autocov_var1(model, 0)
            sample = sample_autocov(ts, 0)
            r = bootstrap_select_band(
                ts, 0, q=100, rng=substream(1100 + rep, "bootstrap", "band")
            ).argmin
            t = bootstrap_select_threshold(
                ts, 0, q=100, rng=substream(1100 + rep, "bootstrap", "threshold")
            ).argmin
            err_band = l1_norm(band(sample, int(r)) - truth)
            err_thresh = l1_norm(hard_threshold(sample, float(t)) - truth)
            err_band_all.append(err_band)
            err_thresh_all.append(err_thresh)
            banded_wins += err_band < err_thresh
        assert banded_wins / 20 >= 0.7
        assert np.mean(err_band_all) < 0.9 * np.mean(err_thresh_all)

    def test_banded_error_decreases_with_sample_size(self):
        improvements = 0
        for rep in range(20):
            a = gen_coeff_uniform(50, 2, substream(1200 + rep, "coeffs"), target_norm=0.8)
            model = BandedVarModel(50, 1, 2, [a], gen_sigma_eps_structured(50))
            truth = theoretical_autocov_var1(model, 0)
            errs = []
            for n in (200, 800):
                ts = simulate_var(model, n, rng=substream(1200 + rep, "innovations", n))
                pick = bootstrap_select_band(
                    ts, 0, q=100, rng=substream(1200 + rep, "bootstrap", n)
                ).argmin
                errs.append(l1_norm(band(sample_autocov(ts, 0), int(pick)) - truth))
            improvements += errs[1] < errs[0]
        assert improvements / 20 >= 0.8


class TestEstimateAutocov:
    def test_sample_method(self):
        _, ts = table4_style_panel(12, 90, seed=13)
        est = estimate_autocov(ts, 1, method="sample")
        assert np.array_equal(est.matrix, sample_autocov(ts, 1))
        assert est.meta_dict()["method"] == "sample"

    def test_fixed_band(self):
        _, ts = table4_style_panel(12, 90, seed=14)
        est = estimate_autocov(ts, 0, method="banded", r=2)
        assert est.tuning == {"r": 2, "selected_by": "fixed"}
        assert np.array_equal(est.matrix, band(sample_autocov(ts, 0), 2))

    def test_bootstrap_threshold_records_tuning(self):
        _, ts = table4_style_panel(12, 90, seed=15)
        est = estimate_autocov(
            ts, 0, method="thresholded", q=10, rng=substream(15, "bootstrap")
        )
        assert est.tuning["selected_by"] == "bootstrap"
        assert "t" in est.tuning

    @pytest.mark.parametrize("method, kind", [("banded", "band"), ("thresholded", "threshold")])
    def test_bootstrap_keeps_risk_curve(self, method, kind):
        _, ts = table4_style_panel(12, 90, seed=16)
        est = estimate_autocov(ts, 1, method=method, q=5, rng=substream(16, "bootstrap"))
        select = bootstrap_select_band if kind == "band" else bootstrap_select_threshold
        risk = select(ts, 1, q=5, rng=substream(16, "bootstrap"))
        assert est.risk.method == kind and np.array_equal(est.risk.risk, risk.risk)
        meta = est.meta_dict()
        assert meta["risk"] == risk.to_dict()
        assert meta["tuning"] == {"r" if kind == "band" else "t": risk.argmin,
                                  "selected_by": "bootstrap", "q": 5}

    def test_fixed_tuning_has_no_risk_curve(self):
        _, ts = table4_style_panel(12, 90, seed=17)
        for est in (estimate_autocov(ts, 0, method="banded", r=1),
                    estimate_autocov(ts, 0, method="thresholded", t=0.1),
                    estimate_autocov(ts, 0, method="sample")):
            assert est.risk is None and "risk" not in est.meta_dict()

    def test_default_grid_spans_rule(self):
        grid = default_band_grid(200, 100)
        assert grid[0] == 0
        assert grid[-1] == 2 * 4 + 5


class TestRiskMatchesBruteForce:
    @pytest.mark.parametrize("j", [0, 1, 3])
    @pytest.mark.parametrize("weights", [exponential, unit_weights, signed_weights])
    def test_default_grids(self, j, weights):
        _, ts = table4_style_panel(20, 60, seed=40 + j)
        sample = sample_autocov(ts, j)
        assert_matches_brute_force(ts, j, "band", default_band_grid(ts.n, ts.p), 7, 1, weights)
        grid = default_threshold_grid(sample)
        assert_matches_brute_force(ts, j, "threshold", grid, 7, 2, weights)

    @pytest.mark.parametrize(
        "grid", [[5, 0, 3, 1], [2, 2, 0, 0, 2], [0, 11, 12, 40, 3], [12.0, 1.0, 12.0], [30]]
    )
    def test_awkward_band_grids(self, grid):
        _, ts = table4_style_panel(12, 50, seed=44)
        for j in (0, 1):
            risk = assert_matches_brute_force(ts, j, "band", grid, 5, 3)
            assert type(risk.argmin) is int

    def test_awkward_threshold_grids(self):
        _, ts = table4_style_panel(12, 50, seed=45)
        for j in (0, 1):
            sample = np.abs(sample_autocov(ts, j))
            exact = sample[3, 4]
            top = sample.max()
            rng = substream(45, "grid", j)
            long = np.linspace(0.0, 1.1 * top, 90)
            for grid in (
                [top, 0.0, exact, 0.5 * top],
                [exact, exact, 0.0, top, 0.0],
                [0.0],
                [2.0 * top, top],
                rng.permutation(long),
                np.concatenate([long, [exact, exact]]),
            ):
                risk = assert_matches_brute_force(ts, j, "threshold", grid, 5, 4)
                assert type(risk.argmin) is float

    @pytest.mark.parametrize("every_entry", [False, True])
    def test_exact_entry_cutoff_drops_that_entry(self, every_entry):
        # With unit weights a lag-1 replicate is the sample to the last bit
        # (at lag 0 numpy forms the sample with a symmetric kernel instead),
        # so a cutoff at an entry's exact magnitude drops that entry.
        _, ts = table4_style_panel(10, 40, seed=46)
        sample = np.abs(sample_autocov(ts, 1))
        grid = np.unique(sample) if every_entry else np.unique(sample)[[0, 3, -2, -1]]
        risk = assert_matches_brute_force(ts, 1, "threshold", grid, 1, 5, unit_weights)
        assert risk.risk[-1] == l1_norm(sample)

    @settings(max_examples=60)
    @given(
        p=st.integers(1, 6),
        n=st.integers(4, 24),
        j=st.integers(0, 2),
        q=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_random_grids(self, p, n, j, q, seed, data):
        values = substream(seed, "series").standard_normal((p, n))
        ts = TimeSeries(values + 3.0 * np.arange(p)[:, None])
        band_grid = data.draw(st.lists(st.integers(0, p + 2), min_size=1, max_size=8))
        top = float(np.abs(sample_autocov(ts, j)).max())
        exact = float(np.abs(sample_autocov(ts, j)).flat[0])
        cuts = st.one_of(st.floats(0.0, 1.2 * top), st.sampled_from([0.0, exact, top]))
        threshold_grid = data.draw(st.lists(cuts, min_size=1, max_size=8))
        for method, grid in (("band", band_grid), ("threshold", threshold_grid)):
            select = bootstrap_select_band if method == "band" else bootstrap_select_threshold
            risk = select(ts, j, grid=grid, q=q, rng=substream(seed, "boot"))
            brute = brute_force_risk(ts, j, method, grid, q, substream(seed, "boot"))
            tol = 1e-12 * max(np.abs(brute).max(), 1e-300)
            assert np.abs(risk.risk - brute).max() <= tol
            # the pick minimises the brute-force curve, up to rounding
            assert brute[list(grid).index(risk.argmin)] <= brute.min() + tol


def searchsorted_threshold_risks(left, right, u, n, sample, grid):
    """The thresholded replicate loop with a binary search per entry, as an oracle."""
    p, g = len(sample), grid.size
    order = np.argsort(grid, kind="stable")
    abs_s = np.abs(sample)
    slot = np.arange(p) * (g + 1)
    total = np.zeros(g)
    for w in u:
        star = (left * w) @ right.T / n
        d = abs(star - sample) - abs_s
        bins = np.searchsorted(grid[order], np.abs(star, out=star), side="left")
        bins += slot
        sums = np.bincount(bins.ravel(), d.ravel(), minlength=p * (g + 1))
        kept = np.cumsum(sums.reshape(p, g + 1)[:, :0:-1], axis=1)[:, ::-1]
        total += (abs_s.sum(axis=0)[:, None] + kept).max(axis=0)
    return (total / len(u))[np.argsort(order)]


def symmetric_searchsorted_threshold_risks(x, u, n, sample, grid):
    """The lag-0 oracle: S* formed as the lag-0 loop forms it, a matrix times
    its transpose (numpy computes the upper triangle and mirrors it); each
    column sums its entries on and above the diagonal, then those below it,
    as the loop's two bincounts do."""
    p, g = len(sample), grid.size
    order = np.argsort(grid, kind="stable")
    abs_s = np.abs(sample)
    slot = np.arange(p) * (g + 1)
    upper = np.triu(np.ones((p, p), dtype=bool))
    total = np.zeros(g)
    for w in u:
        a = x * np.sqrt(np.abs(w) / n)
        star = a @ a.T
        if (w < 0).any():
            a_neg = a[:, w < 0]
            star -= 2.0 * (a_neg @ a_neg.T)
        assert np.array_equal(star, star.T)
        d = abs(star - sample) - abs_s
        bins = np.searchsorted(grid[order], np.abs(star), side="left") + slot
        sums = np.bincount(bins[upper], d[upper], minlength=p * (g + 1))
        sums += np.bincount(bins[~upper], d[~upper], minlength=p * (g + 1))
        kept = np.cumsum(sums.reshape(p, g + 1)[:, :0:-1], axis=1)[:, ::-1]
        total += (abs_s.sum(axis=0)[:, None] + kept).max(axis=0)
    return (total / len(u))[np.argsort(order)]


def cutoff_bins(grid, values):
    """``_cutoff_bins`` over ``values`` with the grid set up as the replicate loops do,
    less the bincount slots it adds (entries of alternating sign: it bins |values|)."""
    _, sgrid, inv, tol = _sorted_cutoffs(np.asarray(grid, dtype=float))
    a = np.asarray(values, dtype=float) * (-1.0) ** np.arange(len(values))
    slot = 1000.0 * np.arange(a.size)
    bins = np.full(a.shape, -7, dtype=np.intp)
    _cutoff_bins(a, sgrid, inv, tol, slot, bins, np.empty(a.shape), np.empty(a.shape),
                 np.empty(a.shape, dtype=bool))
    return bins - slot.astype(np.intp)


def awkward_grid(kind, top, rng):
    return {
        "linspace": lambda: np.linspace(0.0, top, 21),
        "zeros": lambda: np.zeros(21),
        "duplicates": lambda: np.repeat(np.linspace(0.0, top, 6), [2, 1, 3, 1, 1, 4]),
        "permuted": lambda: rng.permutation(np.linspace(0.0, top, 21)),
        "long": lambda: np.linspace(0.0, 1.1 * top, 90),
        "single": lambda: np.array([top]),
        "geometric": lambda: np.append(0.0, top * 2.0 ** -np.arange(20)),
        "bunched": lambda: np.append(0.0, np.linspace(0.9 * top, top, 30)),
        "bunched_long": lambda: np.append(0.0, np.linspace(0.9 * top, top, 89)),
        # the step is the top over G - 1, so moving the top one ulp moves every k * step
        "top_ulp_up": lambda: np.append(np.linspace(0.0, top, 21)[:-1], np.nextafter(top, np.inf)),
        "top_ulp_down": lambda: np.append(np.linspace(0.0, top, 21)[:-1], np.nextafter(top, 0.0)),
        "arange": lambda: np.arange(21) * (top / 20),
        "tiny": lambda: np.linspace(0.0, 1e-307, 21),  # 1 / step overflows
    }[kind]()


class TestCutoffBins:
    """Arithmetic binning of |S*| equals a binary search over the sorted cutoffs."""

    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(
            ["linspace", "zeros", "duplicates", "permuted", "long", "single", "geometric",
             "bunched", "bunched_long", "top_ulp_up", "top_ulp_down", "arange", "tiny"]
        ),
        top=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([5e-324, 1.0, 0.3])),
        seed=st.integers(0, 2**16),
        extra=st.lists(st.floats(0.0, 1e300), max_size=20),
    )
    def test_equals_searchsorted(self, kind, top, seed, extra):
        grid = awkward_grid(kind, top, substream(seed, "grid"))
        cuts = np.unique(grid)
        steps = np.arange(grid.size) * (cuts[-1] / max(grid.size - 1, 1))  # every k * step
        probes = np.concatenate([
            cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            (cuts[:-1] + cuts[1:]) / 2, [0.0, 1.5 * cuts[-1] + 1.0, np.inf], extra,
            steps, np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf),
        ])
        probes = probes[probes >= 0]  # |S*| is never negative
        expected = np.searchsorted(np.sort(grid), probes, side="left")
        assert np.array_equal(cutoff_bins(grid, probes), expected)
        step = grid[-1] / 20
        if kind == "linspace" and step > 0:  # the estimate alone is at most one bin off
            with np.errstate(over="ignore"):
                estimate = np.minimum(np.ceil(probes / step), 21)
            assert np.abs(estimate - expected).max() <= 1

    def test_far_estimate_is_bisected(self):
        # cutoffs bunched at zero: the evenly spaced estimate is many bins low
        grid = np.concatenate([np.zeros(30), [1.0]])
        probes = np.array([1e-9, 0.01, 0.5, 1.0, np.nextafter(1.0, 2.0)])
        assert cutoff_bins(grid, probes).tolist() == [30, 30, 30, 30, 31]


class TestRiskMatchesSearchsorted:
    """The replicate loops are bitwise the binary-search loops they replaced."""

    @staticmethod
    def assert_bitwise(ts, j, weights, grids, q=6):
        n = ts.n
        xc = ts.values - ts.values.mean(axis=1, keepdims=True)
        rng = substream(60 + j, "boot")
        u = np.stack([weights(rng, n - j) for _ in range(q)])
        sample = sample_autocov(ts, j)
        for grid in grids(sample):
            grid = np.asarray(grid, dtype=float)
            if j == 0:
                args = (xc, u, n, sample, grid)
                old = symmetric_searchsorted_threshold_risks(*args)
                assert _symmetric_threshold_risks(*args).tobytes() == old.tobytes()
            else:
                args = (xc[:, : n - j], xc[:, j:], u, n, sample, grid)
                old = searchsorted_threshold_risks(*args)
                assert _threshold_risks(*args).tobytes() == old.tobytes()

    @pytest.mark.parametrize("j", [0, 1, 3])
    @pytest.mark.parametrize("weights", [exponential, unit_weights, signed_weights])
    def test_lags_and_weights(self, j, weights):
        _, ts = table4_style_panel(40, 70, seed=60 + j)

        def grids(sample):
            top = float(np.abs(sample).max())
            rng = substream(60, "grid", j)
            return [default_threshold_grid(sample)] + [
                awkward_grid(kind, top, rng)
                for kind in ("duplicates", "permuted", "long", "geometric", "bunched",
                             "bunched_long")
            ] + [np.unique(np.abs(sample))[::7]]

        self.assert_bitwise(ts, j, weights, grids)

    def test_constant_series(self):
        ts = TimeSeries(np.full((6, 30), 2.5))
        for j in (0, 1):
            grids = lambda s: [default_threshold_grid(s), [0.0, 1.0]]
            self.assert_bitwise(ts, j, exponential, grids)
        risk = bootstrap_select_threshold(ts, 0, q=3, rng=1)
        assert risk.argmin == 0.0 and not risk.risk.any()


class TestLagZeroHalf:
    """Lag 0 scores each symmetric replicate from one half of it."""

    @pytest.mark.parametrize("weights", [exponential, signed_weights])
    def test_band_curve_is_bitwise_both_diagonals(self, weights):
        _, ts = table4_style_panel(30, 60, seed=62)
        xc = ts.values - ts.values.mean(axis=1, keepdims=True)
        rng = substream(62, "boot")
        u = np.stack([weights(rng, ts.n) for _ in range(5)])
        args = (xc, xc, u, ts.n, sample_autocov(ts, 0), default_band_grid(ts.n, ts.p))
        both = _band_risks(*args)  # forms diagonals o and -o apart
        assert _band_risks(*args, symmetric=True).tobytes() == both.tobytes()

    def test_threshold_peak_memory_no_higher_than_lag_one(self):
        # the lag-0 work arrays reuse the product's storage and the scratch
        _, ts = table4_style_panel(300, 200, seed=63)
        peaks = []
        for j in (0, 1):
            tracemalloc.start()
            try:
                bootstrap_select_threshold(ts, j, q=5, rng=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


# (grid position of the pick, the pick, the risk curve). Both threshold picks
# of seed 31 were re-recorded a few ulps away, at the same grid position, when
# the coefficient draw took its spectral norm in band storage.
PINNED = {
    (31, 0, "band"): (
        5, 5,
        [
            8.975082930547275, 7.0372209637376315, 6.285928492470406, 6.37218343716903,
            6.296684959790783, 6.190151387280162, 6.346332926539387, 6.422735294227907,
            6.431340887751564, 6.334507020415209, 6.382782770732273, 6.4600810101095,
        ],
    ),
    (31, 0, "threshold"): (
        1, 0.12309723843281876,
        [
            6.187781675253605, 6.186999325370282, 6.268780761753273, 6.512783346397725,
            6.819853164431858, 6.951425300436831, 7.188099045300594, 7.34673424602625,
            7.803013746776157, 8.227347073308938, 8.336618623788624, 8.710742977812831,
            9.052130798173451, 9.343839370800925, 9.586623595045278, 9.731971680418008,
            9.902785983025352, 10.006663311430724, 10.224127534935583, 10.343335784175673,
            10.581752282655856,
        ],
    ),
    (31, 1, "band"): (
        11, 11,
        [
            8.790544069567057, 7.965219344794574, 7.606898798513503, 7.146280746084417,
            7.088387076565153, 6.921322139709217, 6.986172162760928, 6.926227754527011,
            6.960501580620191, 6.974518138842383, 6.793053732154425, 6.786243761443932,
        ],
    ),
    (31, 1, "threshold"): (
        1, 0.05015159789549123,
        [
            5.98318567099676, 5.9696196723822785, 5.998866613267186, 6.124905103163283,
            6.2437792221020585, 6.414643682966788, 6.637481330675563, 6.8647334634890385,
            7.1588513357177135, 7.3750089151279585, 7.647529919629434, 8.11125233626154,
            8.290392176410876, 8.620649415397653, 8.84254554269706, 8.950070811243267,
            9.098421334445845, 9.17396709481942, 9.191614873919036, 9.253837994632002,
            9.299941340185786,
        ],
    ),
    (32, 0, "band"): (
        11, 11,
        [
            9.195438719236432, 7.629007528998665, 6.78507919773252, 6.720004115836396,
            6.611550497479821, 6.645017867534223, 6.637366937251231, 6.673164335097387,
            6.7197374186318175, 6.690888806244509, 6.613976041974469, 6.502223965918392,
        ],
    ),
    (32, 0, "threshold"): (
        0, 0.0,
        [
            6.671848324704143, 6.702974031047373, 6.728816028400841, 6.7993115334875585,
            7.094151360539989, 7.25149722932864, 7.459720723485868, 7.966140654967994,
            8.38343070465773, 8.801773115126796, 8.961505151906156, 9.10649812292105,
            9.279539696290733, 9.60414310819954, 9.96542923349708, 10.057539406312324,
            10.36919402030734, 10.655226364134483, 10.655226364134483, 10.77114642956649,
            10.824934820492015,
        ],
    ),
    (32, 1, "band"): (
        10, 10,
        [
            7.710054720206384, 6.639843738734155, 6.396805628034628, 6.083430068495291,
            6.045741863715419, 5.960292807899176, 5.808050486896295, 5.752389629406499,
            5.751060165428585, 5.833444267185287, 5.726807839944744, 5.75817323068563,
        ],
    ),
    (32, 1, "threshold"): (
        4, 0.28966536237394136,
        [
            7.135720940728089, 7.133537380080763, 7.182387131881468, 7.167485642503744,
            7.1062628809660975, 7.22652448680236, 7.351300765322425, 7.56244212558403,
            7.605568204436612, 7.825028086004897, 7.909041285808233, 7.813910431156925,
            7.8968603089451035, 7.9467975343699635, 7.9461099695132775, 8.189895442653171,
            8.264255409514583, 8.288522081611127, 8.384397329721983, 8.507244009391773,
            8.550595671544112,
        ],
    ),
}


class TestPinnedSelections:
    """Picks and curves recorded from the dense-mask implementation."""

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_seed(self, key):
        seed, j, method = key
        _, ts = table4_style_panel(24, 80, seed)
        select = bootstrap_select_band if method == "band" else bootstrap_select_threshold
        risk = select(ts, j, q=20, rng=substream(seed, "bootstrap", j, method))
        position, argmin, curve = PINNED[key]
        assert np.argmin(risk.risk) == position and risk.grid[position] == risk.argmin
        assert risk.argmin == argmin
        assert np.abs(risk.risk - curve).max() <= 1e-12 * max(curve)

    @pytest.mark.parametrize("select", [bootstrap_select_band, bootstrap_select_threshold])
    @pytest.mark.parametrize("j", [0, 2])
    def test_stream_position(self, select, j):
        _, ts = table4_style_panel(10, 50, seed=47)
        rng, ref = substream(47, "boot"), substream(47, "boot")
        select(ts, j, q=6, rng=rng)
        for _ in range(6):
            ref.standard_exponential(ts.n - j)
        assert rng.random() == ref.random()

    def test_custom_weights_called_with_int_size(self):
        _, ts = table4_style_panel(10, 50, seed=48)
        sizes = []

        def weights(g, size):
            sizes.append(size)
            return g.standard_exponential(size)

        bootstrap_select_band(ts, 1, q=3, rng=1, weights=weights)
        assert sizes == [49, 49, 49] and all(type(s) is int for s in sizes)


class TestTuningValidation:
    @pytest.mark.parametrize(
        "grid, bad", [([0, 2, -1], "-1"), ([0, 1.5], "1.5"), ([3, float("nan")], "nan")]
    )
    def test_band_grid_entry_named(self, grid, bad):
        _, ts = table4_style_panel(10, 50, seed=49)
        with pytest.raises(ValueError, match=f"grid entry {bad} at position {len(grid) - 1}"):
            bootstrap_select_band(ts, 0, grid=grid, q=2)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_threshold_grid_entry_named(self, bad):
        _, ts = table4_style_panel(10, 50, seed=50)
        with pytest.raises(ValueError, match=f"grid entry {bad} at position 1"):
            bootstrap_select_threshold(ts, 0, grid=[0.1, bad, 0.2], q=2)

    @pytest.mark.parametrize("select", [bootstrap_select_band, bootstrap_select_threshold])
    @pytest.mark.parametrize("grid", [2, [[0, 1]], np.zeros((2, 0))])
    def test_grid_shape_named(self, select, grid):
        _, ts = table4_style_panel(10, 50, seed=50)
        shape = np.shape(grid)
        with pytest.raises(ValueError, match=f"one-dimensional, got shape {re.escape(str(shape))}"):
            select(ts, 0, grid=grid, q=2)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_cutoff_rejected(self, bad):
        _, ts = table4_style_panel(10, 50, seed=51)
        with pytest.raises(ValueError, match="threshold"):
            hard_threshold(np.eye(3), bad)
        with pytest.raises(ValueError, match="threshold"):
            estimate_autocov(ts, 0, method="thresholded", t=bad)

    @pytest.mark.parametrize(
        "draw, got",
        [
            (lambda g, size: np.ones(size + 1), r"shape \(50,\)"),
            (lambda g, size: np.ones((size, 1)), r"shape \(49, 1\)"),
            (lambda g, size: 1.0, r"shape \(\)"),
            (lambda g, size: np.full(size, np.nan), "non-finite"),
        ],
    )
    def test_bad_weights_name_replicate(self, draw, got):
        _, ts = table4_style_panel(10, 50, seed=52)
        calls = []

        def weights(g, size):
            calls.append(size)
            return draw(g, size) if len(calls) == 3 else g.standard_exponential(size)

        message = f"replicate 2: need 49 finite weights, got {got}"
        for select in (bootstrap_select_band, bootstrap_select_threshold):
            calls.clear()
            with pytest.raises(ValueError, match=message):
                select(ts, 1, q=4, rng=1, weights=weights)
