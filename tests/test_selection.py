"""Bandwidth/order selection, whole-model criterion, ordering comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    BandedMatrix,
    BandedVarModel,
    SingularDesignError,
    TimeSeries,
    gen_coeff_uniform,
    joint_bic_select,
    marginal_bic,
    ordering_candidates,
    ordering_score,
    select_bandwidth,
    select_bandwidth_and_order,
    simulate_var,
)
from bandedvar.estimation import band_columns
from bandedvar.rng import substream
from bandedvar.selection import (
    RssSurface,
    joint_bic_from_surface,
    joint_parameter_count,
    rss_surface,
    select_bandwidth_from_surface,
)


def simulated(p, k0, n, seed, target_norm=None):
    a = gen_coeff_uniform(p, k0, substream(seed, "coeffs"), target_norm=target_norm)
    model = BandedVarModel(p, 1, k0, [a], np.eye(p))
    return model, simulate_var(model, n, rng=substream(seed, "innovations"))


def direct_fit(ts, i, k, d):
    """(beta, RSS) of equation i at (k, d) by numpy's SVD least squares on
    the band support, independent of the library's QR kernel."""
    n = ts.n
    x = np.column_stack([ts.values[j, d - lag : n - lag] for lag, j in band_columns(i, k, d, ts.p)])
    y = ts.values[i, d:]
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    return beta, float(resid @ resid)


def flat_surface(p, K, value=1.0, d=1):
    ks = tuple(range(1, K + 1))
    from bandedvar import row_regressor_count

    counts = np.array([[row_regressor_count(i, k, d, p) for k in ks] for i in range(p)])
    return RssSurface(
        ks=ks, rss=np.full((p, K), value), counts=counts, n=200, p=p, d=d
    )


class TestMarginalBic:
    def test_penalty_arithmetic(self):
        # interior row, n=200, p=100, d=1, k=2: the penalty term is
        # (1/200) * 1 * 5 * loglog(200) * log(200)
        n, p = 200, 100
        ts = TimeSeries(substream(0, "wn").standard_normal((p, n)))
        i, k = 50, 2
        value = marginal_bic(ts, i, k)
        _, rss = direct_fit(ts, i, k, 1)
        expected_penalty = (
            (1.0 / n) * 1 * 5 * math.log(math.log(n)) * math.log(max(p, n))
        )
        assert np.isclose(expected_penalty, 0.2208, atol=5e-4)
        assert np.isclose(value - math.log(rss), expected_penalty, atol=1e-12)

    def test_equal_rss_penalty_strictly_increases(self):
        surface = flat_surface(10, 5)
        trace = select_bandwidth_from_surface(surface)
        for i in range(10):
            assert np.all(np.diff(trace.bic[i]) > 0)
        assert trace.k_hat == 1

    def test_zero_rss_raises(self):
        from bandedvar import BandedVarError, row_regressor_count

        ks = (1, 2)
        counts = np.array(
            [[row_regressor_count(i, k, 1, 4) for k in ks] for i in range(4)]
        )
        rss = np.ones((4, 2))
        rss[2, 1] = 0.0
        degenerate = RssSurface(ks=ks, rss=rss, counts=counts, n=50, p=4, d=1)
        with pytest.raises(BandedVarError, match="row 2.*zero residual"):
            select_bandwidth_from_surface(degenerate)
        with pytest.raises(BandedVarError, match="zero residual"):
            joint_bic_from_surface(degenerate)


class TestSelectBandwidth:
    def test_recovers_bandwidth_and_is_deterministic(self):
        _, ts = simulated(30, 2, 400, 1)
        first = select_bandwidth(ts, K=6)
        second = select_bandwidth(ts, K=6)
        assert first.k_hat == 2
        assert np.array_equal(first.bic, second.bic)
        assert np.array_equal(first.argmin_per_row, second.argmin_per_row)

    def test_k_hat_is_row_maximum(self):
        _, ts = simulated(20, 1, 250, 2)
        trace = select_bandwidth(ts, K=5)
        assert trace.k_hat == trace.argmin_per_row.max()
        assert np.all(trace.k_hat >= trace.argmin_per_row)
        assert np.all(np.isfinite(trace.bic))

    def test_diagonal_model_prefers_zero_bandwidth(self):
        # 20 seeded panels from a diagonal model: with the zero candidate
        # enabled, almost every equation scores k=0 below k=1
        wins = total = 0
        coeff = BandedMatrix.from_dense(0.5 * np.eye(10), 0)
        model = BandedVarModel(10, 1, 0, [coeff], np.eye(10))
        for rep in range(20):
            ts = simulate_var(model, 1000, rng=substream(3, "innovations", rep))
            trace = select_bandwidth(ts, K=1, include_zero=True)
            wins += int((trace.bic[:, 0] < trace.bic[:, 1]).sum())
            total += 10
        assert wins / total >= 0.95

    def test_white_noise_selects_zero_with_flag(self):
        hits = 0
        for rep in range(20):
            ts = TimeSeries(substream(4, "wn", rep).standard_normal((50, 400)))
            trace = select_bandwidth(ts, include_zero=True)
            hits += trace.k_hat == 0
        assert hits / 20 >= 0.9

    def test_monotone_penalty_in_cn(self):
        _, ts = simulated(15, 2, 300, 5)
        surface = rss_surface(ts, d=1, K=6)
        small = select_bandwidth_from_surface(surface, cn=0.5)
        large = select_bandwidth_from_surface(surface, cn=2.0)
        assert np.all(large.argmin_per_row <= small.argmin_per_row)

    def test_row_constant_shift_leaves_argmins(self):
        _, ts = simulated(12, 1, 200, 6)
        trace = select_bandwidth(ts, K=5)
        shifted = trace.bic + substream(6, "shift").standard_normal((12, 1))
        assert np.array_equal(
            np.argmin(shifted, axis=1), np.argmin(trace.bic, axis=1)
        )

    def test_insensitive_to_search_bound(self):
        # mixture-style design at k0=1: the recovery frequency moves by well
        # under 10 points across K in {2, 14, 15}; one surface at K=15 yields
        # all three selectors by column restriction
        from bandedvar import gen_coeff_mixture

        reps = 25
        freqs = {2: 0, 14: 0, 15: 0}
        for rep in range(reps):
            a = gen_coeff_mixture(100, 1, substream(7, "coeffs", rep))
            model = BandedVarModel(100, 1, 1, [a], np.eye(100))
            ts = simulate_var(model, 200, rng=substream(7, "innovations", rep))
            surface = rss_surface(ts, d=1, K=15)
            trace15 = select_bandwidth_from_surface(surface)
            for K in freqs:
                sliced = RssSurface(
                    ks=surface.ks[:K],
                    rss=surface.rss[:, :K],
                    counts=surface.counts[:, :K],
                    n=surface.n,
                    p=surface.p,
                    d=surface.d,
                )
                trace = select_bandwidth_from_surface(sliced)
                if K == 15:
                    assert trace.k_hat == trace15.k_hat
                freqs[K] += trace.k_hat == 1
        rates = [100.0 * v / reps for v in freqs.values()]
        assert max(rates) - min(rates) < 10.0


class TestRssSurface:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e6, 1e7])
    def test_matches_direct_row_fits_on_shifted_panel(self, shift, d):
        # a large series level must not cost accuracy: every surface entry
        # equals the RSS of a direct fit of that row at that bandwidth
        _, ts = simulated(30, 1, 200, 3)
        shifted = TimeSeries(ts.values + shift)
        surface = rss_surface(shifted, d=d, K=4, include_zero=True)
        direct = np.array(
            [
                [direct_fit(shifted, i, k, d)[1] for k in surface.ks]
                for i in range(30)
            ]
        )
        assert np.abs(surface.rss / direct - 1.0).max() < 1e-6

    def test_series_too_short_names_row(self):
        # row 0 has 2 regressors at K=1 and fits; interior row 1 needs n > 4
        ts = TimeSeries(substream(13, "x").standard_normal((3, 4)))
        with pytest.raises(ValueError, match=r"row 1 at \(k=1, d=1\): need n > 4, have n = 4"):
            rss_surface(ts, d=1, K=1)

    @settings(max_examples=40)
    @given(data=st.data(), p=st.integers(2, 12), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_reversed_ordering_reverses_rows(self, data, p, d, seed):
        K = data.draw(st.integers(1, p - 1), label="K")
        ts = TimeSeries(np.random.default_rng(seed).standard_normal((p, 4 * d * (2 * K + 1) + 20)))
        surface = rss_surface(ts, d=d, K=K, include_zero=True)
        mirrored = rss_surface(ts.permuted(np.arange(p)[::-1]), d=d, K=K, include_zero=True)
        assert np.array_equal(mirrored.counts, surface.counts[::-1])
        assert np.allclose(mirrored.rss, surface.rss[::-1], rtol=1e-12, atol=0.0)

    @settings(max_examples=40)
    @given(data=st.data(), p=st.integers(2, 12), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_worker_count_does_not_change_trace(self, data, p, d, seed):
        K = data.draw(st.integers(1, p - 1), label="K")
        ts = TimeSeries(np.random.default_rng(seed).standard_normal((p, 4 * d * (2 * K + 1) + 20)))
        one = select_bandwidth(ts, d=d, K=K, threads=1)
        three = select_bandwidth(ts, d=d, K=K, threads=3)
        assert np.array_equal(one.bic, three.bic)
        assert one.to_dict() == three.to_dict()

    def test_identical_series_error_names_row_and_series(self):
        # series 3 duplicates series 1, so row 0's design at K=3 is singular
        # at lag 1 of series 3; the column indexes band_columns order
        vals = substream(15, "wn").standard_normal((5, 80))
        vals[3] = vals[1]
        with pytest.raises(SingularDesignError, match=r"row 0\b.*series 3\b") as err:
            select_bandwidth(TimeSeries(vals), d=2, K=3)
        assert err.value.row == 0
        assert band_columns(0, 3, 2, 5)[err.value.column] == (1, 3)


class TestSelectBandwidthAndOrder:
    def test_single_order_matches_bandwidth_selector(self):
        _, ts = simulated(10, 1, 150, 8)
        joint = select_bandwidth_and_order(ts, K=4, L=1)
        single = select_bandwidth(ts, d=1, K=4)
        assert np.allclose(joint.bic[:, :, 0], single.bic)
        assert joint.k_hat == single.k_hat
        assert joint.d_hat == 1

    def test_recovers_order_and_bandwidth(self):
        hits = 0
        for rep in range(50):
            a = gen_coeff_uniform(50, 1, substream(9, "coeffs", rep))
            model = BandedVarModel(50, 1, 1, [a], np.eye(50))
            ts = simulate_var(model, 400, rng=substream(9, "innovations", rep))
            trace = select_bandwidth_and_order(ts, K=5, L=3)
            hits += (trace.k_hat, trace.d_hat) == (1, 1)
        assert hits / 50 >= 0.7

    def test_deterministic(self):
        _, ts = simulated(8, 1, 120, 10)
        a = select_bandwidth_and_order(ts, K=3, L=2)
        b = select_bandwidth_and_order(ts, K=3, L=2)
        assert np.array_equal(a.bic, b.bic)
        assert (a.k_hat, a.d_hat) == (b.k_hat, b.d_hat)


class TestJointSelector:
    def test_parameter_count_formula(self):
        assert joint_parameter_count(2, 100) == 396
        assert joint_parameter_count(0, 100) == 0

    def test_equal_rss_picks_smallest(self):
        surface = flat_surface(10, 5)
        choice, curve = joint_bic_from_surface(surface)
        assert choice == 1
        assert np.all(np.diff(curve) > 0)

    def test_runs_on_simulated_data(self):
        _, ts = simulated(20, 1, 300, 11)
        assert joint_bic_select(ts, K=5) in range(1, 6)


class TestOrdering:
    def test_neighbourhood_preserving_permutation_scores_equal(self):
        # reversing the order preserves every series' in-band neighbour set,
        # so the total criterion is unchanged
        ts = TimeSeries(substream(12, "wn").standard_normal((12, 200)))
        ident = ordering_score(ts, np.arange(12), K=4)
        rev = ordering_score(ts, np.arange(12)[::-1], K=4)
        assert abs(ident.score - rev.score) <= 1e-9

    def test_true_ordering_beats_random_at_strong_signal(self):
        # The score compares all equations at the common selected bandwidth,
        # so weak-coupling draws can make a shuffled order score on par with
        # the true one (its bandwidth, hence penalty, is smaller). At spectral
        # norm 0.8 the fit gain dominates and the true order wins.
        wins = 0
        for rep in range(20):
            _, ts = simulated(100, 2, 200, 13000 + rep, target_norm=0.8)
            ident = ordering_score(ts, np.arange(100), K=5)
            perm = substream(14, "perm", rep).permutation(100)
            shuffled = ordering_score(ts, perm, K=5)
            wins += ident.score < shuffled.score
        assert wins / 20 >= 0.9

    def test_invalid_permutation(self):
        ts = TimeSeries(np.zeros((3, 10)))
        with pytest.raises(ValueError, match="permutation"):
            ordering_score(ts, [0, 1, 1])

    def test_axis_orderings(self):
        coords = np.array([[0.0, 5.0], [0.0, 1.0], [0.0, 3.0]])
        (name, perm), = ordering_candidates(coords, ["ns"])
        assert name == "ns"
        assert perm.tolist() == [0, 2, 1]  # descending latitude

    def test_anchor_ordering_on_collinear_points(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        (_, perm), = ordering_candidates(coords, ["anchor:0"])
        assert perm.tolist() == [0, 1, 2]

    def test_diagonal_ties_keep_index_order(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        (_, perm), = ordering_candidates(coords, ["nwse"])
        assert perm.tolist() == [0, 1, 2]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ordering_candidates(np.zeros((3, 2)), ["spiral"])

    def test_missing_coords(self):
        with pytest.raises(ValueError, match="coordinates"):
            ordering_candidates(None, ["ns"])
