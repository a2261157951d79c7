"""Row designs, row fits, whole-model assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    BandedVarModel,
    SingularDesignError,
    TimeSeries,
    build_row_design,
    fit_banded_var,
    fit_row,
    gen_coeff_uniform,
    row_coefficients,
    row_regressor_count,
    simulate_var,
)
from bandedvar.estimation import RowDesign, band_columns
from bandedvar.rng import substream


def constrained_oracle(ts, i, k, d):
    """Full-width regression with out-of-band coefficients pinned to zero,
    solved by normal equations on the support columns."""
    p, n = ts.p, ts.n
    full = np.hstack(
        [ts.values[:, d - lag : n - lag].T for lag in range(1, d + 1)]
    )  # (n-d) x (d p), lag-major then series
    support = [
        (lag - 1) * p + j
        for lag in range(1, d + 1)
        for j in range(p)
        if abs(i - j) <= k
    ]
    x = full[:, support]
    y = ts.values[i, d:]
    return np.linalg.solve(x.T @ x, x.T @ y)


def simulated(p, k0, n, seed, d=1):
    a = gen_coeff_uniform(p, k0, substream(seed, "coeffs"))
    model = BandedVarModel(p, 1, k0, [a], np.eye(p))
    return model, simulate_var(model, n, rng=substream(seed, "innovations"))


class TestRegressorCount:
    def test_boundary_and_interior(self):
        # p=10, k=2, d=1: first row sees 3 regressors, a middle row 5
        assert row_regressor_count(0, 2, 1, 10) == 3
        assert row_regressor_count(4, 2, 1, 10) == 5
        # d=3 multiplies the series count
        assert row_regressor_count(1, 2, 3, 10) == 12

    def test_wide_band_counts_by_index_set(self):
        # k close to p: every row just counts its in-range neighbours
        assert row_regressor_count(0, 7, 1, 8) == 8
        assert row_regressor_count(3, 6, 2, 8) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            row_regressor_count(10, 2, 1, 10)
        with pytest.raises(ValueError):
            row_regressor_count(0, 10, 1, 10)
        with pytest.raises(ValueError):
            row_regressor_count(0, 1, 0, 10)


class TestBuildRowDesign:
    def test_scalar_autoregression(self):
        ts = TimeSeries(np.arange(1.0, 7.0)[None, :])
        design = build_row_design(ts, 0, 0, 1)
        assert design.col_map == ((1, 0),)
        assert np.array_equal(design.y, np.arange(2.0, 7.0))
        assert np.array_equal(design.x[:, 0], np.arange(1.0, 6.0))

    def test_three_series_middle_row(self):
        rng = substream(0, "x")
        ts = TimeSeries(rng.standard_normal((3, 12)))
        design = build_row_design(ts, 1, 1, 1)
        assert design.col_map == ((1, 0), (1, 1), (1, 2))
        assert design.x.shape == (11, 3)
        assert np.array_equal(design.x[:, 0], ts.values[0, :-1])
        assert np.array_equal(design.x[:, 2], ts.values[2, :-1])

    def test_two_lags_boundary_row(self):
        rng = substream(1, "x")
        ts = TimeSeries(rng.standard_normal((3, 15)))
        design = build_row_design(ts, 0, 1, 2)
        assert design.col_map == ((1, 0), (1, 1), (2, 0), (2, 1))
        assert design.x.shape == (13, 4)
        # lag-1 block shifts by one, lag-2 block by two
        assert np.array_equal(design.x[:, 0], ts.values[0, 1:-1])
        assert np.array_equal(design.x[:, 3], ts.values[1, :-2])
        assert np.array_equal(design.y, ts.values[0, 2:])

    def test_insufficient_length(self):
        ts = TimeSeries(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="need n >"):
            build_row_design(ts, 1, 1, 1)


class TestFitRow:
    def test_exact_interpolation(self):
        rng = substream(2, "x")
        x = rng.standard_normal((20, 3))
        beta_true = np.array([0.5, -1.0, 2.0])
        y = x @ beta_true
        design = RowDesign(i=0, k=1, d=1, x=x, y=y, col_map=((1, 0), (1, 1), (1, 2)))
        beta, rss = fit_row(design)
        assert np.allclose(beta, beta_true, atol=1e-8)
        assert rss <= 1e-12 * (y @ y)

    def test_orthogonal_response(self):
        x = np.ones((4, 1))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        design = RowDesign(i=0, k=0, d=1, x=x, y=y, col_map=((1, 0),))
        beta, rss = fit_row(design)
        assert np.allclose(beta, [0.0], atol=1e-14)
        assert np.isclose(rss, y @ y)

    def test_matches_constrained_oracle(self):
        for seed in range(5):
            p = 4 + seed
            model, ts = simulated(p, 1, 50, seed)
            for i in (0, p // 2, p - 1):
                design = build_row_design(ts, i, 1, 1)
                beta, _ = fit_row(design)
                oracle = constrained_oracle(ts, i, 1, 1)
                assert np.abs(beta - oracle).max() < 1e-8

    def test_singular_design_names_row(self):
        x = np.ones((6, 2))
        design = RowDesign(
            i=3, k=1, d=1, x=x, y=np.arange(6.0), col_map=((1, 2), (1, 3))
        )
        with pytest.raises(SingularDesignError) as err:
            fit_row(design)
        assert err.value.row == 3
        assert "lag 1" in str(err.value)


class TestFitBandedVar:
    def test_diagonal_structure_at_k0(self):
        _, ts = simulated(6, 2, 120, 3)
        report = fit_banded_var(ts, 0, 1)
        dense = report.model.coeffs[0].to_dense()
        assert np.array_equal(dense, np.diag(np.diag(dense)))
        assert report.rss.shape == (6,)
        assert np.allclose(report.sigma_hat, report.rss / (ts.n - 1))

    def test_recovers_exact_linear_recursion(self):
        # data that follows the recursion exactly is reproduced exactly
        rng = substream(4, "x")
        a = gen_coeff_uniform(4, 1, rng, target_norm=0.9)
        dense = a.to_dense()
        vals = np.empty((4, 25))
        vals[:, 0] = rng.standard_normal(4)
        for t in range(1, 25):
            vals[:, t] = dense @ vals[:, t - 1]
        report = fit_banded_var(TimeSeries(vals), 1, 1)
        assert np.abs(report.model.coeffs[0].to_dense() - dense).max() < 1e-8
        assert report.rss.max() < 1e-16

    def test_error_shrinks_with_sample_size(self):
        a = gen_coeff_uniform(20, 1, substream(5, "coeffs"))
        model = BandedVarModel(20, 1, 1, [a], np.eye(20))
        errs = []
        for n in (200, 800):
            ts = simulate_var(model, n, rng=substream(5, "innovations", n))
            fit = fit_banded_var(ts, 1).model.coeffs[0].to_dense()
            errs.append(np.sqrt(((fit - a.to_dense()) ** 2).sum()))
        assert errs[1] < errs[0]

    def test_nested_rss_monotone(self):
        _, ts = simulated(8, 1, 100, 6)
        for i in range(8):
            rss = []
            for k in range(0, 4):
                _, r = fit_row(build_row_design(ts, i, k, 1))
                rss.append(r)
            for wide, narrow in zip(rss[1:], rss[:-1]):
                assert wide <= narrow + 1e-8

    def test_scatter_gather_round_trip(self):
        _, ts = simulated(7, 2, 90, 7)
        report = fit_banded_var(ts, 2, 1)
        for i in range(7):
            assert np.array_equal(row_coefficients(report.model, i), report.betas[i])

    def test_projection_form_rss(self):
        _, ts = simulated(5, 1, 60, 8)
        design = build_row_design(ts, 2, 1, 1)
        _, rss = fit_row(design)
        x, y = design.x, design.y
        hat = x @ np.linalg.inv(x.T @ x) @ x.T
        projection_form = y @ (np.eye(len(y)) - hat) @ y
        assert abs(rss - projection_form) <= 1e-8 * max(1.0, projection_form)

    def test_demean_matches_manual_centering(self):
        _, ts = simulated(5, 1, 80, 9)
        shifted = TimeSeries(ts.values + np.arange(5.0)[:, None])
        report = fit_banded_var(shifted, 1, 1, demean=True)
        centered = fit_banded_var(shifted.demeaned()[0], 1, 1)
        assert np.array_equal(
            report.model.coeffs[0].to_dense(), centered.model.coeffs[0].to_dense()
        )
        assert np.allclose(report.means, shifted.values.mean(axis=1))

    def test_aggregate_singular_error_lists_rows(self):
        rng = substream(10, "x")
        base = rng.standard_normal((1, 40))
        vals = np.vstack([base, base, rng.standard_normal((1, 40))])
        with pytest.raises(SingularDesignError) as err:
            fit_banded_var(TimeSeries(vals), 1, 1)
        assert err.value.rows == [0, 1]
        # the first failing row is named down to the lag-major column
        assert err.value.row == 0
        assert "row 0" in str(err.value) and "series 1" in str(err.value)
        assert band_columns(0, 1, 1, 3)[err.value.column] == (1, 1)

    def test_thread_count_does_not_change_result(self):
        _, ts = simulated(12, 2, 150, 11)
        one = fit_banded_var(ts, 2, 1, threads=1)
        four = fit_banded_var(ts, 2, 1, threads=4)
        assert np.array_equal(one.rss, four.rss)
        assert np.array_equal(
            one.model.coeffs[0].to_dense(), four.model.coeffs[0].to_dense()
        )

    @settings(max_examples=40)
    @given(data=st.data(), p=st.integers(2, 12), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_reversed_ordering_mirrors_fit(self, data, p, d, seed):
        # equation i of the reversed panel is equation p-1-i with its
        # neighbours mirrored, so every lag's matrix flips on both axes
        k = data.draw(st.integers(0, p - 1), label="k")
        ts = TimeSeries(np.random.default_rng(seed).standard_normal((p, 4 * d * (2 * k + 1) + 20)))
        fit = fit_banded_var(ts, k, d)
        mirrored = fit_banded_var(ts.permuted(np.arange(p)[::-1]), k, d)
        for a, b in zip(fit.model.coeffs, mirrored.model.coeffs):
            dense = a.to_dense()
            assert np.abs(b.to_dense() - dense[::-1, ::-1]).max() <= 1e-12 * np.abs(dense).max()
        assert np.allclose(mirrored.rss, fit.rss[::-1], rtol=1e-12, atol=0.0)

    def test_residual_variance_ratio_near_one(self):
        # at or above the true bandwidth, rss/(n-d) estimates the unit
        # innovation variance of every equation
        model, ts = simulated(20, 1, 2000, 12)
        for k in (1, 2):
            report = fit_banded_var(ts, k, 1)
            ratio = report.sigma_hat  # sigma_i^2 = 1
            assert ratio.min() >= 0.7 and ratio.max() <= 1.3


class TestBandColumns:
    def test_lag_major_series_ascending(self):
        cols = band_columns(1, 1, 2, 4)
        assert cols == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
