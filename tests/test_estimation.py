"""Regressor counts, band columns, whole-model fits, the banded Gram factor."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from bandedvar import (
    BandedMatrix,
    BandedVarModel,
    SingularDesignError,
    TimeSeries,
    fit_banded_var,
    gen_coeff_uniform,
    row_regressor_count,
    simulate_var,
)
from bandedvar import bench, estimation
from bandedvar.bench import selection_frequency_cell
from bandedvar.estimation import _ring_offsets, _row_qr, band_columns
from bandedvar.rng import substream
from bandedvar.selection import rss_surface


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
        rss = [fit_banded_var(ts, k, 1).rss for k in range(0, 4)]
        for wide, narrow in zip(rss[1:], rss[:-1]):
            assert np.all(wide <= narrow + 1e-8)

    def test_scatter_gather_round_trip(self):
        _, ts = simulated(7, 2, 90, 7)
        report = fit_banded_var(ts, 2, 1)
        model = report.model
        for i in range(7):
            cols = band_columns(i, model.k0, model.d, model.p)
            read_back = [model.coeffs[lag - 1][i, j] for lag, j in cols]
            assert np.array_equal(read_back, report.betas[i])

    def test_projection_form_rss(self):
        _, ts = simulated(5, 1, 60, 8)
        rss = fit_banded_var(ts, 1, 1).rss[2]
        x = np.column_stack([ts.values[j, : ts.n - 1] for _, j in band_columns(2, 1, 1, 5)])
        y = ts.values[2, 1:]
        hat = x @ np.linalg.inv(x.T @ x) @ x.T
        projection_form = y @ (np.eye(len(y)) - hat) @ y
        assert abs(rss - projection_form) <= 1e-8 * max(1.0, projection_form)

    def test_series_too_short_names_row(self):
        # row 0 has 2 regressors and fits; interior row 1 needs one more observation
        ts = TimeSeries(substream(13, "x").standard_normal((3, 4)))
        with pytest.raises(ValueError, match=r"row 1 at \(k=1, d=1\): need n > 4, have n = 4"):
            fit_banded_var(ts, 1, 1)

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


def qr_surface(values, K, d, ks):
    """Every row's RSS over ``ks`` as tail sums of one QR per row."""
    p = values.shape[0]
    rss = np.empty((p, len(ks)))
    for i in range(p):
        last = _row_qr(values, i, K, d)[:, -1]
        tail = np.cumsum(last[::-1] ** 2)[::-1]
        rss[i] = [tail[row_regressor_count(i, k, d, p)] for k in ks]
    return rss


def qr_fit(values, i, k, d):
    """(beta lag-major, RSS) of equation i by back-substitution in its QR factor."""
    p = values.shape[0]
    r = _row_qr(values, i, k, d)
    w = r.shape[0] - 1
    series = i + _ring_offsets(k)
    series = series[(series >= 0) & (series < p)]
    beta = solve_triangular(r[:w, :w], r[:w, w]).reshape(-1, d)[np.argsort(series)]
    return beta.T.ravel(), r[w, w] ** 2


def certified_error(values, i, K, d):
    """eps (y.y / RSS) m / lam of equation i at bandwidth K, by QR and SVD:
    the first-order RSS error bound that the Gram path must certify."""
    p = values.shape[0]
    r = _row_qr(values, i, K, d)
    x = r[:-1, :-1] / np.linalg.norm(r[:-1, :-1], axis=0)
    lam = np.linalg.svd(x, compute_uv=False)[-1] ** 2
    if row_regressor_count(i, K, d, p) < d * (2 * K + 1):
        lam = min(lam, 1.0)  # padding columns add unit eigenvalues
    y = values[i, d:]
    return np.finfo(float).eps * (y @ y / r[-1, -1] ** 2) * d * (2 * K + 1) / lam


def assert_fit_matches_qr(ts, k, d, tol=1e-10):
    fit = fit_banded_var(ts, k, d)
    for i in range(ts.p):
        beta, rss = qr_fit(ts.values, i, k, d)
        assert np.abs(fit.betas[i] - beta).max() <= tol * np.abs(beta).max()
        assert abs(fit.rss[i] / rss - 1.0) <= tol


class TestGramFactor:
    """The banded Gram path agrees with one QR per row, and its guard sends
    exactly the rows it should to that QR."""

    @settings(max_examples=60)
    @given(
        data=st.data(),
        p=st.integers(2, 40),
        d=st.integers(1, 3),
        include_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([64, estimation._BLOCK_ENTRIES]),
    )
    def test_equals_row_qr(self, data, p, d, include_zero, seed, budget):
        # K up to p - 1 makes most rows edge rows; n starts just above the
        # shortest series every row can fit; a small budget makes many blocks
        K = data.draw(st.integers(1, p - 1), label="K")
        n = d + d * min(p, 2 * K + 1) + 1 + data.draw(st.integers(0, 40), label="extra")
        ts = TimeSeries(np.random.default_rng(seed).standard_normal((p, n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_BLOCK_ENTRIES", budget)
            surface = rss_surface(ts, d=d, K=K, include_zero=include_zero)
            qr = qr_surface(ts.values, K, d, surface.ks)
            assert np.abs(surface.rss / qr - 1.0).max() <= 1e-10
            assert_fit_matches_qr(ts, data.draw(st.integers(0, K), label="k"), d)

    def test_worker_count_is_bitwise_invisible(self):
        # three blocks of rows, one series far above its noise so some rows
        # take the QR fallback
        vals = substream(31, "x").standard_normal((50, 160))
        vals[20] += 1e4
        ts = TimeSeries(vals)
        one, three = (rss_surface(ts, d=2, K=6, threads=t) for t in (1, 3))
        assert one.rss.tobytes() == three.rss.tobytes()
        assert one.qr_rows == three.qr_rows and len(one.qr_rows) > 0
        fits = [fit_banded_var(ts, 6, 2, threads=t) for t in (1, 3)]
        assert fits[0].rss.tobytes() == fits[1].rss.tobytes()
        for a, b in zip(fits[0].model.coeffs, fits[1].model.coeffs):
            assert a.to_dense().tobytes() == b.to_dense().tobytes()

    @pytest.mark.parametrize(
        "family, size, listed",
        [
            ("level", 1.0e4, ()),
            ("level", 2.0e4, (0,)),
            ("collinear", 0.02, ()),
            ("collinear", 0.008, (2, 3)),
        ],
    )
    def test_certificate_at_its_threshold(self, family, size, listed):
        # "level": series 0 is series 1 one step later plus noise of variance
        # 1 / size, so row 0's y.y / RSS is near ``size`` on a well-conditioned
        # design; "collinear": series 3 is series 2 plus noise of scale
        # ``size``, so rows 2 and 3 have a small smallest eigenvalue
        rng = substream(32, family)
        vals = rng.standard_normal((8, 1000))
        if family == "level":
            vals[0, 1:] = vals[1, :-1] + rng.standard_normal(999) / np.sqrt(size)
        else:
            vals[3] = vals[2] + size * rng.standard_normal(1000)
        ts = TimeSeries(vals)
        surface = rss_surface(ts, d=1, K=1)
        bound = [certified_error(ts.values, i, 1, 1) for i in range(8)]
        assert all(abs(np.log(b / estimation._CERT_TOL)) > 0.1 for b in bound)
        above = tuple(i for i, b in enumerate(bound) if b > estimation._CERT_TOL)
        assert surface.qr_rows == listed == above
        assert np.abs(surface.rss / qr_surface(ts.values, 1, 1, surface.ks) - 1.0).max() <= 1e-10
        assert_fit_matches_qr(ts, 1, 1)

    @pytest.mark.parametrize("scale, listed", [(1e-9, ()), (1e-11, (2, 3, 4))])
    def test_pivot_guard_keeps_the_rank_decision(self, scale, listed):
        # series 3 far below the others: its column is well conditioned once
        # scaled, but below 100 RANK_TOL of the largest pivot the row goes to
        # QR, which decides the rank; at 1e-11 QR still accepts it
        vals = substream(33, "x").standard_normal((6, 200))
        vals[3] *= scale
        ts = TimeSeries(vals)
        surface = rss_surface(ts, d=1, K=1)
        assert surface.qr_rows == listed
        assert np.abs(surface.rss / qr_surface(ts.values, 1, 1, surface.ks) - 1.0).max() <= 1e-10
        assert_fit_matches_qr(ts, 1, 1)
        vals[3] *= 1e-13 / scale  # below RANK_TOL: the named error of QR
        with pytest.raises(SingularDesignError, match=r"row 2:.*series 3\)"):
            rss_surface(TimeSeries(vals), d=1, K=1)

    def test_failed_cholesky_sends_its_whole_block(self):
        # series 20 is zero after its first value, so row 20's y is zero and
        # its Gram matrix singular: every row of its block takes the QR path,
        # which fits them (row 20's RSS is 0). A first value of 10 keeps the
        # other rows, whose designs hold that single nonzero lag, on the Gram
        # path.
        vals = substream(34, "x").standard_normal((40, 200))
        vals[20] = 0.0
        vals[20, 0] = 10.0
        ts = TimeSeries(vals)
        surface = rss_surface(ts, d=1, K=15)
        size = estimation._BLOCK_ENTRIES // 32**2
        start = 20 // size * size
        assert surface.qr_rows == tuple(range(start, min(start + size, 40)))
        assert surface.rss[20].max() == 0.0
        good = np.arange(40) != 20
        qr = qr_surface(ts.values, 15, 1, surface.ks)
        assert np.abs(surface.rss[good] / qr[good] - 1.0).max() <= 1e-10

    def test_series_level_is_reported(self):
        _, ts = simulated(40, 2, 200, 35)
        assert rss_surface(ts, d=1, K=15).qr_rows == ()
        shifted = TimeSeries(ts.values + 1e3)
        assert rss_surface(shifted, d=1, K=15).qr_rows == tuple(range(40))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["zero", "duplicate"])
    def test_singular_designs_name_the_first_row(self, kind, d):
        # the rows, columns and series named by the one-QR-per-row code
        vals = substream(21, "x").standard_normal((40, 120))
        if kind == "zero":
            vals[25] = 0.0
            surface_row, fit_rows, series = 21, list(range(22, 29)), 25
        else:
            vals[30] = vals[27]
            surface_row, fit_rows, series = 26, list(range(27, 31)), 30
        ts = TimeSeries(vals)
        named = rf"row {surface_row}:.*series {series}\)"
        with pytest.raises(SingularDesignError, match=named) as err:
            rss_surface(ts, d=d, K=4)
        assert (err.value.row, err.value.column) == (surface_row, 8)
        with pytest.raises(SingularDesignError) as err:
            fit_banded_var(ts, 3, d)
        assert (err.value.row, err.value.column, err.value.rows) == (fit_rows[0], 6, fit_rows)
        assert f"series {series})" in str(err.value)

    @settings(max_examples=60)
    @given(
        data=st.data(), p=st.integers(3, 14), d=st.integers(1, 2),
        duplicate=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_every_singular_row_is_named(self, data, p, d, duplicate, seed):
        # reference: the rows where one QR per row raises, every row scanned
        k = data.draw(st.integers(1, min(4, p - 1)), label="k")
        n = d * (2 * k + 2) + 1 + data.draw(st.integers(0, 40), label="extra")
        vals = substream(seed, "x").standard_normal((p, n))
        a = data.draw(st.integers(0, p - 1), label="series")
        if duplicate:
            b = data.draw(st.integers(0, p - 1).filter(lambda b: b != a), label="copy")
            vals[b] = data.draw(st.sampled_from([1.0, -1.0, 2.0]), label="scale") * vals[a]
        else:
            vals[a] = 0.0
        ts = TimeSeries(vals)
        want = []
        for i in range(p):
            try:
                _row_qr(vals, i, k, d)
            except SingularDesignError:
                want.append(i)
        for run in (lambda: fit_banded_var(ts, k, d), lambda: rss_surface(ts, d=d, K=k)):
            if not want:
                run()
                continue
            with pytest.raises(SingularDesignError) as err:
                run()
            assert err.value.rows == want and err.value.row == want[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_too_short_row_wins_over_a_singular_one(self, threads):
        # row 0 is singular (series 0 is zero); interior row 1 needs n > 4
        vals = substream(36, "x").standard_normal((5, 4))
        vals[0] = 0.0
        ts = TimeSeries(vals)
        with pytest.raises(ValueError, match=r"row 1 at \(k=1, d=1\)"):
            fit_banded_var(ts, 1, 1, threads=threads)
        with pytest.raises(ValueError, match=r"row 1 at \(k=1, d=1\)"):
            rss_surface(ts, d=1, K=1, threads=threads)


class TestEstimationErrorCell:
    """``estimation_error_cell`` scores fit - truth in band storage."""

    @settings(max_examples=60)
    @given(data=st.data(), p=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_band_difference_bitwise_dense(self, data, p, seed):
        ka = data.draw(st.integers(0, p - 1), label="ka")
        kb = data.draw(st.integers(0, p - 1), label="kb")
        rng = np.random.default_rng(seed)
        a, b = (
            BandedMatrix(p, k, [rng.standard_normal(p - abs(o)) for o in range(-k, k + 1)])
            for k in (ka, kb)
        )
        diff = bench._band_difference(a, b)
        assert diff.k == max(ka, kb)
        assert np.array_equal(diff.to_dense(), a.to_dense() - b.to_dense())

    @pytest.mark.parametrize(
        "setting, seed, k_hat", [("uniform", 0, 1), ("uniform", 1, 2), ("uniform", 3, 3)]
    )
    def test_errors_equal_dense_norms(self, setting, seed, k_hat):
        p, k0, n, K = 20, 2, 50, 6
        cell = bench.estimation_error_cell(setting, p, k0, n=n, reps=1, K=K, seed=seed)
        assert cell["k_hat_mean"] == k_hat  # below, at and above k0
        model, ts = bench._draw_and_simulate(setting, p, k0, n, seed, 0)
        truth = model.coeffs[0].to_dense()
        for name, k in (("estimated", k_hat), ("true", k0)):
            err = fit_banded_var(ts, k).model.coeffs[0].to_dense() - truth
            l1, l2 = np.abs(err).sum(axis=0).max(), np.linalg.norm(err, 2)
            for norm, want in (("l1", l1), ("l2", l2)):
                assert abs(cell[f"{name}_{norm}"]["mean"] - want) <= 1e-12 * want


class TestWorkerCount:
    """A worker count that is not an integer of at least 1 is a named error,
    before any worker starts."""

    BAD = [0, -3, 2.5, 1.0, True, "2", None]

    @pytest.mark.parametrize("threads", BAD)
    def test_rss_surface_rejects(self, threads):
        _, ts = simulated(8, 1, 60, 31)
        named = re.escape(f"threads must be an integer >= 1, got {threads!r}")
        with pytest.raises(ValueError, match=named):
            rss_surface(ts, d=1, K=2, threads=threads)

    @pytest.mark.parametrize("threads", BAD)
    def test_bench_cell_rejects(self, threads):
        with pytest.raises(ValueError, match=re.escape(f"got {threads!r}")):
            selection_frequency_cell("uniform", 8, 1, n=60, reps=2, K=2, seed=31, threads=threads)

    def test_numpy_integer_accepted(self):
        _, ts = simulated(8, 1, 60, 31)
        one = rss_surface(ts, d=1, K=2, threads=1)
        two = rss_surface(ts, d=1, K=2, threads=np.int64(2))
        assert np.array_equal(one.rss, two.rss)
