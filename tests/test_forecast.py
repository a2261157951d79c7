"""Prediction recursion, post-sample scoring, seasonal preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    BandedMatrix,
    BandedVarModel,
    FitSpec,
    TimeSeries,
    deseasonalize,
    fit_banded_var,
    gen_coeff_uniform,
    predict,
    rolling_evaluation,
    simulate_var,
)
from bandedvar.forecast import _fit_window
from bandedvar.rng import substream


def zero_model(p):
    return BandedVarModel(p, 1, 0, [BandedMatrix.zeros(p, 0)], np.eye(p))


def stationary_model(p, k0, seed, norm=None):
    a = gen_coeff_uniform(p, k0, substream(seed, "coeffs"), target_norm=norm)
    return BandedVarModel(p, 1, k0, [a], np.eye(p))


class TestPredict:
    def test_zero_model_predicts_offset(self):
        history = substream(0, "x").standard_normal((3, 10))
        assert np.array_equal(predict(zero_model(3), history, 2), np.zeros((3, 2)))
        mean = np.array([1.0, -2.0, 3.0])
        out = predict(zero_model(3), history, 2, mean=mean)
        assert np.allclose(out, np.column_stack([mean, mean]))
        table = np.arange(12.0).reshape(3, 4)  # period 4; history holds times 0..9
        out = predict(zero_model(3), history, 3, mean=table)
        assert np.array_equal(out, table[:, [2, 3, 0]])

    def test_malformed_offsets_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            predict(zero_model(3), np.zeros((3, 5)), 1, mean=np.zeros((2, 4)))

    @settings(max_examples=30)
    @given(
        p=st.integers(1, 8), d=st.integers(1, 3), h=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_offsets_equal_one_column_table(self, p, d, h, seed):
        rng = np.random.default_rng(seed)
        k = min(1, p - 1)
        coeffs = [
            BandedMatrix.from_dense(np.triu(np.tril(rng.uniform(-0.3, 0.3, (p, p)), k), -k), k)
            for _ in range(d)
        ]
        model = BandedVarModel(p, d, k, coeffs)
        history = rng.standard_normal((p, d + 5)) + 1e3
        mean = rng.standard_normal(p) + 1e3
        vector = predict(model, history, h, mean=mean)
        assert np.array_equal(vector, predict(model, history, h, mean=mean[:, None]))

    def test_two_step_is_squared_matrix(self):
        model = stationary_model(5, 1, 1, norm=0.9)
        a = model.coeffs[0].to_dense()
        history = substream(1, "x").standard_normal((5, 4))
        out = predict(model, history, 2)
        assert np.allclose(out[:, 1], a @ a @ history[:, -1], atol=1e-12)

    def test_scalar_halving(self):
        coeff = BandedMatrix.from_dense(np.array([[0.5]]), 0)
        model = BandedVarModel(1, 1, 0, [coeff], np.eye(1))
        out = predict(model, np.array([[4.0]]), 2)
        assert np.allclose(out, [[2.0, 1.0]])

    def test_insufficient_history(self):
        model = BandedVarModel(2, 3, 0, [BandedMatrix.zeros(2, 0)] * 3)
        with pytest.raises(ValueError, match="history"):
            predict(model, np.zeros((2, 2)), 1)

    def test_overflowing_recursion_rejected(self):
        coeff = BandedMatrix.from_dense(np.array([[4.0]]), 0)
        model = BandedVarModel(1, 1, 0, [coeff], np.eye(1))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            predict(model, np.array([[1e300]]), h=20)

    def test_linear_in_history(self):
        model = stationary_model(4, 1, 2)
        history = substream(2, "x").standard_normal((4, 6))
        one = predict(model, history, 3)
        two = predict(model, 2.5 * history, 3)
        assert np.allclose(two, 2.5 * one, atol=1e-10)

    def test_second_order_recursion(self):
        a1 = BandedMatrix.from_dense(0.4 * np.eye(2), 0)
        a2 = BandedMatrix.from_dense(0.2 * np.eye(2), 0)
        model = BandedVarModel(2, 2, 0, [a1, a2])
        hist = np.array([[1.0, 0.0], [2.0, 1.0]])  # p x 2: y_0=(1,2), y_1=(0,1)
        out = predict(model, hist, 2)
        step1 = 0.4 * hist[:, 1] + 0.2 * hist[:, 0]
        step2 = 0.4 * step1 + 0.2 * hist[:, 1]
        assert np.allclose(out[:, 0], step1)
        assert np.allclose(out[:, 1], step2)

    @settings(max_examples=150)
    @given(
        data=st.data(),
        p=st.integers(1, 12),
        d=st.integers(1, 3),
        h=st.integers(1, 5),
        extra=st.integers(0, 4),
        offsets=st.sampled_from(["none", "vector", "period"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_matvec_steps(self, data, p, d, h, extra, offsets, seed):
        # reference: a list of the last d states, each step summed into zeros
        # by one matvec per lag, lag 1 first
        rng = np.random.default_rng(seed)
        k0 = data.draw(st.integers(0, p - 1), label="k0")
        coeffs = []
        for _ in range(d):
            k = data.draw(st.integers(0, k0), label="k")
            diags = [rng.uniform(-0.6, 0.6, p - abs(o)) for o in range(-k, k + 1)]
            coeffs.append(BandedMatrix(p, k, diags))
        model = BandedVarModel(p, d, k0, coeffs)
        history = rng.standard_normal((p, d + extra)) + 5.0
        mean = {
            "none": None,
            "vector": rng.standard_normal(p) + 5.0,
            "period": rng.standard_normal((p, data.draw(st.integers(1, 4), label="period"))),
        }[offsets]
        out = predict(model, history, h, mean=mean)

        m = history.shape[1]
        vals, table = history, None
        if mean is not None:
            table = mean.reshape(p, -1)
            table = table[:, np.arange(m - d, m + h) % table.shape[1]]
            vals = history[:, m - d :] - table[:, :d]
        state = [vals[:, -ell] for ell in range(1, d + 1)]
        ref = np.empty((p, h))
        for s in range(h):
            nxt = np.zeros(p)
            for ell, a in enumerate(coeffs):
                nxt += a.matvec(state[ell])
            ref[:, s] = nxt
            state = [nxt] + state[: d - 1]
        if table is not None:
            ref = ref + table[:, d:]
        assert out.flags.c_contiguous
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


class TestRollingEvaluation:
    def test_perfect_model_zero_errors(self):
        model = stationary_model(4, 1, 3, norm=0.9)
        a = model.coeffs[0].to_dense()
        vals = np.empty((4, 40))
        vals[:, 0] = substream(3, "x").standard_normal(4)
        for t in range(1, 40):
            vals[:, t] = a @ vals[:, t - 1]
        report = rolling_evaluation(
            TimeSeries(vals), holdout=5, h_max=2, model=model
        )
        for h in (1, 2):
            assert report.errors[h].max() < 1e-10

    def test_white_noise_zero_model_matches_folded_normal(self):
        vals = substream(4, "wn").standard_normal((50, 300))
        report = rolling_evaluation(
            TimeSeries(vals), holdout=30, h_max=1, model=zero_model(50)
        )
        mean_abs = report.summary[1][0]
        assert abs(mean_abs - 0.7979) < 0.05

    def test_two_step_harder_than_one_step(self):
        wins = 0
        for rep in range(20):
            model = stationary_model(10, 1, 500 + rep)
            ts = simulate_var(model, 330, rng=substream(500 + rep, "innovations"))
            report = rolling_evaluation(
                ts, FitSpec(k=1, demean=False), holdout=30, h_max=2
            )
            wins += report.summary[2][0] >= report.summary[1][0]
        assert wins / 20 >= 0.8

    def test_single_point_holdout_equals_direct_predict(self):
        model = stationary_model(6, 1, 6)
        ts = simulate_var(model, 120, rng=substream(6, "innovations"))
        report = rolling_evaluation(
            ts, FitSpec(k=1, demean=False), holdout=1, h_max=1
        )
        train = ts.window(0, ts.n - 1)
        refit = fit_banded_var(train, 1)
        direct = predict(refit.model, train, 1)[:, 0]
        manual = np.abs(direct - ts.values[:, -1])
        assert np.allclose(report.errors[1][:, 0], manual, atol=1e-12)

    def test_summary_recomputable_and_squared_metric(self):
        model = stationary_model(5, 1, 7)
        ts = simulate_var(model, 150, rng=substream(7, "innovations"))
        report = rolling_evaluation(
            ts, FitSpec(k=1, demean=False), holdout=10, h_max=2, metric="squared"
        )
        stored = dict(report.summary)
        assert report.recompute_summary() == stored
        assert np.all(report.errors[1] >= 0.0)

    def test_refit_changes_nothing_on_fixed_spec_but_runs(self):
        model = stationary_model(4, 1, 8)
        ts = simulate_var(model, 140, rng=substream(8, "innovations"))
        fixed = rolling_evaluation(ts, FitSpec(k=1, demean=False), holdout=4, h_max=1)
        refit = rolling_evaluation(
            ts, FitSpec(k=1, demean=False), holdout=4, h_max=1, refit=True
        )
        assert fixed.errors[1].shape == refit.errors[1].shape
        assert not np.array_equal(fixed.errors[1], refit.errors[1])

    @settings(max_examples=15)
    @given(p=st.integers(4, 8), refit=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_period_one_equals_demeaning(self, p, refit, seed):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(rng.standard_normal((p, 60)) + rng.uniform(-1e3, 1e3, (p, 1)))
        runs = [
            rolling_evaluation(ts, spec, holdout=4, h_max=2, refit=refit)
            for spec in (FitSpec(K=3, period=1, demean=False), FitSpec(K=3, demean=True))
        ]
        assert runs[0].k_used == runs[1].k_used
        for h in (1, 2):
            assert np.array_equal(runs[0].errors[h], runs[1].errors[h])

    @settings(max_examples=40)
    @given(
        p=st.integers(2, 6), d=st.integers(1, 2), holdout=st.integers(1, 8),
        h_max=st.integers(1, 4), refit=st.booleans(),
        offsets=st.sampled_from(["none", "mean", "period"]), squared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_horizon_predictions(
        self, p, d, holdout, h_max, refit, offsets, squared, seed
    ):
        rng = np.random.default_rng(seed)
        ts = simulate_var(stationary_model(p, min(1, (p - 1) // 2), seed), 45, rng=rng)
        ts = TimeSeries(ts.values + rng.uniform(-50, 50, (p, 1)) + np.arange(45) % 3)
        period = {"none": None, "mean": None, "period": 3}[offsets]
        spec = FitSpec(d=d, K=min(2, p - 1), demean=offsets == "mean", period=period)
        metric = "squared" if squared else "absolute"
        report = rolling_evaluation(
            ts, spec, holdout=holdout, h_max=h_max, refit=refit, metric=metric
        )
        # the loop this replaced: one prediction per (target, horizon)
        train_end, vals, fitted, k_used = ts.n - holdout, ts.values, {}, None
        for col, t in enumerate(range(train_end, ts.n)):
            for s in range(1, h_max + 1):
                length = t - s + 1 if refit else train_end
                if length not in fitted:
                    fitted[length] = _fit_window(ts.window(0, length), spec, 1)
                model, k, table = fitted[length]
                k_used = k if k_used is None else k_used
                diff = predict(model, vals[:, : t - s + 1], h=s, mean=table)[:, -1] - vals[:, t]
                want = np.abs(diff) if metric == "absolute" else diff**2
                got = report.errors[s][:, col]
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert report.k_used == k_used

    def test_degenerate_window_rejected(self):
        ts = TimeSeries(np.zeros((2, 10)))
        with pytest.raises(ValueError, match="degenerate|short"):
            rolling_evaluation(ts, FitSpec(k=0, demean=False), holdout=9, h_max=1)


class TestDeseasonalize:
    def test_period_one_is_demeaning(self):
        ts = TimeSeries(substream(9, "x").standard_normal((4, 30)) + 5.0)
        adjusted, seasonal = deseasonalize(ts, 1)
        assert seasonal.shape == (4, 1)
        assert np.allclose(adjusted.values, ts.values - ts.values.mean(axis=1, keepdims=True))

    def test_exactly_periodic_input_vanishes(self):
        base = np.array([1.0, -2.0, 3.0, 0.5])
        vals = np.tile(base, (2, 5))
        adjusted, _ = deseasonalize(TimeSeries(vals), 4)
        assert np.abs(adjusted.values).max() < 1e-12

    def test_sinusoid_phase_means_vanish(self):
        t = np.arange(52 * 6)
        vals = np.vstack(
            [
                10 * np.sin(2 * np.pi * t / 52),
                3 * np.cos(2 * np.pi * t / 52),
            ]
        ) + substream(10, "noise").standard_normal((2, len(t)))
        adjusted, _ = deseasonalize(TimeSeries(vals), 52)
        phases = np.arange(len(t)) % 52
        for s in range(52):
            assert np.abs(adjusted.values[:, phases == s].mean(axis=1)).max() < 1e-12

    def test_re_adding_reproduces_input(self):
        ts = TimeSeries(substream(11, "x").standard_normal((3, 40)))
        adjusted, seasonal = deseasonalize(ts, 7)
        phases = np.arange(40) % 7
        assert np.allclose(adjusted.values + seasonal[:, phases], ts.values, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="period"):
            deseasonalize(TimeSeries(np.zeros((2, 5))), 10)
