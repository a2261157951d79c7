"""Model containers, companion form, stationarity, implied autocovariances."""

import numpy as np
import pytest

from bandedvar import (
    BandedMatrix,
    BandedVarModel,
    BandedVarError,
    NonStationaryError,
    TimeSeries,
    banded_approximation_gap,
    companion_matrix,
    frobenius_norm,
    gen_coeff_uniform,
    gen_sigma_eps_structured,
    is_stationary,
    l1_norm,
    spectral_norm,
    theoretical_autocov_var1,
)
from bandedvar.rng import substream


def banded_model(p, k0, rng, sigma=None, target_norm=None):
    a = gen_coeff_uniform(p, k0, rng, target_norm=target_norm)
    return BandedVarModel(p, 1, k0, [a], np.eye(p) if sigma is None else sigma)


def scaled_identity_model(p, a):
    coeff = BandedMatrix.from_dense(a * np.eye(p), 0)
    return BandedVarModel(p, 1, 0, [coeff], np.eye(p))


class TestContainers:
    def test_timeseries_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([[1.0, np.nan]]))

    def test_timeseries_label_length(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 5)), labels=("a",))

    def test_permuted_moves_labels_and_coords(self):
        ts = TimeSeries(
            np.arange(6.0).reshape(3, 2),
            labels=("a", "b", "c"),
            coords=[(0, 0), (1, 0), (2, 0)],
        )
        out = ts.permuted([2, 0, 1])
        assert out.labels == ("c", "a", "b")
        assert np.array_equal(out.values[0], ts.values[2])
        assert np.array_equal(out.coords[0], ts.coords[2])

    def test_model_band_constraint(self):
        wide = BandedMatrix.zeros(5, 2)
        with pytest.raises(ValueError, match="bandwidth"):
            BandedVarModel(5, 1, 1, [wide])

    def test_model_sigma_validation(self):
        a = [BandedMatrix.zeros(3, 0)]
        bad_sym = np.eye(3)
        bad_sym[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            BandedVarModel(3, 1, 0, a, bad_sym)
        with pytest.raises(ValueError, match="eigenvalue"):
            BandedVarModel(3, 1, 0, a, -np.eye(3))

    def test_json_round_trip(self):
        model = banded_model(6, 2, substream(1, "coeffs"), sigma=gen_sigma_eps_structured(6))
        doc = model.to_dict(means=np.arange(6.0))
        back = BandedVarModel.from_dict(doc)
        assert back.p == 6 and back.d == 1 and back.k0 == 2
        assert np.array_equal(back.coeffs[0].to_dense(), model.coeffs[0].to_dense())
        assert np.array_equal(back.sigma_eps, model.sigma_eps)

    def test_json_load_revalidates_band(self):
        doc = {
            "schema_version": 1,
            "p": 3,
            "d": 1,
            "k0": 0,
            "coeffs": [np.ones((3, 3)).tolist()],
        }
        with pytest.raises(ValueError, match="outside bandwidth"):
            BandedVarModel.from_dict(doc)


class TestCompanion:
    def test_first_order_equals_coefficient(self):
        model = banded_model(5, 1, substream(2, "coeffs"))
        assert np.array_equal(companion_matrix(model), model.coeffs[0].to_dense())

    def test_second_order_block_layout(self):
        rng = substream(3, "coeffs")
        a1 = BandedMatrix.from_dense(0.3 * np.eye(2), 0)
        a2 = BandedMatrix.from_dense(0.1 * np.eye(2), 0)
        model = BandedVarModel(2, 2, 0, [a1, a2])
        comp = companion_matrix(model)
        assert comp.shape == (4, 4)
        assert np.array_equal(comp[:2, :2], a1.to_dense())
        assert np.array_equal(comp[:2, 2:], a2.to_dense())
        assert np.array_equal(comp[2:, :2], np.eye(2))
        assert np.array_equal(comp[2:, 2:], np.zeros((2, 2)))

    def test_zero_coefficients_give_nilpotent_shift(self):
        model = BandedVarModel(2, 3, 0, [BandedMatrix.zeros(2, 0)] * 3)
        comp = companion_matrix(model)
        assert np.array_equal(np.linalg.matrix_power(comp, 3), np.zeros((6, 6)))


class TestStationarity:
    def test_half_identity_is_stationary(self):
        assert is_stationary(scaled_identity_model(4, 0.5))

    def test_unit_root_is_not(self):
        assert not is_stationary(scaled_identity_model(4, 1.0))

    def test_generated_models_stationary_with_eigen_oracle(self):
        for rep in range(10):
            model = banded_model(20, 2, substream(4, "coeffs", rep))
            assert is_stationary(model)
            radius = np.abs(np.linalg.eigvals(model.coeffs[0].to_dense())).max()
            assert radius < 1.0


class TestTheoreticalAutocov:
    def test_white_noise(self):
        model = scaled_identity_model(3, 0.0)
        assert np.allclose(theoretical_autocov_var1(model, 0), np.eye(3), atol=1e-12)
        assert np.allclose(theoretical_autocov_var1(model, 1), np.zeros((3, 3)), atol=1e-12)

    def test_scalar_closed_form(self):
        model = scaled_identity_model(1, 0.5)
        assert np.isclose(theoretical_autocov_var1(model, 0)[0, 0], 4.0 / 3.0, atol=1e-10)

    def test_lyapunov_identity(self):
        model = banded_model(4, 1, substream(5, "coeffs"))
        sigma0 = theoretical_autocov_var1(model, 0)
        a = model.coeffs[0].to_dense()
        resid = sigma0 - a @ sigma0 @ a.T - model.sigma_eps
        assert frobenius_norm(resid) <= 1e-8 * frobenius_norm(sigma0)

    def test_symmetric_psd(self):
        model = banded_model(8, 2, substream(6, "coeffs"), sigma=gen_sigma_eps_structured(8))
        sigma0 = theoretical_autocov_var1(model, 0)
        assert np.abs(sigma0 - sigma0.T).max() < 1e-10
        assert np.linalg.eigvalsh(sigma0).min() >= -1e-8

    def test_near_unit_root_is_exact(self):
        # a term-count cap on the series would stop far short here
        model = scaled_identity_model(2, 0.9999)
        exact = 1.0 / (1.0 - 0.9999**2)
        sigma0 = theoretical_autocov_var1(model, 0)
        assert np.allclose(sigma0, exact * np.eye(2), rtol=1e-10, atol=0.0)
        assert np.allclose(theoretical_autocov_var1(model, 3), 0.9999**3 * sigma0, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [8, 50])
    @pytest.mark.parametrize("norm", [0.5, 0.9, 0.99])
    def test_matches_lyapunov_solver(self, p, norm):
        from scipy.linalg import solve_discrete_lyapunov

        model = banded_model(
            p, 2, substream(18, "coeffs", p), sigma=gen_sigma_eps_structured(p), target_norm=norm
        )
        a = model.coeffs[0].to_dense()
        sigma0 = theoretical_autocov_var1(model, 0)
        reference = solve_discrete_lyapunov(a, model.sigma_eps)
        scale = np.abs(reference).max()
        assert np.abs(sigma0 - reference).max() <= 1e-12 * scale
        resid = sigma0 - a @ sigma0 @ a.T - model.sigma_eps
        assert np.abs(resid).max() <= 1e-14 * scale

    def test_higher_lag_orientation(self):
        # cov(y_t, y_{t+2}) post-multiplies the variance by the transposed
        # squared coefficient, the orientation the sample estimator targets
        model = banded_model(4, 1, substream(7, "coeffs"))
        sigma0 = theoretical_autocov_var1(model, 0)
        sigma2 = theoretical_autocov_var1(model, 2)
        a = model.coeffs[0].to_dense()
        assert np.allclose(sigma2, sigma0 @ a.T @ a.T, atol=1e-10)

    def test_lag_one_matches_long_simulation(self):
        from bandedvar import sample_autocov, simulate_var

        model = banded_model(6, 1, substream(17, "coeffs"), target_norm=0.7)
        sigma1 = theoretical_autocov_var1(model, 1)
        ts = simulate_var(model, 200_000, rng=substream(17, "innovations"))
        empirical = sample_autocov(ts, 1)
        assert frobenius_norm(empirical - sigma1) <= 0.05 * frobenius_norm(sigma1)

    def test_errors(self):
        with pytest.raises(NonStationaryError):
            theoretical_autocov_var1(scaled_identity_model(2, 1.2))
        two = BandedVarModel(2, 2, 0, [BandedMatrix.zeros(2, 0)] * 2, np.eye(2))
        with pytest.raises(BandedVarError, match="order"):
            theoretical_autocov_var1(two)
        with pytest.raises(ValueError, match="innovation covariance"):
            theoretical_autocov_var1(BandedVarModel(2, 1, 0, [BandedMatrix.zeros(2, 0)]))
        with pytest.raises(ValueError, match="lag"):
            theoretical_autocov_var1(scaled_identity_model(2, 0.5), -1)


class TestBandedApproximationGap:
    def test_converged_truncation_has_no_gap(self):
        model = scaled_identity_model(3, 0.5)
        spec_gap, l1_gap = banded_approximation_gap(model, 0, 60)
        assert spec_gap < 1e-12
        assert l1_gap < 1e-12

    def test_zero_coefficient_gap_is_zero(self):
        model = scaled_identity_model(3, 0.0)
        for r in range(3):
            assert banded_approximation_gap(model, 0, r) == (0.0, 0.0)

    def test_geometric_decay(self):
        model = banded_model(
            50, 2, substream(8, "coeffs"),
            sigma=gen_sigma_eps_structured(50), target_norm=0.8,
        )
        assert np.isclose(spectral_norm(model.coeffs[0].to_dense()), 0.8, atol=1e-8)
        gaps = [banded_approximation_gap(model, 0, r)[0] for r in range(2, 12)]
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            assert lo <= (0.8**2 + 0.1) * hi

    def test_non_increasing_in_r(self):
        model = banded_model(12, 2, substream(9, "coeffs"), target_norm=0.85)
        spec = []
        l1 = []
        for r in range(8):
            s, one = banded_approximation_gap(model, 0, r)
            spec.append(s)
            l1.append(one)
        assert all(b <= a + 1e-12 for a, b in zip(spec, spec[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(l1, l1[1:]))

    def test_near_unit_root_tail_is_exact(self):
        model = scaled_identity_model(2, 0.9999)
        for r in (0, 5):
            exact = 0.9999 ** (2 * (r + 1)) / (1.0 - 0.9999**2)
            spec_gap, l1_gap = banded_approximation_gap(model, 0, r)
            assert abs(spec_gap - exact) <= 1e-10 * exact
            assert abs(l1_gap - exact) <= 1e-10 * exact

    def test_tail_equals_variance_minus_truncation(self):
        model = banded_model(10, 2, substream(19, "coeffs"), target_norm=0.7)
        a = model.coeffs[0].to_dense()
        sigma1 = theoretical_autocov_var1(model, 1)
        truncation = sum(
            np.linalg.matrix_power(a, i) @ model.sigma_eps @ np.linalg.matrix_power(a.T, i + 1)
            for i in range(4)
        )
        tail = sigma1 - truncation
        spec_gap, l1_gap = banded_approximation_gap(model, 1, 3)
        assert np.isclose(spec_gap, spectral_norm(tail), rtol=1e-10, atol=0.0)
        assert np.isclose(l1_gap, l1_norm(tail), rtol=1e-10, atol=0.0)

    def test_errors_match_implied_autocov(self):
        with pytest.raises(NonStationaryError):
            banded_approximation_gap(scaled_identity_model(2, 1.2), 0, 1)
        two = BandedVarModel(2, 2, 0, [BandedMatrix.zeros(2, 0)] * 2, np.eye(2))
        with pytest.raises(BandedVarError, match="order"):
            banded_approximation_gap(two, 0, 1)
        with pytest.raises(ValueError, match="truncation"):
            banded_approximation_gap(scaled_identity_model(2, 0.5), 0, -1)

    def test_negative_lag_rejected(self):
        # the lag-0 gap must not stand in for a lag that does not exist
        model = banded_model(6, 1, substream(20, "coeffs"), target_norm=0.6)
        with pytest.raises(ValueError, match="lag must be non-negative"):
            banded_approximation_gap(model, -1, 2)
