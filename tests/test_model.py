"""Model containers, companion form, stationarity, implied autocovariances."""

import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import model as model_module
from bandedvar import (
    BandedMatrix,
    BandedVarModel,
    BandedVarError,
    DataFormatError,
    FitSpec,
    NonStationaryError,
    TimeSeries,
    banded_approximation_gap,
    companion_matrix,
    estimate_autocov,
    fit_banded_var,
    frobenius_norm,
    gen_coeff_uniform,
    gen_sigma_eps_structured,
    is_stationary,
    l1_norm,
    predict,
    rolling_evaluation,
    sample_autocov,
    select_bandwidth,
    select_bandwidth_and_order,
    spectral_norm,
    spectral_radius,
    theoretical_autocov_var1,
)
from bandedvar.io import (
    load_model_json,
    read_timeseries_csv,
    save_model_json,
    write_timeseries_csv,
)
from bandedvar.rng import substream
from bandedvar.selection import rss_surface
from bandedvar.simulate import SimConfig, make_model, run_simulation


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

    def test_permuted_moves_labels(self):
        ts = TimeSeries(np.arange(6.0).reshape(3, 2), labels=("a", "b", "c"))
        out = ts.permuted([2, 0, 1])
        assert out.labels == ("c", "a", "b")
        assert np.array_equal(out.values[0], ts.values[2])

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

    @pytest.mark.parametrize("low, ok", [(-1e-9, False), (-1e-11, True), (0.0, True)])
    def test_diagonal_sigma_threshold(self, low, ok):
        # a diagonal sigma's eigenvalues are its diagonal, judged at the threshold
        a = [BandedMatrix.zeros(3, 0)]
        if ok:
            BandedVarModel(3, 1, 0, a, np.diag([1.0, low, 2.0]))
        else:
            with pytest.raises(ValueError, match="eigenvalue below -1e-10"):
                BandedVarModel(3, 1, 0, a, np.diag([1.0, low, 2.0]))

    def test_non_diagonal_sigma_uses_eigenvalues(self):
        # PSD check on the spectrum, not the diagonal: [[1, 2], [2, 1]] has eigenvalue -1
        a = [BandedMatrix.zeros(2, 0)]
        with pytest.raises(ValueError, match="eigenvalue"):
            BandedVarModel(2, 1, 0, a, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_banded_sigma_validation(self):
        a = [BandedMatrix.zeros(4, 0)]
        off = np.full(3, 0.5)
        BandedVarModel(4, 1, 0, a, BandedMatrix(4, 1, [off, np.ones(4), off]))
        with pytest.raises(ValueError, match="asymmetry 1.000e-06 exceeds 1e-12"):
            BandedVarModel(4, 1, 0, a, BandedMatrix(4, 1, [off, np.ones(4), off + 1e-6]))
        with pytest.raises(ValueError, match="eigenvalue below -1e-10"):
            # a positive diagonal, but eigenvalues 1 + 4 cos(i pi / 5) < 0 for i >= 3
            BandedVarModel(4, 1, 0, a, BandedMatrix(4, 1, [4 * off, np.ones(4), 4 * off]))
        with pytest.raises(ValueError, match="sigma_eps dimension 5 does not match p=4"):
            BandedVarModel(4, 1, 0, a, gen_sigma_eps_structured(5))

    @pytest.mark.parametrize("low, ok", [(-1e-9, False), (-1e-11, True), (0.0, True)])
    def test_banded_sigma_threshold(self, low, ok):
        a = [BandedMatrix.zeros(3, 0)]
        sigma = BandedMatrix(3, 0, [[1.0, low, 2.0]])
        if ok:
            assert BandedVarModel(3, 1, 0, a, sigma).sigma_eps is sigma
        else:
            with pytest.raises(ValueError, match="eigenvalue below -1e-10"):
                BandedVarModel(3, 1, 0, a, sigma)

    def test_json_round_trip(self):
        sigma = gen_sigma_eps_structured(6).to_dense()
        model = banded_model(6, 2, substream(1, "coeffs"), sigma=sigma)
        doc = model.to_dict(means=np.arange(6.0))
        assert doc["schema_version"] == 2
        assert doc["coeffs"] == [[diag.tolist() for diag in model.coeffs[0].diagonals]]
        back = BandedVarModel.from_dict(json.loads(json.dumps(doc)))
        assert back.p == 6 and back.d == 1 and back.k0 == 2
        assert back.coeffs[0]._packed.tobytes() == model.coeffs[0]._packed.tobytes()
        assert np.array_equal(back.sigma_eps, model.sigma_eps)

    def test_json_without_sigma_loads_as_identity(self):
        doc = make_model(SimConfig(p=6, n=10, k0=1, seed=2)).to_dict()
        assert "sigma_eps" not in doc
        assert BandedVarModel.from_dict(doc).sigma_eps is None

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


def layout_outputs(ts):
    """Every number the library derives from a series, as bytes."""
    fit = fit_banded_var(ts, 1, demean=True)
    rolling = rolling_evaluation(ts, FitSpec(K=2), holdout=4, h_max=2, refit=True)
    outputs = [
        rss_surface(ts, d=2, K=2).rss,
        select_bandwidth(ts, K=2).bic,
        select_bandwidth_and_order(ts, K=2, L=2).bic,
        fit.model.coeffs[0]._packed,
        fit.rss,
        fit.means,
        predict(fit.model, ts, h=2, mean=fit.means),
        *rolling.errors.values(),
        sample_autocov(ts, 0),
        sample_autocov(ts, 1),
    ]
    for method in ("banded", "thresholded"):
        est = estimate_autocov(ts, 1, method=method, q=4, rng=substream(0, "bootstrap"))
        outputs += [est.matrix, est.risk.risk]
    return [np.asarray(x).tobytes() for x in outputs]


class TestSeriesLayout:
    """Results depend on a series' values, not on its caller's memory layout."""

    @settings(max_examples=15)
    @given(p=st.integers(3, 8), n=st.integers(24, 60), seed=st.integers(0, 2**32 - 1))
    def test_layouts_and_csv_round_trip_are_bitwise_equal(self, p, n, seed):
        rng = substream(seed, "x")
        values = rng.standard_normal((p, n)).cumsum(axis=1) + 50.0 * rng.standard_normal((p, 1))
        strided = np.zeros((2 * p, 3 * n))[::2, ::3]
        strided[:] = values
        want = layout_outputs(TimeSeries(values))
        assert layout_outputs(TimeSeries(np.asfortranarray(values))) == want
        assert layout_outputs(TimeSeries(strided)) == want
        with tempfile.TemporaryDirectory() as tmp:
            write_timeseries_csv(Path(tmp) / "y.csv", TimeSeries(values))
            assert layout_outputs(read_timeseries_csv(Path(tmp) / "y.csv")) == want


FIXTURES = Path(__file__).parent / "fixtures"


def v2_document(p=4, k0=1, lags=None, **extra):
    """A version-2 document with one lag; ``lags`` replaces its diagonals."""
    diags = [np.full(p - abs(o), 0.1).tolist() for o in range(-k0, k0 + 1)]
    doc = {"schema_version": 2, "p": p, "d": 1, "k0": k0, "coeffs": lags or [diags]}
    return {**doc, **extra}


class TestModelDocument:
    """Version-2 documents store each lag's band; version 1 (dense) still loads."""

    def test_version_1_fixture_loads_as_its_version_2_form(self):
        # written by the dense-document code: p = 6, d = 2, k0 = 2, means and
        # a structured sigma_eps
        v1, means = load_model_json(FIXTURES / "model_v1.json")
        with open(FIXTURES / "model_v1.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema_version"] == 1 and np.asarray(doc["coeffs"]).shape == (2, 6, 6)
        assert [a.to_dense().tolist() for a in v1.coeffs] == doc["coeffs"]
        v2 = BandedVarModel.from_dict(json.loads(json.dumps(v1.to_dict(means=means))))
        assert (v2.p, v2.d, v2.k0) == (v1.p, v1.d, v1.k0) == (6, 2, 2)
        for a, b in zip(v1.coeffs, v2.coeffs):
            assert a._packed.tobytes() == b._packed.tobytes()
        assert v1.sigma_eps.tobytes() == v2.sigma_eps.tobytes()
        assert np.array_equal(v1.sigma_eps, gen_sigma_eps_structured(6).to_dense())
        assert means.tobytes() == np.asarray(doc["means"]).tobytes()

    def test_version_3_round_trip_keeps_the_band(self, tmp_path):
        model = make_model(SimConfig(p=7, n=10, k0=2, seed=3, sigma_eps_kind="structured_bbt"))
        doc = json.loads(json.dumps(model.to_dict()))
        assert doc["schema_version"] == 3
        assert doc["sigma_eps"] == {"diagonals": [d.tolist() for d in model.sigma_eps.diagonals]}
        with (
            mock.patch.object(BandedMatrix, "from_dense", side_effect=AssertionError),
            mock.patch.object(BandedMatrix, "to_dense", side_effect=AssertionError),
        ):
            save_model_json(tmp_path / "m.json", model)
            back, _ = load_model_json(tmp_path / "m.json")
        assert isinstance(back.sigma_eps, BandedMatrix)
        assert back.sigma_eps._packed.tobytes() == model.sigma_eps._packed.tobytes()
        assert back.coeffs[0]._packed.tobytes() == model.coeffs[0]._packed.tobytes()

    def test_version_2_dense_sigma_still_loads(self):
        sigma = gen_sigma_eps_structured(4).to_dense()
        model = BandedVarModel.from_dict(v2_document(sigma_eps=sigma.tolist()))
        assert model.sigma_eps.tobytes() == sigma.tobytes()
        assert model.to_dict()["schema_version"] == 2

    @pytest.mark.parametrize(
        "version, sigma, match",
        [
            (3, {"diagonals": [[0.1] * 3] * 4}, "sigma_eps: expected 3 diagonals, got 4"),
            (3, {"diagonals": [[0.1] * 3, [1.0] * 5, [0.1] * 3]}, "sigma_eps: diagonal at offset"),
            (3, {"diagonals": [[1.0, None, 1.0, 1.0]]}, "sigma_eps: banded matrix entries"),
            (3, {}, "sigma_eps: "),
            (3, {"diagonals": [[0.1] * 3, [1.0] * 4, [0.2] * 3]}, "sigma_eps asymmetry"),
            (3, {"diagonals": [[2.0] * 3, [1.0] * 4, [2.0] * 3]}, "eigenvalue below -1e-10"),
            (3, np.eye(4).tolist(), "schema_version 3 document needs a banded sigma_eps"),
            (2, {"diagonals": [[1.0] * 4]}, "schema_version 2 document cannot hold"),
        ],
    )
    def test_malformed_sigma_names_the_file(self, tmp_path, version, sigma, match):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(v2_document(schema_version=version, sigma_eps=sigma)))
        with pytest.raises(DataFormatError, match=re.escape(match)) as err:
            load_model_json(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_version_2_keeps_a_narrower_stored_band(self):
        a = BandedMatrix(5, 1, [np.full(4, -0.1), np.full(5, 0.3), np.full(4, 0.2)])
        doc = BandedVarModel(5, 1, 3, [a]).to_dict()
        assert [len(diag) for diag in doc["coeffs"][0]] == [4, 5, 4]
        back = BandedVarModel.from_dict(doc)
        assert back.k0 == 3 and back.coeffs[0].k == 1
        assert back.coeffs[0]._packed.tobytes() == a._packed.tobytes()

    def test_version_2_loads_with_no_dense_round_trip(self):
        doc = v2_document(p=5, k0=2)
        with (
            mock.patch.object(BandedMatrix, "from_dense", side_effect=AssertionError),
            mock.patch.object(BandedMatrix, "to_dense", side_effect=AssertionError),
        ):
            BandedVarModel.from_dict(BandedVarModel.from_dict(doc).to_dict())

    @pytest.mark.parametrize(
        "lags, match",
        [
            ([[[0.1] * 3, [0.2] * 4]], "expected 1 diagonals, got 2"),  # even count
            ([[[0.1] * 3, [0.2] * 4, [0.1] * 4]], "offset 1 has length"),  # wrong length
            ([[[0.1] * 2, [0.1] * 3, [0.2] * 4, [0.1] * 3, [0.1] * 2]], "exceeds k0=1"),
            ([[[0.1] * 3, [0.2, float("nan"), 0.2, 0.2], [0.1] * 3]], "finite"),
        ],
    )
    def test_malformed_version_2_is_rejected(self, lags, match):
        with pytest.raises(ValueError, match=match):
            BandedVarModel.from_dict(v2_document(p=4, k0=1, lags=lags))

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_schema_version_is_named(self, version):
        with pytest.raises(BandedVarError, match=f"schema_version {version!r}"):
            BandedVarModel.from_dict(v2_document(schema_version=version))

    def test_missing_schema_version_is_invalid(self):
        doc = v2_document()
        del doc["schema_version"]
        with pytest.raises(BandedVarError, match="invalid model document"):
            BandedVarModel.from_dict(doc)

    def test_save_and_load_hold_no_dense_array(self, tmp_path):
        _, ts = run_simulation(SimConfig(p=2000, n=60, k0=2, seed=4))
        report = fit_banded_var(ts, 2, demean=True)
        tracemalloc.start()
        try:
            save_model_json(tmp_path / "fit.model.json", report.model, means=report.means)
            model, means = load_model_json(tmp_path / "fit.model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one dense 2000 x 2000 array is 32 MB
        assert model.coeffs[0]._packed.tobytes() == report.model.coeffs[0]._packed.tobytes()
        assert means.tobytes() == report.means.tobytes()


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

    @settings(max_examples=120)
    @given(
        data=st.data(),
        p=st.integers(1, 30),
        d=st.integers(1, 2),
        total=st.sampled_from(["draw", "just_below", "just_above"]),
        margin=st.sampled_from([1e-6, 0.0, 0.3, -0.2, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_agrees_with_companion_eigenvalues(
        self, data, p, d, total, margin, seed
    ):
        # norms split so that sum_l ||A_l|| |c|^(-l) is a draw, 1 - 1e-9 or 1 + 1e-9
        rng = np.random.default_rng(seed)
        c = 1.0 - margin
        t = {"draw": rng.uniform(0.0, 1.5), "just_below": 1 - 1e-9, "just_above": 1 + 1e-9}[total]
        shares = rng.dirichlet(np.ones(d))
        coeffs = []
        for ell in range(1, d + 1):
            k = data.draw(st.integers(0, p - 1), label=f"k{ell}")
            raw = BandedMatrix(p, k, [rng.normal(size=p - abs(m - k)) for m in range(2 * k + 1)])
            norm = spectral_norm(raw.to_dense())
            target = t * shares[ell - 1] * abs(c) ** ell
            coeffs.append(raw.scaled(target / norm) if norm > 0 else raw)
        model = BandedVarModel(p, d, p - 1, coeffs)
        want = spectral_radius(companion_matrix(model)) < c
        if total == "just_below" and c > 0:
            # the certificate alone must answer: no dense eigenvalues
            with mock.patch.object(model_module, "spectral_radius", side_effect=AssertionError):
                assert is_stationary(model, margin)
            assert want
        else:
            assert is_stationary(model, margin) == want

    @pytest.mark.parametrize("setting", ["uniform", "mixture"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simulation_draws_take_the_certificate(self, monkeypatch, setting, seed):
        # the dense companion eigenvalues are never needed when c > ||A||_2
        monkeypatch.setattr(model_module, "spectral_radius", mock.Mock(side_effect=AssertionError))
        model = make_model(SimConfig(p=300, n=10, k0=3, seed=seed, setting=setting))
        assert spectral_norm(model.coeffs[0]) < 1.0 - 1e-6
        assert is_stationary(model)


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

    def test_banded_sigma_gives_the_bits_of_its_dense_form(self):
        a = gen_coeff_uniform(12, 2, substream(25, "coeffs"), target_norm=0.8)
        sigma = gen_sigma_eps_structured(12)
        band = BandedVarModel(12, 1, 2, [a], sigma)
        dense = BandedVarModel(12, 1, 2, [a], sigma.to_dense())
        for j in (0, 1):
            want = theoretical_autocov_var1(dense, j)
            assert theoretical_autocov_var1(band, j).tobytes() == want.tobytes()

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
        reference = solve_discrete_lyapunov(a, model.sigma_eps.to_dense())
        scale = np.abs(reference).max()
        assert np.abs(sigma0 - reference).max() <= 1e-12 * scale
        resid = sigma0 - a @ sigma0 @ a.T - model.sigma_eps.to_dense()
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

    def test_no_sigma_is_the_identity_bit_for_bit(self):
        a = gen_coeff_uniform(10, 2, substream(20, "coeffs"), target_norm=0.7)
        none, eye = (BandedVarModel(10, 1, 2, [a], sigma) for sigma in (None, np.eye(10)))
        for j in (0, 1, 3):
            assert np.array_equal(
                theoretical_autocov_var1(none, j), theoretical_autocov_var1(eye, j)
            )
            assert banded_approximation_gap(none, j, 2) == banded_approximation_gap(eye, j, 2)

    def test_errors(self):
        with pytest.raises(NonStationaryError):
            theoretical_autocov_var1(scaled_identity_model(2, 1.2))
        two = BandedVarModel(2, 2, 0, [BandedMatrix.zeros(2, 0)] * 2, np.eye(2))
        with pytest.raises(BandedVarError, match="order"):
            theoretical_autocov_var1(two)
        # no innovation covariance means identity innovations
        coeff = [BandedMatrix.from_dense(0.5 * np.eye(2), 0)]
        assert np.array_equal(
            theoretical_autocov_var1(BandedVarModel(2, 1, 0, coeff)),
            theoretical_autocov_var1(BandedVarModel(2, 1, 0, coeff, np.eye(2))),
        )
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
