"""Coefficient generators, structured innovation covariance, path simulation."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedvar import (
    BandedVarModel,
    BandedMatrix,
    NonStationaryError,
    SimConfig,
    band_product,
    fit_banded_var,
    frobenius_norm,
    gen_coeff_mixture,
    gen_coeff_uniform,
    gen_sigma_eps_structured,
    is_stationary,
    sample_autocov,
    simulate_var,
    spectral_norm,
    theoretical_autocov_var1,
)
from bandedvar.rng import substream
from bandedvar.simulate import _correlate, make_model, run_simulation


def out_of_band_mask(p, k):
    idx = np.arange(p)
    return np.abs(idx[:, None] - idx[None, :]) > k


class TestUniformGenerator:
    def test_band_structure(self):
        a = gen_coeff_uniform(12, 2, substream(0, "coeffs"))
        assert np.all(a.to_dense()[out_of_band_mask(12, 2)] == 0.0)

    def test_norm_in_target_interval(self):
        for rep in range(10):
            a = gen_coeff_uniform(15, 1, substream(1, "coeffs", rep))
            s = spectral_norm(a.to_dense())
            assert 0.3 - 1e-6 <= s < 1.0

    def test_target_norm_hits_exactly(self):
        a = gen_coeff_uniform(15, 2, substream(2, "coeffs"), target_norm=0.8)
        assert abs(spectral_norm(a.to_dense()) - 0.8) < 1e-8

    def test_reproducible(self):
        a = gen_coeff_uniform(10, 1, substream(3, "coeffs"))
        b = gen_coeff_uniform(10, 1, substream(3, "coeffs"))
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_generated_models_are_stationary(self):
        for rep in range(10):
            a = gen_coeff_uniform(20, 3, substream(4, "coeffs", rep))
            model = BandedVarModel(20, 1, 3, [a], np.eye(20))
            assert is_stationary(model)


class TestDrawNorm:
    """The draw takes its norm in band storage: exact enough, and no p x p array."""

    def test_draw_holds_no_dense_array(self):
        tracemalloc.start()
        try:
            gen_coeff_uniform(2000, 2, substream(5, "coeffs"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one dense 2000 x 2000 array is 32 MB

    @settings(max_examples=100)
    @given(
        data=st.data(), p=st.integers(1, 40), mixture=st.booleans(), widest=st.booleans(),
        target=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_norm_equals_target(self, data, p, mixture, widest, target, seed):
        mixture = mixture and p >= 3
        top = (p - 1) // 2  # p = 2 k0 + 1 at the widest band
        k0 = top if widest else data.draw(st.integers(1 if mixture else 0, top), label="k0")
        gen = gen_coeff_mixture if mixture else gen_coeff_uniform
        a = gen(p, k0, substream(seed, "coeffs"), target_norm=target)
        assert abs(np.linalg.norm(a.to_dense(), 2) - target) <= 1e-12 * target


class TestMixtureGenerator:
    def test_band_edges_all_nonzero(self):
        a = gen_coeff_mixture(20, 2, substream(5, "coeffs")).to_dense()
        idx = np.arange(20)
        edge = np.abs(idx[:, None] - idx[None, :]) == 2
        assert np.all(a[edge] != 0.0)

    def test_interior_zero_fraction(self):
        # strict-interior entries vanish with probability 0.4
        zeros = total = 0
        for rep in range(200):
            a = gen_coeff_mixture(30, 2, substream(6, "coeffs", rep)).to_dense()
            idx = np.arange(30)
            interior = np.abs(idx[:, None] - idx[None, :]) < 2
            interior &= ~out_of_band_mask(30, 2)
            # skip boundary rows so the reference fraction is exact
            interior[:2] = interior[-2:] = False
            zeros += int((a[interior] == 0.0).sum())
            total += int(interior.sum())
        assert abs(zeros / total - 0.4) < 0.05

    def test_requires_positive_k0(self):
        with pytest.raises(ValueError, match="k0"):
            gen_coeff_mixture(10, 0, substream(7, "coeffs"))

    def test_reproducible(self):
        a = gen_coeff_mixture(10, 1, substream(8, "coeffs"))
        b = gen_coeff_mixture(10, 1, substream(8, "coeffs"))
        assert np.array_equal(a.to_dense(), b.to_dense())


class TestStructuredSigma:
    def test_small_case_by_hand(self):
        s = gen_sigma_eps_structured(2).to_dense()
        assert np.allclose(s, [[1.64, 1.28], [1.28, 1.0]], atol=1e-12)

    def test_psd(self):
        s = gen_sigma_eps_structured(30).to_dense()
        assert np.linalg.eigvalsh(s).min() >= -1e-10

    def test_band_half_width_two(self):
        s = gen_sigma_eps_structured(10).to_dense()
        assert np.all(s[out_of_band_mask(10, 2)] == 0.0)


class TestBandedInnovations:
    """A banded sigma_eps is factored and applied in band storage."""

    def test_structured_draw_holds_no_dense_array(self):
        def peak(kind):
            tracemalloc.start()
            try:
                _, ts = run_simulation(SimConfig(p=2000, n=100, k0=2, seed=5, sigma_eps_kind=kind))
                fit_banded_var(ts, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the normals alone are 2000 x 600 (9.2 MiB); one dense 2000 x 2000
        # array is 30.5 MiB
        assert peak("structured_bbt") <= 1.5 * peak("identity")

    # 40 000 steps leave one row per block of the in-place product
    @pytest.mark.parametrize("p, steps", [(2, 700), (3, 700), (12, 700), (300, 700),
                                          (12, 1), (9, 40_000)])
    def test_matches_dense_cholesky_product(self, p, steps):
        sigma = gen_sigma_eps_structured(p)
        z = substream(22, "innovations", p, steps).standard_normal((p, steps))
        want = np.linalg.cholesky(sigma.to_dense()) @ z
        assert np.abs(_correlate(sigma, z) - want).max() <= 1e-14 * np.abs(want).max()

    def test_semidefinite_band_takes_the_spectral_root(self):
        # B with a zero first row: B B^T is singular, so the banded Cholesky
        # factorisation fails and the square root comes from the spectrum
        p, n = 6, 4000
        diag, off = np.full(p, 0.6), np.full(p - 1, 0.8)
        diag[0] = off[0] = 0.0
        b = BandedMatrix(p, 1, [off, diag, off])
        sigma = band_product(b, b)
        model = BandedVarModel(p, 1, 0, [BandedMatrix.zeros(p, 0)], sigma)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            ts = simulate_var(model, n, burn_in=0, rng=substream(24, "innovations"))
        assert eigh.call_count == 1
        assert np.abs(ts.values[0]).max() <= 1e-12
        empirical = ts.values @ ts.values.T / n
        assert np.abs(empirical - sigma.to_dense()).max() <= 0.15


class TestSimulateVar:
    def test_white_noise_panel(self):
        model = BandedVarModel(20, 1, 0, [BandedMatrix.zeros(20, 0)], np.eye(20))
        ts = simulate_var(model, 2000, rng=substream(9, "innovations"))
        lag1 = sample_autocov(ts, 1)
        assert np.abs(lag1).max() <= 0.3

    def test_scalar_autocorrelation(self):
        coeff = BandedMatrix.from_dense(np.array([[0.9]]), 0)
        model = BandedVarModel(1, 1, 0, [coeff], np.eye(1))
        ts = simulate_var(model, 20000, rng=substream(10, "innovations"))
        x = ts.values[0]
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(corr - 0.9) < 0.05

    def test_reproducible(self):
        model = BandedVarModel(
            5, 1, 1, [gen_coeff_uniform(5, 1, substream(11, "coeffs"))], np.eye(5)
        )
        a = simulate_var(model, 50, rng=substream(11, "innovations"))
        b = simulate_var(model, 50, rng=substream(11, "innovations"))
        assert np.array_equal(a.values, b.values)

    def test_rejects_explosive_unless_asked(self):
        coeff = BandedMatrix.from_dense(1.1 * np.eye(3), 0)
        model = BandedVarModel(3, 1, 0, [coeff], np.eye(3))
        with pytest.raises(NonStationaryError):
            simulate_var(model, 10, rng=substream(12, "innovations"))
        ts = simulate_var(
            model, 10, burn_in=0, rng=substream(12, "innovations"), allow_explosive=True
        )
        assert np.all(np.isfinite(ts.values))

    def test_all_finite(self):
        for rep in range(5):
            a = gen_coeff_uniform(10, 2, substream(13, "coeffs", rep))
            model = BandedVarModel(10, 1, 2, [a], gen_sigma_eps_structured(10))
            ts = simulate_var(model, 300, rng=substream(13, "innovations", rep))
            assert np.all(np.isfinite(ts.values))

    def test_long_run_variance_matches_series_formula(self):
        a = gen_coeff_uniform(10, 1, substream(14, "coeffs"), target_norm=0.7)
        model = BandedVarModel(10, 1, 1, [a], np.eye(10))
        ts = simulate_var(model, 50000, rng=substream(14, "innovations"))
        empirical = sample_autocov(ts, 0)
        implied = theoretical_autocov_var1(model, 0)
        assert frobenius_norm(empirical - implied) <= 0.1 * frobenius_norm(implied)

    def test_second_order_recursion(self):
        a1 = BandedMatrix.from_dense(0.4 * np.eye(2), 0)
        a2 = BandedMatrix.from_dense(0.2 * np.eye(2), 0)
        model = BandedVarModel(2, 2, 0, [a1, a2], np.eye(2))
        ts = simulate_var(model, 500, rng=substream(15, "innovations"))
        assert ts.values.shape == (2, 500)
        assert np.all(np.isfinite(ts.values))

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_matches_dense_recursion(self, burn_in):
        p, n = 12, 40
        coeffs = [
            gen_coeff_uniform(p, 1, substream(16, "coeffs", lag), target_norm=0.4)
            for lag in range(2)
        ]
        sigma = gen_sigma_eps_structured(p)
        model = BandedVarModel(p, 2, 1, coeffs, sigma)
        ts = simulate_var(model, n, burn_in=burn_in, rng=substream(16, "innovations"))

        total = burn_in + n
        eps = _correlate(sigma, substream(16, "innovations").standard_normal((p, total)))
        dense = [a.to_dense() for a in coeffs]
        ref = np.zeros((p, total))
        for t in range(total):
            ref[:, t] = eps[:, t]
            for lag in (1, 2):
                if t >= lag:
                    ref[:, t] += dense[lag - 1] @ ref[:, t - lag]
        ref = ref[:, burn_in:]
        assert np.abs(ts.values - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["none", "identity", "diagonal"])
    def test_diagonal_innovations_keep_cholesky_bits(self, kind):
        # Every covariance, diagonal or not, takes the Cholesky product, so a
        # diagonal one gives the bits of its explicit Cholesky factor.
        p, n, burn_in = 30, 20, 10
        coeff = gen_coeff_uniform(p, 2, substream(17, "coeffs"), target_norm=0.6)
        sigma = {"none": None, "identity": np.eye(p),
                 "diagonal": np.diag(np.linspace(0.1, 3.0, p))}[kind]
        model = BandedVarModel(p, 1, 2, [coeff], sigma)
        ts = simulate_var(model, n, burn_in=burn_in, rng=substream(17, "innovations"))

        full = np.eye(p) if sigma is None else sigma
        ref = np.linalg.cholesky(full) @ substream(17, "innovations").standard_normal((p, burn_in + n))
        for t in range(1, burn_in + n):
            ref[:, t] += coeff.matvec(ref[:, t - 1])
        assert np.array_equal(ts.values, ref[:, burn_in:])

    @settings(max_examples=150)
    @given(
        data=st.data(),
        p=st.integers(1, 12),
        d=st.integers(1, 3),
        n=st.integers(1, 25),
        burn_in=st.integers(0, 8),
        innovations=st.sampled_from(["none", "diagonal", "structured"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_matvec_steps(self, data, p, d, n, burn_in, innovations, seed):
        # bands up to k = p - 1, so 2k + 1 > p (rows past p in dgbmv) is covered
        rng = np.random.default_rng(seed)
        k0 = data.draw(st.integers(0, p - 1), label="k0")
        coeffs = []
        for _ in range(d):
            k = data.draw(st.integers(0, k0), label="k")
            diags = [rng.uniform(-0.6, 0.6, p - abs(o)) for o in range(-k, k + 1)]
            coeffs.append(BandedMatrix(p, k, diags))
        if innovations == "structured" and p >= 2:
            sigma = gen_sigma_eps_structured(p)
        else:
            sigma = None if innovations == "none" else np.diag(rng.uniform(0.1, 3.0, p))
        model = BandedVarModel(p, d, k0, coeffs, sigma)
        ts = simulate_var(
            model, n, burn_in=burn_in, rng=substream(seed, "innovations"), allow_explosive=True
        )

        ref = substream(seed, "innovations").standard_normal((p, burn_in + n))
        if isinstance(sigma, BandedMatrix):
            ref = _correlate(sigma, ref)
        elif sigma is not None:
            ref = np.linalg.cholesky(sigma) @ ref
        for t in range(burn_in + n):
            for ell, a in enumerate(coeffs[:t], start=1):
                ref[:, t] += a.matvec(ref[:, t - ell])
        assert ts.values.flags.c_contiguous
        assert ts.values.shape == (p, n)
        assert np.array_equal(ts.values.view(np.int64), ref[:, burn_in:].view(np.int64))


class TestSimConfig:
    def test_mixture_with_zero_band_rejected(self):
        with pytest.raises(ValueError, match="k0"):
            SimConfig(p=10, n=50, k0=0, seed=0, setting="mixture")

    def test_dimension_vs_band(self):
        with pytest.raises(ValueError, match="2 k0"):
            SimConfig(p=4, n=50, k0=2, seed=0)

    def test_identity_kind_stores_no_matrix(self):
        assert make_model(SimConfig(p=12, n=64, k0=1, seed=21)).sigma_eps is None

    @pytest.mark.parametrize("target_norm", [1e160, 1e200, 1e300])
    def test_extreme_target_norm_is_non_stationary(self, target_norm):
        # the norm's square overflows, so the certificate fails and the
        # companion eigenvalues answer
        with pytest.raises(NonStationaryError):
            run_simulation(SimConfig(p=6, n=40, k0=1, seed=0, target_norm=target_norm))

    def test_run_simulation_shapes(self):
        model, ts = run_simulation(
            SimConfig(p=12, n=64, k0=1, seed=21, sigma_eps_kind="structured_bbt")
        )
        assert (ts.p, ts.n) == (12, 64)
        assert model.k0 == 1
        assert model.sigma_eps is not None
