"""Band storage, products and norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh, svdvals

from bandedvar import (
    BandedMatrix,
    band_product,
    frobenius_norm,
    l1_norm,
    linf_norm,
    spectral_norm,
    spectral_radius,
)
from bandedvar.rng import substream


def random_banded(p, k, rng, integer=False):
    dense = np.zeros((p, p))
    idx = np.arange(p)
    mask = np.abs(idx[:, None] - idx[None, :]) <= k
    if integer:
        dense[mask] = rng.integers(-5, 6, size=int(mask.sum())).astype(float)
    else:
        dense[mask] = rng.normal(size=int(mask.sum()))
    return dense


class TestBandedMatrix:
    def test_out_of_band_reads_zero(self):
        m = BandedMatrix(4, 1, [np.ones(3), 2 * np.ones(4), 3 * np.ones(3)])
        assert m[0, 2] == 0.0
        assert m[3, 0] == 0.0
        assert m[1, 0] == 1.0
        assert m[2, 2] == 2.0
        assert m[2, 3] == 3.0

    def test_dense_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for p, k in [(1, 0), (5, 0), (5, 2), (5, 4), (9, 3)]:
            dense = random_banded(p, k, rng)
            m = BandedMatrix.from_dense(dense, k)
            assert np.array_equal(m.to_dense(), dense)
            again = BandedMatrix.from_dense(m.to_dense(), k)
            for d1, d2 in zip(m.diagonals, again.diagonals):
                assert np.array_equal(d1, d2)

    def test_from_dense_rejects_out_of_band(self):
        dense = np.eye(4)
        dense[0, 3] = 0.5
        with pytest.raises(ValueError, match="outside bandwidth"):
            BandedMatrix.from_dense(dense, 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BandedMatrix(4, 4, [np.zeros(1)] * 9)  # k too large
        with pytest.raises(ValueError):
            BandedMatrix(4, 1, [np.zeros(4)] * 3)  # wrong diagonal lengths

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = random_banded(7, 2, rng)
        m = BandedMatrix.from_dense(dense, 2)
        v = rng.normal(size=7)
        assert np.allclose(m.matvec(v), dense @ v, atol=1e-12)

    @pytest.mark.parametrize("p,k", [(2, 1), (5, 3), (6, 5)])
    def test_matvec_wide_band_matches_dense(self, p, k):
        # 2k + 1 > p: more diagonals than rows.
        rng = np.random.default_rng(1)
        dense = random_banded(p, k, rng)
        m = BandedMatrix.from_dense(dense, k)
        v = rng.normal(size=p)
        assert np.allclose(m.matvec(v), dense @ v, atol=1e-12)

    def test_immutable(self):
        m = BandedMatrix.identity(3)
        with pytest.raises(AttributeError):
            m.k = 1
        with pytest.raises(ValueError):
            m.diagonals[0][0] = 2.0


class TestBandProduct:
    def test_identity_leaves_matrix_unchanged(self):
        rng = np.random.default_rng(2)
        a = BandedMatrix.from_dense(random_banded(5, 2, rng), 2)
        prod = band_product(BandedMatrix.identity(5), a)
        assert np.array_equal(prod.to_dense(), a.to_dense())

    def test_tridiagonal_pair_gives_pentadiagonal(self):
        rng = np.random.default_rng(3)
        a = BandedMatrix.from_dense(random_banded(5, 1, rng), 1)
        b = BandedMatrix.from_dense(random_banded(5, 1, rng), 1)
        prod = band_product(a, b)
        assert prod.k == 2

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(4)
        da = random_banded(6, 1, rng)
        db = random_banded(6, 1, rng)
        prod = band_product(BandedMatrix.from_dense(da, 1), BandedMatrix.from_dense(db, 1))
        assert np.allclose(prod.to_dense(), da @ db, atol=1e-12)

    def test_exact_on_integer_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = int(rng.integers(2, 10))
            ka = int(rng.integers(0, p))
            kb = int(rng.integers(0, p))
            da = random_banded(p, ka, rng, integer=True)
            db = random_banded(p, kb, rng, integer=True)
            prod = band_product(
                BandedMatrix.from_dense(da, ka), BandedMatrix.from_dense(db, kb)
            )
            assert prod.k == min(ka + kb, p - 1)
            assert np.array_equal(prod.to_dense(), da @ db)

    @settings(max_examples=60)
    @given(data=st.data(), p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_product_property(self, data, p, seed):
        ka = data.draw(st.integers(0, p - 1), label="ka")
        kb = data.draw(st.integers(0, p - 1), label="kb")
        rng = np.random.default_rng(seed)
        da = random_banded(p, ka, rng) * 10.0 ** rng.uniform(-3, 3)
        db = random_banded(p, kb, rng) * 10.0 ** rng.uniform(-3, 3)
        prod = band_product(BandedMatrix.from_dense(da, ka), BandedMatrix.from_dense(db, kb))
        assert prod.k == min(ka + kb, p - 1)
        # each side sums at most p products, so lies within about p eps / 2 |A| |B| of exact
        bound = 2 * p * np.finfo(float).eps * (np.abs(da) @ np.abs(db))
        assert np.all(np.abs(prod.to_dense() - da @ db) <= bound)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            band_product(BandedMatrix.identity(3), BandedMatrix.identity(4))


class TestNorms:
    def test_zero_matrix(self):
        z = np.zeros((3, 4))
        assert l1_norm(z) == 0.0
        assert linf_norm(z) == 0.0
        assert frobenius_norm(z) == 0.0

    def test_small_example(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert l1_norm(m) == 6.0
        assert linf_norm(m) == 7.0
        assert np.isclose(frobenius_norm(m), np.sqrt(30.0))

    def test_symmetric_l1_equals_linf(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        sym = a + a.T
        assert np.isclose(l1_norm(sym), linf_norm(sym))

    @settings(max_examples=80)
    @given(data=st.data(), p=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_banded_l1_bitwise_dense(self, data, p, seed):
        k = data.draw(st.integers(0, p - 1), label="k")
        rng = np.random.default_rng(seed)
        dense = random_banded(p, k, rng) * 10.0 ** rng.uniform(-5, 5)
        assert l1_norm(BandedMatrix.from_dense(dense, k)) == l1_norm(dense)


class TestSpectralNorm:
    def test_identity(self):
        assert np.isclose(spectral_norm(np.eye(6)), 1.0)

    def test_diagonal(self):
        assert np.isclose(spectral_norm(np.diag([3.0, -5.0, 2.0])), 5.0)

    def test_random_direction_oracle(self):
        # Maximise ||Mv|| over unit vectors: 1e5 random directions, then a
        # generic optimiser polishes the best one.
        from scipy.optimize import minimize

        rng = np.random.default_rng(10)
        m = rng.normal(size=(8, 8))
        v = rng.normal(size=(8, 100_000))
        v /= np.sqrt((v * v).sum(axis=0))
        gains = np.sqrt(((m @ v) ** 2).sum(axis=0))
        best = v[:, int(np.argmax(gains))]

        def objective(w):
            return -np.sqrt(((m @ w) ** 2).sum() / (w @ w))

        oracle = -minimize(objective, best, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000}).fun
        value = spectral_norm(m)
        assert value >= gains.max() - 1e-12
        assert abs(value - oracle) < 1e-3

    def test_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            b = rng.normal(size=(6, 6))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-8

    def test_l1_linf_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.normal(size=(5, 5))
            assert spectral_norm(m) ** 2 <= l1_norm(m) * linf_norm(m) + 1e-8

    @pytest.mark.parametrize("shape", [(30, 8), (8, 30)])
    def test_matches_svd_rectangular(self, shape):
        m = np.random.default_rng(13).normal(size=shape)
        top = svdvals(m)[0]
        assert abs(spectral_norm(m) - top) <= 1e-12 * top

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_svd_raw_banded_draw(self, seed):
        # The unscaled matrix gen_coeff_uniform(100, 1, ...) draws first.
        rng = substream(seed, "coeffs")
        m = BandedMatrix(100, 1, [rng.uniform(-1.0, 1.0, size=100 - abs(j - 1)) for j in range(3)])
        dense = m.to_dense()
        top = svdvals(dense)[0]
        assert abs(spectral_norm(dense) - top) <= 1e-12 * top

    @pytest.mark.parametrize(
        "p, k", [(1, 0), (9, 0), (9, 8), (30, 29), (40, 3), (200, 2), (200, 15)]
    )
    def test_banded_matches_dense(self, p, k):
        rng = np.random.default_rng(p + k)
        m = BandedMatrix.from_dense(random_banded(p, k, rng), k)
        banded, dense = spectral_norm(m), spectral_norm(m.to_dense())
        assert abs(banded - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(1, 1), (40, 40), (30, 8), (8, 30)])
    def test_dense_solves_in_place_bit_for_bit(self, shape, layout):
        # The eigensolver works in the Gram matrix's transpose instead of a
        # copy of it; the answer keeps the bits of the copying call.
        m = np.random.default_rng(sum(shape)).normal(size=(shape[0], 2 * shape[1]))
        m = {"C": m[:, : shape[1]].copy(), "F": np.asfortranarray(m[:, : shape[1]]),
             "strided": m[:, ::2]}[layout]
        g = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
        top = g.shape[0] - 1
        lam = eigvalsh(g, subset_by_index=[top, top], check_finite=False)[0]
        assert spectral_norm(m) == float(np.sqrt(max(lam, 0.0)))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_diagonal_banded_matches_dense(self, scale):
        # unscaled, their Gram entries underflow to 0 or overflow to inf
        m = np.diag(np.linspace(0.5, 3.0, 7)) * scale
        banded, dense = spectral_norm(BandedMatrix.from_dense(m, 0)), spectral_norm(m)
        assert abs(banded - dense) <= 1e-15 * dense
        assert abs(dense - 3.0 * scale) <= 1e-15 * dense

    @pytest.mark.parametrize("shift", [-900, -500, 500, 1000])
    def test_power_of_two_scaling_is_exact(self, shift):
        # largest |entry| in [0.5, 1): an input 2^shift times larger is scaled
        # back to exactly this matrix, so its norm is exactly 2^shift times
        dense = random_banded(12, 2, np.random.default_rng(14))
        dense *= 0.75 / np.abs(dense).max()
        for m, far in (
            (dense, np.ldexp(dense, shift)),
            (BandedMatrix.from_dense(dense, 2), BandedMatrix.from_dense(np.ldexp(dense, shift), 2)),
        ):
            assert spectral_norm(far) == math.ldexp(spectral_norm(m), shift)

    def test_norm_beyond_largest_float_is_inf(self):
        m = np.full((3, 3), 1.5e308)
        assert spectral_norm(m) == spectral_norm(BandedMatrix.from_dense(m, 2)) == math.inf


class TestSpectralRadius:
    def test_diagonal(self):
        assert np.isclose(spectral_radius(np.diag([0.5, -0.9])), 0.9)

    def test_nilpotent(self):
        m = np.zeros((4, 4))
        m[2, 0] = 3.0
        m[3, 1] = -1.0
        assert spectral_radius(m) < 1e-12

    def test_constructed_eigendecomposition(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam = np.array([0.9, -0.4, 0.2, -0.05])
        m = q @ np.diag(lam) @ q.T
        assert np.isclose(spectral_radius(m), 0.9, atol=1e-8)
