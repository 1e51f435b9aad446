import math

import numpy as np
import pytest

from trilag.basis import BasisSpec, _add_h0, _overlap_factor, h0_matrix, overlap_matrix
from trilag.eigen import Pencil, _band_cholesky, solve_pencil


class TestBasisSpec:
    def test_derived_quantities(self):
        b = BasisSpec(lam=2.0, ell=3, size=10)
        assert b.nu == 6.0
        assert b.alpha == 3.5

    def test_negative_ell_folded(self):
        assert BasisSpec(1.0, -2, 5).nu == BasisSpec(1.0, 2, 5).nu
        np.testing.assert_array_equal(
            overlap_matrix(BasisSpec(1.0, -2, 5)), overlap_matrix(BasisSpec(1.0, 2, 5))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisSpec(lam=0.0, ell=0, size=5)
        with pytest.raises(ValueError):
            BasisSpec(lam=1.0, ell=0, size=0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            BasisSpec(lam=lam, ell=0, size=5)

    def test_ell_must_be_integer(self):
        with pytest.raises(ValueError, match="ell"):
            BasisSpec(lam=1.0, ell=0.5, size=5)
        assert BasisSpec(lam=1.0, ell=np.int64(2), size=5).nu == 4.0

    def test_size_must_be_integer(self):
        with pytest.raises(ValueError, match="size"):
            BasisSpec(lam=1.0, ell=0, size=2.5)
        assert BasisSpec(lam=1.0, ell=0, size=np.int64(5)).size == 5
        assert BasisSpec(lam=np.float64(1.0), ell=-1, size=5).nu == 2.0

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), -float("inf"), -1.0, "2"])
    def test_bad_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="basis index nu"):
            BasisSpec(lam=1.0, ell=1, size=5, nu=nu)

    def test_given_nu(self):
        b = BasisSpec(lam=1.0, ell=1, size=5, nu=3)
        assert (b.nu, b.alpha, b.nu_given) == (3.0, 2.0, True)
        assert BasisSpec(lam=1.0, ell=1, size=5, nu=2.0).nu_given
        assert not BasisSpec(lam=1.0, ell=1, size=5).nu_given
        assert overlap_matrix(b)[0, 0] == 4.0

    @pytest.mark.parametrize("nu", [None, 0.0, 3.5])
    def test_with_lam_and_with_size_keep_nu(self, nu):
        b = BasisSpec(lam=1.0, ell=2, size=5, nu=nu)
        assert b.with_lam(2.0) == BasisSpec(lam=2.0, ell=2, size=5, nu=nu)
        assert b.with_size(7) == BasisSpec(lam=1.0, ell=2, size=7, nu=nu)
        assert b.with_nu(1.5) == BasisSpec(lam=1.0, ell=2, size=5, nu=1.5)


class TestOverlap:
    def test_small_cases(self):
        np.testing.assert_allclose(overlap_matrix(BasisSpec(1.0, 0, 1)), [[1.0]])
        np.testing.assert_allclose(
            overlap_matrix(BasisSpec(1.0, 0, 2)), [[1.0, -1.0], [-1.0, 3.0]]
        )
        np.testing.assert_allclose(overlap_matrix(BasisSpec(1.0, 2, 1)), [[5.0]])

    def test_lambda_independent(self):
        np.testing.assert_array_equal(
            overlap_matrix(BasisSpec(1.0, 1, 20)), overlap_matrix(BasisSpec(7.0, 1, 20))
        )

    def test_tridiagonal(self):
        S = overlap_matrix(BasisSpec(1.0, 1, 30))
        for i in range(30):
            for j in range(30):
                if abs(i - j) > 1:
                    assert S[i, j] == 0.0

    @pytest.mark.parametrize("nu_ell", [0, 1, 5])
    @pytest.mark.parametrize("N", [50, 500])
    def test_positive_definite(self, nu_ell, N):
        np.linalg.cholesky(overlap_matrix(BasisSpec(1.0, nu_ell, N)))  # must not raise


class TestH0:
    def test_small_cases(self):
        np.testing.assert_allclose(h0_matrix(BasisSpec(2.0, 0, 1)), [[0.5]])
        np.testing.assert_allclose(
            h0_matrix(BasisSpec(2.0, 0, 2)), [[0.5, 0.5], [0.5, 1.5]]
        )

    def test_two_state_pencil(self):
        b = BasisSpec(1.0, 0, 2)
        w = solve_pencil(Pencil(h0_matrix(b), overlap_matrix(b)))
        np.testing.assert_allclose(w, [(2 - math.sqrt(3)) / 8, (2 + math.sqrt(3)) / 8], rtol=1e-13)

    def test_scaling_law(self):
        h1 = h0_matrix(BasisSpec(1.0, 1, 15))
        h3 = h0_matrix(BasisSpec(3.0, 1, 15))
        np.testing.assert_allclose(h3, 9.0 * h1, rtol=1e-14)

    def test_tridiagonal(self):
        H = h0_matrix(BasisSpec(2.0, 2, 25))
        for i in range(25):
            for j in range(25):
                if abs(i - j) > 1:
                    assert H[i, j] == 0.0

    @pytest.mark.parametrize("ell", [0, 1, 3])
    def test_pencil_positivity(self, ell):
        # free particle plus centrifugal barrier has a positive spectrum
        b = BasisSpec(1.5, ell, 60)
        w = solve_pencil(Pencil(h0_matrix(b), overlap_matrix(b)))
        assert np.all(w > 0)

    @pytest.mark.parametrize("ell", [0, 1, 3])
    @pytest.mark.parametrize("N", [1, 2, 25, 800])
    def test_bits_of_dense_formula(self, N, ell):
        # the band adder against the dense formula it replaced, bit for bit
        for lam in (0.3, 1.0, 2.7):
            b = BasisSpec(lam, ell, N)
            n = np.arange(N)
            H = np.diag(2 * n + b.nu + 1.0)
            off = np.sqrt(n[1:] * (n[1:] + b.nu))
            H[n[1:], n[1:] - 1] = off
            H[n[1:] - 1, n[1:]] = off
            want = (lam ** 2 / 8.0) * H
            assert h0_matrix(b).tobytes() == want.tobytes()

    def test_bands_added_in_place(self):
        b = BasisSpec(1.3, 2, 30)
        M = np.arange(900.0).reshape(30, 30)
        want = M + h0_matrix(b)
        assert _add_h0(M, b) is M
        np.testing.assert_array_equal(M, want)


def _longdouble_overlap_bands(N, nu):
    """Diagonal 2m+nu+1 and subdiagonal -sqrt((m+1)(m+1+nu)) of S, in longdouble."""
    m = np.arange(N, dtype=np.longdouble)
    return 2 * m + nu + 1, -np.sqrt((m[1:]) * (m[1:] + nu))


class TestOverlapFactor:
    # the closed-form lower bidiagonal factor in LAPACK band storage
    @pytest.mark.parametrize("nu", [0, 2, 4, 200])
    @pytest.mark.parametrize("N", [1, 2, 800])
    def test_reproduces_overlap(self, N, nu):
        # L L^T against the exact overlap, in longdouble: 2 ulp of float64
        c = _overlap_factor(N, nu)
        assert c.shape == (2, N) and c[1, -1] == 0.0
        d, l = c[0].astype(np.longdouble), c[1, :-1].astype(np.longdouble)
        diag = d * d
        diag[1:] += l * l
        want_diag, want_off = _longdouble_overlap_bands(N, nu)
        ulp = np.spacing(1.0)
        assert np.all(np.abs(diag - want_diag) <= 2 * ulp * want_diag)
        assert np.all(np.abs(l * d[:-1] - want_off) <= 2 * ulp * np.abs(want_off))

    @pytest.mark.parametrize("nu", [0, 2, 4, 200])
    @pytest.mark.parametrize("N,ulps", [(1, 2), (2, 2), (800, 16)])
    def test_matches_dpbtrf(self, N, ulps, nu):
        # dpbtrf factors the float64 overlap, whose rounded off-diagonal
        # moves its factor by up to 13 ulp at N = 800 (nu = 0); the
        # closed form is the factor of the exact overlap
        ref = _band_cholesky(overlap_matrix(BasisSpec(1.0, nu // 2, N)))
        c = _overlap_factor(N, nu)
        k = ref.shape[0]
        assert np.all(np.abs(c[:k] - ref) <= ulps * np.spacing(np.abs(ref)))
        assert not c[k:].any()

    def test_longdouble(self):
        c = _overlap_factor(5, 2.0, np.longdouble)
        assert c.dtype == np.longdouble
        np.testing.assert_allclose(c.astype(float), _overlap_factor(5, 2.0), rtol=1e-16, atol=0)
