import math

import numpy as np
import pytest

from trilag.basis import BasisSpec, h0_matrix, overlap_matrix
from trilag.eigen import Pencil, solve_pencil


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
