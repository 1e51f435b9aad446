import math

import numpy as np
import pytest

from trilag.basis import BasisSpec, overlap_matrix
from trilag.quadrature import _gauss_matrix, gauss_laguerre_rule, quad_potential_matrix
from trilag.specfun import _laguerre_pair_scaled


def pair(nmax, nu, x):
    """(L_{nmax-1}, L_nmax) at x from the rule's scaled recurrence, as floats."""
    lprev, lcur, expo = _laguerre_pair_scaled(nmax, nu, x)
    assert not np.any(expo)
    return float(lprev), float(lcur)


class TestLaguerreSeq:
    # the recurrence gauss_laguerre_rule evaluates L_order and L_{order+1} with

    def test_degree_zero(self):
        assert pair(1, 3.7, 9.0)[0] == 1.0

    def test_degree_one(self):
        np.testing.assert_allclose(pair(1, 2.0, 1.0), [1.0, 2.0])

    def test_hand_value(self):
        # L_1^0(2) = -1 and L_2^0(x) = 1 - 2x + x^2/2 at x = 2
        np.testing.assert_allclose(pair(2, 0.0, 2.0), [-1.0, -1.0])

    @pytest.mark.parametrize("nu", [0.0, 2.0, 4.0])
    @pytest.mark.parametrize("x", [0.3, 5.0, 47.0])
    def test_recurrence_consistency(self, nu, x):
        for n in range(1, 30):
            lprev, lcur = pair(n, nu, x)
            lcur_again, lnext = pair(n + 1, nu, x)
            assert lcur_again == lcur
            lhs = (n + 1) * lnext
            rhs = (2 * n + nu + 1 - x) * lcur - (n + nu) * lprev
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_vectorized_shape(self):
        x = np.linspace(0.1, 10, 7)
        out = _laguerre_pair_scaled(5, 1.0, x)
        assert [(o.shape, o.dtype) for o in out] == [((7,), np.dtype(np.longdouble))] * 3

    def test_rescaled_values_beyond_longdouble_threshold(self):
        # at x = 1e6, n = 1200, |L_n| is about 2^13366, past the 2^8000 rescale
        # threshold; n! L_n^nu(x) = sum_k binom(n+nu, n-k) (-x)^k n!/k! in exact
        # integers is the reference, compared by log2 |L| and sign
        n, nu, x = 1200, 2, 10**6
        lprev, lcur, expo = _laguerre_pair_scaled(n, float(nu), np.array([float(x)]))
        assert expo[0] == 8000
        for m, mantissa in ((n - 1, lprev[0]), (n, lcur[0])):
            exact = sum(math.comb(m + nu, m - k) * (-x) ** k * math.perm(m, m - k)
                        for k in range(m + 1))
            top = exact.bit_length() - 64
            want = math.log2(abs(exact) >> top) + top - math.lgamma(m + 1) / math.log(2)
            got = float(np.log2(np.abs(mantissa))) + float(expo[0])
            assert got == pytest.approx(want, abs=1e-9)
            assert np.sign(mantissa) == (1 if exact > 0 else -1)

    def test_orthogonality_under_quadrature(self):
        # the orthonormal Laguerre table on a 25-node rule: sum_i w_i p_n p_m = delta_nm
        for nu in [0.0, 2.0, 4.0, 10.0]:
            rule = gauss_laguerre_rule(25, nu)
            x = rule.nodes
            G = _gauss_matrix(11, nu, x, rule.log_weights, np.ones(25))
            np.testing.assert_allclose(G, np.eye(11), rtol=0, atol=1e-12)


def exact_order(n, nu):
    """The fewest nodes on which the oracle integrates phi_n phi_m (m <= n)
    exactly: its rule has the weight x^{nu mod 1} e^{-x}, so the integrand
    x^{floor(nu)} x p_n p_m has degree 2n + 1 + floor(nu)."""
    return n + 1 + math.ceil(math.floor(nu) / 2)


class TestNormCoeff:
    # the basis norms a_n = sqrt(lam n!/Gamma(n+nu+1)) as the oracle applies
    # them: with v = 1 it integrates phi_n phi_m, which is the overlap
    # (diagonal 2n+nu+1) only under these norms, exactly on exact_order nodes

    @pytest.mark.parametrize("n", [0, 1, 7, 50, 200])
    @pytest.mark.parametrize("nu", [0.0, 2.0, 10.0])
    def test_norm_identity(self, n, nu):
        basis = BasisSpec(lam=2.5, ell=int(nu) // 2, size=n + 1)
        S = quad_potential_matrix(np.ones_like, basis, order=exact_order(n, nu))
        np.testing.assert_allclose(S, overlap_matrix(basis), rtol=0, atol=1e-13 * (2 * n + nu + 1))

    @pytest.mark.parametrize("nu", [2.0, 10.0])
    def test_one_node_fewer_is_not_exact(self, nu):
        # the weight's integer power costs the rule floor(nu) degrees
        basis = BasisSpec(lam=2.5, ell=int(nu) // 2, size=1)
        S = quad_potential_matrix(np.ones_like, basis, order=exact_order(0, nu) - 1)
        assert abs(S[0, 0] - overlap_matrix(basis)[0, 0]) > 0.1
