import math

import numpy as np
import pytest

from trilag.basis import BasisSpec, overlap_matrix
from trilag.quadrature import _gauss_matrix, gauss_laguerre_rule, quad_potential_matrix
from trilag import quadrature
from trilag.specfun import _laguerre_rows


def rows(count, nu, x):
    """p_n(x)/p_0 for n < count from the Gauss layer's recurrence, as floats."""
    x = np.longdouble(x)
    return [float(r) for r in _laguerre_rows(count, nu, x, np.ones_like(x))]


def scaled(n, nu):
    """sqrt(n! Gamma(nu+1) / Gamma(n+nu+1)), which takes L_n^nu to p_n/p_0."""
    return math.exp(0.5 * (math.lgamma(n + 1) + math.lgamma(nu + 1) - math.lgamma(n + nu + 1)))


class TestLaguerreSeq:
    # the recurrence of the orthonormal p_n = sqrt(n!/Gamma(n+nu+1)) L_n^nu that
    # the rule build and the Laguerre tables run

    def test_degree_zero(self):
        assert rows(1, 3.7, 9.0) == [1.0]

    def test_degree_one(self):
        # L_1^2(1) = 2
        np.testing.assert_allclose(rows(2, 2.0, 1.0), [1.0, 2.0 * scaled(1, 2.0)], rtol=1e-15)

    def test_hand_value(self):
        # L_1^0(2) = -1 and L_2^0(x) = 1 - 2x + x^2/2 at x = 2
        np.testing.assert_allclose(rows(3, 0.0, 2.0), [1.0, -1.0, -1.0], rtol=1e-15)
        # L_1^nu(x) = nu + 1 - x and 2 L_2^nu(x) = (nu+1)(nu+2) - 2(nu+2)x + x^2 at
        # nu = 0.5, x = 1
        np.testing.assert_allclose(rows(3, 0.5, 1.0), [1.0, 0.5 * scaled(1, 0.5),
                                                       -0.125 * scaled(2, 0.5)], rtol=1e-15)

    @pytest.mark.parametrize("nu", [0.0, 0.449, 2.0, 4.0])
    @pytest.mark.parametrize("x", [0.3, 5.0, 47.0])
    def test_recurrence_consistency(self, nu, x):
        p = rows(31, nu, x)
        assert rows(12, nu, x) == p[:12]
        for n in range(1, 30):
            lhs = math.sqrt((n + 1) * (n + 1 + nu)) * p[n + 1]
            rhs = (2 * n + nu + 1 - x) * p[n] - math.sqrt(n * (n + nu)) * p[n - 1]
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13 * abs(p[n]))

    def test_vectorized_shape(self):
        x = np.linspace(0.1, 10, 7, dtype=np.longdouble)
        out = list(_laguerre_rows(5, 1.0, x, np.ones_like(x)))
        assert [(o.shape, o.dtype) for o in out] == [((7,), np.dtype(np.longdouble))] * 5

    def test_power_of_two_start_moves_no_mantissa(self):
        # the rule build starts at 2^-s: every row is the unscaled one times 2^-s
        x = np.array([0.3, 40.0, 900.0], np.longdouble)
        s = np.array([0, 14, 325])
        one = list(_laguerre_rows(400, 0.449, x, np.ones_like(x)))
        two = list(_laguerre_rows(400, 0.449, x, np.ldexp(np.ones_like(x), -s)))
        for a, b in zip(one, two):
            np.testing.assert_array_equal(np.ldexp(a, -s), b)

    def test_orthogonality_under_quadrature(self):
        # the orthonormal Laguerre table on a 25-node rule: sum_i w_i p_n p_m = delta_nm
        for nu in [0.0, 2.0, 4.0, 10.0]:
            rule = gauss_laguerre_rule(25, nu)
            x = rule.nodes
            G = _gauss_matrix(11, nu, x, rule.log_weights, np.ones(25))
            np.testing.assert_allclose(G, np.eye(11), rtol=0, atol=1e-12)


class TestRuleFromRecurrence:
    # gauss_laguerre_rule keeps the recurrence's last two rows, started at 2^-s

    @pytest.mark.parametrize("order,nu", [(300, 0.3), (450, 0.449), (450, 2 * math.sqrt(1.5))])
    def test_weight_sum_fractional_nu(self, order, nu):
        # coefficients formed in float64 put these sums 7.8e-14, 8.6e-14 and 7.8e-15 off
        rule = gauss_laguerre_rule(order, nu)
        total = float(np.sum(np.exp(rule.log_weights)))
        assert abs(total / math.gamma(nu + 1) - 1) <= 1e-15

    def test_order_6000_is_finite(self):
        # its largest node is about 23900: unscaled rows would reach e^{11950},
        # past the longdouble range
        rule = gauss_laguerre_rule(6000, 0.0)
        assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.log_weights))
        assert abs(float(np.sum(np.exp(rule.log_weights))) - 1) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_non_finite_rule_raises(self, monkeypatch):
        # the ValueError is the one report: no numpy overflow or invalid-value warning
        def overflowing(count, nu, x, start):
            for _ in range(count):
                yield np.full_like(x, np.inf)

        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_laguerre_rows", overflowing)
        with pytest.raises(ValueError, match=r"order 30 at nu = 0\.5 is not finite"):
            gauss_laguerre_rule(30, 0.5)
        assert not quadrature._rule_cache


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
