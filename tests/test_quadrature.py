import math
import threading

import numpy as np
import pytest
from scipy.special import gammaln

from trilag.basis import BasisSpec
from trilag.potentials import KratzerParams, MorseParams, YukawaParams
from trilag import quadrature
from trilag.quadrature import _rule_table, gauss_laguerre_rule, quad_potential_matrix


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_laguerre_rule(1, 0.0)
        np.testing.assert_allclose(rule.nodes, [1.0], rtol=1e-14)
        np.testing.assert_allclose(np.exp(rule.log_weights).astype(float), [1.0], rtol=1e-14)

    def test_order_two(self):
        rule = gauss_laguerre_rule(2, 0.0)
        np.testing.assert_allclose(rule.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-13)
        np.testing.assert_allclose(
            np.exp(rule.log_weights).astype(float),
            [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4],
            rtol=1e-13,
        )

    @pytest.mark.parametrize("order,nu", [(10, 0.0), (50, 2.0), (300, 0.0), (300, 10.0), (600, 4.0)])
    def test_invariants(self, order, nu):
        rule = gauss_laguerre_rule(order, nu)
        assert rule.nodes.dtype == np.longdouble
        assert rule.nodes.shape == (order,)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0
        weights = np.exp(rule.log_weights)
        assert np.all(weights > 0)
        total = float(np.sum(weights))
        assert total == pytest.approx(math.gamma(nu + 1), rel=1e-12)

    @pytest.mark.parametrize("order,nu", [(20, 0.0), (100, 2.0), (300, 0.0), (600, 10.0)])
    def test_moment_exactness(self, order, nu):
        # x^k against x^nu e^{-x} must give Gamma(nu+k+1) for k <= 2*order-1;
        # checked in log space so the huge high moments stay comparable
        rule = gauss_laguerre_rule(order, nu)
        x = rule.nodes
        for k in [0, 1, order // 2, order, 2 * order - 1]:
            logs = rule.log_weights + k * np.log(x)
            peak = logs.max()
            got = float(np.log(np.sum(np.exp(logs - peak))) + peak)
            assert got == pytest.approx(float(gammaln(nu + k + 1.0)), abs=1e-12)

    @pytest.mark.parametrize("order", [164, 450, 850])
    @pytest.mark.parametrize("nu", [0.0, 2.0, 3.0])
    def test_nodes_are_newton_fixed_points(self, order, nu):
        # a further extended-precision Newton step on L_order^nu moves no
        # node by more than the recurrence's own evaluation noise
        rule = gauss_laguerre_rule(order, nu)
        x = rule.nodes
        prev, cur = np.ones_like(x), 1 + nu - x
        for k in range(1, order):
            prev, cur = cur, ((2 * k + nu + 1 - x) * cur - (k + nu) * prev) / (k + 1)
        step = cur * x / (order * cur - (order + nu) * prev)
        assert float(np.max(np.abs(step / x))) <= 1e-14

    @pytest.mark.parametrize("order,nu", [(450, 0.0), (850, 0.0), (300, 4.0)])
    def test_log_weights_match_mpmath(self, order, nu):
        # w = Gamma(order+nu+1) / (order! x L'(x)^2) at the exact node, found
        # by Newton steps on the 40-digit recurrence from the stored node
        mpmath = pytest.importorskip("mpmath")
        rule = gauss_laguerre_rule(order, nu)

        def pair(x):
            prev, cur = mpmath.mpf(1), 1 + nu - x
            for k in range(1, order):
                prev, cur = cur, ((2 * k + nu + 1 - x) * cur - (k + nu) * prev) / (k + 1)
            return cur, (order * cur - (order + nu) * prev) / x

        with mpmath.workdps(40):
            for i in sorted({0, 1, order // 3, order // 2, order - 2, order - 1}):
                x = mpmath.mpf(float(rule.nodes[i]))
                for _ in range(3):
                    value, deriv = pair(x)
                    x -= value / deriv
                deriv = pair(x)[1]
                ref = (mpmath.loggamma(order + nu + 1) - mpmath.loggamma(order + 1)
                       - mpmath.log(x) - 2 * mpmath.log(abs(deriv)))
                # the longdouble log-weight, to the 40 digits of the reference
                got = mpmath.mpf(float(rule.log_weights[i])) + float(
                    rule.log_weights[i] - np.longdouble(float(rule.log_weights[i])))
                assert abs(got - ref) <= 1e-14

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(5, -1.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, nu):
        # not scipy's "array must not contain infs or NaNs"
        with pytest.raises(ValueError, match="nu must be finite and >= 0"):
            gauss_laguerre_rule(10, nu)

    @pytest.mark.parametrize("order", [10.5, 10.0, "10"])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            gauss_laguerre_rule(order, 0.0)

    def test_numpy_integer_order(self):
        assert gauss_laguerre_rule(np.int64(37), 2.0) is gauss_laguerre_rule(37, 2.0)

    def test_cache_returns_same_rule(self):
        a = gauss_laguerre_rule(37, 2.0)
        b = gauss_laguerre_rule(37, 2.0)
        assert a is b

    def test_cache_thread_safety(self):
        results = []

        def build():
            results.append(gauss_laguerre_rule(123, 6.0))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(np.array_equal(r.nodes, results[0].nodes) for r in results)


class TestRuleTable:
    # the rule's own table sqrt(w_i) p_n(x_i), kept in the rule cache

    def test_orthonormal_rows(self):
        # the rule integrates p_n p_m (degree < 2 order) exactly
        Q = _rule_table(gauss_laguerre_rule(164, 2.0), 100)
        assert Q.shape == (100, 164) and Q.flags.f_contiguous and not Q.flags.writeable
        np.testing.assert_allclose(Q @ Q.T, np.eye(100), rtol=0, atol=1e-13)

    def test_cached_per_size(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_rule_cache", {})
        rule = gauss_laguerre_rule(80, 0.0)
        a = _rule_table(rule, 16)
        assert _rule_table(rule, 16) is a
        b = _rule_table(rule, 12)
        assert b is not a
        np.testing.assert_array_equal(b, a[:12])

    def test_clearing_rule_cache_drops_table(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_rule_cache", {})
        a = _rule_table(gauss_laguerre_rule(80, 0.0), 16)
        with quadrature._rule_lock:
            quadrature._rule_cache.clear()
        b = _rule_table(gauss_laguerre_rule(80, 0.0), 16)
        assert b is not a
        np.testing.assert_array_equal(a, b)


class TestMatrixElement:
    # single elements of the oracle matrix

    def test_zero_potential(self):
        basis = BasisSpec(lam=1.0, ell=0, size=5)
        M = quad_potential_matrix(lambda r: 0.0 * r, basis, order=20)
        assert M.shape == (5, 5)
        assert not M.any()

    def test_coulomb_ground_element(self):
        basis = BasisSpec(lam=1.0, ell=0, size=2)
        got = quad_potential_matrix(lambda r: -1.0 / r, basis, order=5)[0, 0]
        assert got == pytest.approx(-1.0, rel=1e-13)

    def test_classical_yukawa_element(self):
        basis = BasisSpec(lam=1.0, ell=0, size=2)
        got = quad_potential_matrix(lambda r: -np.exp(-0.5 * r) / r, basis, order=200)[0, 0]
        assert got == pytest.approx(-1.0 / 1.5, rel=1e-12)

    def test_symmetry_bit_exact(self):
        basis = BasisSpec(lam=2.0, ell=1, size=8)
        M = quad_potential_matrix(lambda r: -np.exp(-0.3 * r) / r, basis, order=50)
        np.testing.assert_array_equal(M, M.T)

    def test_nonfinite_integrand_reports_node(self):
        basis = BasisSpec(lam=1.0, ell=0, size=3)
        # the node as a plain number, not a numpy scalar's repr
        with pytest.raises(ValueError, match=r"node x=0\.1377934705\d* \(r=0\.1377934705\d*\)"), \
                np.errstate(divide="ignore"):
            quad_potential_matrix(lambda r: 1.0 / (r - r), basis, order=10)


def longdouble_oracle(v, basis, rule, weight_nu):
    """<phi_n| v |phi_m> as a longdouble product of the Laguerre table on the
    rule's nodes, scaled by the basis norms a_n = sqrt(lam n!/Gamma(n+nu+1)):
    a_n a_m / lam sum_i w_i x_i^{2 alpha - weight_nu} v(x_i/lam) L_n(x_i) L_m(x_i)."""
    N, nu = basis.size, basis.nu
    x = rule.nodes
    L = np.empty((N, x.size), np.longdouble)
    L[0] = 1
    if N > 1:
        L[1] = 1 + nu - x
    for k in range(1, N - 1):
        L[k + 1] = ((2 * k + nu + 1 - x) * L[k] - (k + nu) * L[k - 1]) / (k + 1)
    n = np.arange(N)
    a = np.sqrt(basis.lam * np.exp(np.longdouble(gammaln(n + 1.0) - gammaln(n + nu + 1.0))))
    w = np.exp(rule.log_weights)
    g = w * x ** (2 * basis.alpha - weight_nu) * v(x / np.longdouble(basis.lam))
    return np.outer(a, a) / basis.lam * ((L * g) @ L.T)


class TestMatrixOracle:
    def test_symmetric(self):
        basis = BasisSpec(lam=1.0, ell=2, size=10)
        M = quad_potential_matrix(lambda r: -1.0 / r, basis, order=60)
        np.testing.assert_allclose(M, M.T, rtol=1e-13)

    @pytest.mark.parametrize("params,basis", [
        pytest.param(YukawaParams(1.0, 0.5), BasisSpec(1.0, 0, 200), id="classical"),
        pytest.param(MorseParams(-6.0, 4.0, 1.5, 0.8), BasisSpec(6.0, 1, 200), id="morse"),
        pytest.param(KratzerParams(1.0, 5.0), BasisSpec(1.0, 2, 200), id="kratzer"),
        pytest.param(YukawaParams(1.0, 0.5, 0.5, "cosine"), BasisSpec(1.0, 0, 200), id="cosine"),
    ])
    def test_matches_longdouble_product(self, params, basis):
        # the oracle against a test-local longdouble product on the same rule,
        # compared in the validate metric.  The cosine well is assembled by the
        # same Gauss product, so this keeps its oracle independent of that code.
        v, weight_nu = params.radial, params.oracle_nu(basis)
        rule = gauss_laguerre_rule(450, weight_nu)
        ref = longdouble_oracle(v, basis, rule, weight_nu).astype(float)
        got = quad_potential_matrix(v, basis, order=450, weight_nu=weight_nu)
        assert float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-2))) <= 1e-12

    def test_default_order(self):
        # 2 N + nu + 48, at least 300: the rule the oracle builds by default
        basis = BasisSpec(lam=1.3, ell=2, size=200)
        v = lambda r: -np.exp(-0.4 * r) / r
        np.testing.assert_array_equal(
            quad_potential_matrix(v, basis), quad_potential_matrix(v, basis, order=452))
        small = BasisSpec(lam=1.3, ell=2, size=10)
        np.testing.assert_array_equal(
            quad_potential_matrix(v, small), quad_potential_matrix(v, small, order=300))


def _row_mirror(M):
    """The row-by-row mirror the blocked _symmetrize replaced."""
    for i in range(M.shape[0] - 1):
        M[i, i + 1:] = M[i + 1:, i]
    return M


class TestSymmetrize:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 400])
    def test_matches_row_mirror(self, N, order):
        # bit-identical, signed zeros included: tril(M) + tril(M, -1).T would
        # turn a -0.0 below the diagonal into +0.0 above it
        rng = np.random.default_rng(N)
        M = np.asarray(rng.standard_normal((N, N)), order=order)
        M[rng.random((N, N)) < 0.2] = -0.0
        M[rng.random((N, N)) < 0.1] = 0.0
        want = _row_mirror(M.copy(order="K"))
        got = quadrature._symmetrize(M)
        assert got is M
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if N > 1:
            assert np.signbit(got[np.triu_indices(N, 1)]).any()
