import math
import threading

import numpy as np
import pytest
from scipy.special import gammaln

from trilag.basis import BasisSpec
from trilag.potentials import (
    KratzerParams,
    MorseParams,
    YukawaParams,
    oracle_weight_nu,
    radial_function,
)
from trilag.quadrature import (
    QuadRule,
    gauss_laguerre_rule,
    quad_matrix_element,
    quad_potential_matrix,
)
from trilag.specfun import laguerre_seq


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_laguerre_rule(1, 0.0)
        np.testing.assert_allclose(rule.nodes, [1.0], rtol=1e-14)
        np.testing.assert_allclose(rule.weights.astype(float), [1.0], rtol=1e-14)

    def test_order_two(self):
        rule = gauss_laguerre_rule(2, 0.0)
        np.testing.assert_allclose(rule.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-13)
        np.testing.assert_allclose(
            rule.weights.astype(float),
            [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4],
            rtol=1e-13,
        )

    @pytest.mark.parametrize("order,nu", [(10, 0.0), (50, 2.0), (300, 0.0), (300, 10.0), (600, 4.0)])
    def test_invariants(self, order, nu):
        rule = gauss_laguerre_rule(order, nu)
        assert rule.nodes.shape == (order,)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0
        assert np.all(rule.weights > 0)
        total = float(np.sum(rule.weights))
        assert total == pytest.approx(math.gamma(nu + 1), rel=1e-12)

    @pytest.mark.parametrize("order,nu", [(20, 0.0), (100, 2.0), (300, 0.0), (600, 10.0)])
    def test_moment_exactness(self, order, nu):
        # x^k against x^nu e^{-x} must give Gamma(nu+k+1) for k <= 2*order-1;
        # checked in log space so the huge high moments stay comparable
        rule = gauss_laguerre_rule(order, nu)
        x = np.asarray(rule.nodes, np.longdouble)
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
        x = np.asarray(rule.nodes, np.longdouble)
        prev, cur = np.ones_like(x), 1 + nu - x
        for k in range(1, order):
            prev, cur = cur, ((2 * k + nu + 1 - x) * cur - (k + nu) * prev) / (k + 1)
        step = cur * x / (order * cur - (order + nu) * prev)
        assert float(np.max(np.abs(step / x))) <= 1e-14

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(5, -1.0)

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


class TestMatrixElement:
    def test_zero_potential(self):
        basis = BasisSpec(lam=1.0, ell=0, size=5)
        for n in range(5):
            for m in range(5):
                assert quad_matrix_element(lambda r: 0.0 * r, basis, n, m, order=20) == 0.0

    def test_coulomb_ground_element(self):
        basis = BasisSpec(lam=1.0, ell=0, size=2)
        got = quad_matrix_element(lambda r: -1.0 / r, basis, 0, 0, order=5)
        assert got == pytest.approx(-1.0, rel=1e-13)

    def test_classical_yukawa_element(self):
        basis = BasisSpec(lam=1.0, ell=0, size=2)
        got = quad_matrix_element(lambda r: -np.exp(-0.5 * r) / r, basis, 0, 0, order=200)
        assert got == pytest.approx(-1.0 / 1.5, rel=1e-12)

    def test_symmetry_bit_exact(self):
        basis = BasisSpec(lam=2.0, ell=1, size=8)
        v = lambda r: -np.exp(-0.3 * r) / r
        for n in range(8):
            for m in range(8):
                assert quad_matrix_element(v, basis, n, m, order=50) == quad_matrix_element(
                    v, basis, m, n, order=50
                )

    def test_nonfinite_integrand_reports_node(self):
        basis = BasisSpec(lam=1.0, ell=0, size=3)
        with pytest.raises(ValueError, match="node"), np.errstate(divide="ignore"):
            quad_matrix_element(lambda r: 1.0 / (r - r), basis, 0, 0, order=10)

    def test_index_bounds(self):
        basis = BasisSpec(lam=1.0, ell=0, size=3)
        with pytest.raises(ValueError):
            quad_matrix_element(lambda r: -1 / r, basis, 3, 0, order=10)


class TestMatrixOracle:
    def test_matches_elementwise(self):
        basis = BasisSpec(lam=1.5, ell=1, size=6)
        v = lambda r: -np.exp(-0.4 * r) / r
        M = quad_potential_matrix(v, basis, order=80)
        for n in range(6):
            for m in range(6):
                assert M[n, m] == pytest.approx(
                    quad_matrix_element(v, basis, n, m, order=80), rel=1e-12, abs=1e-15
                )

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
        # the oracle as a longdouble product of the Laguerre table with the
        # basis norms, on the same rule; compared in the validate metric.
        # The cosine well is assembled by the same Gauss product, so this
        # keeps its oracle independent of that code.
        v, weight_nu = radial_function(params), oracle_weight_nu(params, basis)
        rule = gauss_laguerre_rule(450, weight_nu)
        x = np.asarray(rule.nodes, np.longdouble)
        L = laguerre_seq(basis.size - 1, basis.nu, x)
        g = rule.weights * x ** (2 * basis.alpha - weight_nu) * v(x / np.longdouble(basis.lam))
        a = np.array([basis.norm_coeff(k) for k in range(basis.size)], np.longdouble)
        ref = (np.outer(a, a) / basis.lam * ((L * g) @ L.T)).astype(float)
        got = quad_potential_matrix(v, basis, order=450, weight_nu=weight_nu)
        assert float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-2))) <= 1e-12
