import math

import numpy as np
import pytest

from trilag.quadrature import gauss_laguerre_rule
from trilag.specfun import laguerre_seq, norm_coeff


class TestLaguerreSeq:
    def test_degree_zero(self):
        np.testing.assert_allclose(laguerre_seq(0, 3.7, 9.0), [1.0])

    def test_degree_one(self):
        np.testing.assert_allclose(laguerre_seq(1, 2.0, 1.0), [1.0, 2.0])

    def test_hand_value(self):
        # L_2^0(x) = 1 - 2x + x^2/2 at x = 2
        np.testing.assert_allclose(laguerre_seq(2, 0.0, 2.0), [1.0, -1.0, -1.0])

    @pytest.mark.parametrize("nu", [0.0, 2.0, 4.0])
    @pytest.mark.parametrize("x", [0.3, 5.0, 47.0])
    def test_recurrence_consistency(self, nu, x):
        L = laguerre_seq(30, nu, x)
        for n in range(1, 30):
            lhs = (n + 1) * L[n + 1]
            rhs = (2 * n + nu + 1 - x) * L[n] - (n + nu) * L[n - 1]
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_vectorized_shape(self):
        x = np.linspace(0.1, 10, 7)
        assert laguerre_seq(5, 1.0, x).shape == (6, 7)

    def test_orthogonality_under_quadrature(self):
        # integral of L_n L_m x^nu e^{-x} = delta_nm Gamma(n+nu+1)/n!
        for nu in [0.0, 2.0, 4.0, 10.0]:
            rule = gauss_laguerre_rule(25, nu)
            L = laguerre_seq(10, nu, rule.nodes)
            for n in range(11):
                for m in range(n, 11):
                    got = rule.integrate(L[n] * L[m])
                    want = 0.0 if n != m else math.exp(
                        math.lgamma(n + nu + 1) - math.lgamma(n + 1.0)
                    )
                    if n == m:
                        assert got == pytest.approx(want, rel=1e-12)
                    else:
                        assert abs(got) <= 1e-12 * math.exp(
                            math.lgamma(n + nu + 1) - math.lgamma(n + 1.0)
                        )


class TestNormCoeff:
    def test_examples(self):
        assert norm_coeff(0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert norm_coeff(0, 0.0, 4.0) == pytest.approx(2.0, rel=1e-15)
        assert norm_coeff(1, 2.0, 1.0) == pytest.approx(math.sqrt(1 / 6), rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 7, 50, 200])
    @pytest.mark.parametrize("nu", [0.0, 2.0, 10.0])
    def test_norm_identity(self, n, nu):
        lam = 2.5
        a = norm_coeff(n, nu, lam)
        val = a * a * math.exp(math.lgamma(n + nu + 1) - math.lgamma(n + 1.0))
        assert val == pytest.approx(lam, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            norm_coeff(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            norm_coeff(0, 0.0, 0.0)

