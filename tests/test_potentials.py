import math
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import trilag.potentials
import trilag.quadrature
from trilag._golden import TABLE3, TABLE3_LAM
from trilag.basis import BasisSpec, _overlap_factor, overlap_matrix
from trilag.potentials import (
    KratzerParams,
    MorseParams,
    YukawaParams,
    kratzer_matrix,
    morse_matrix,
    oracle_weight_nu,
    radial_function,
    yukawa_matrix,
)
from trilag.quadrature import (_gauss_matrix, _gram, _rule_table, gauss_laguerre_rule,
                               quad_potential_matrix)
from trilag.solver import critical_screening


def exp_kernel(c, basis):
    """The matrix of e^{-c r} in the basis: the Gram matrix of its factor."""
    return _gram([(1.0, trilag.potentials._exp_factor(c, basis))])


def oracle_deviation(analytic, params, basis, order=300):
    """Max deviation vs the quadrature oracle: relative for appreciable
    elements, absolute (scaled by 1e-2) for tiny ones.  Through the function
    forms of the oracle methods, which the benchmark workloads import."""
    numeric = quad_potential_matrix(
        radial_function(params), basis, order=order,
        weight_nu=oracle_weight_nu(params, basis),
    )
    return float(np.max(np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-2)))


class TestParamValidation:
    def test_yukawa(self):
        with pytest.raises(ValueError):
            YukawaParams(strength=0.0)
        with pytest.raises(ValueError):
            YukawaParams(strength=1.0, mu_im=0.5, variant="classical")
        with pytest.raises(ValueError):
            YukawaParams(strength=1.0, variant="tangent")

    @pytest.mark.parametrize("variant", ["cosine", "sine"])
    def test_yukawa_mu_im_above_mu_re(self, variant):
        with pytest.raises(ValueError, match="mu_im <= mu_re"):
            YukawaParams(strength=1.0, mu_re=0.0, mu_im=1.0, variant=variant)
        with pytest.raises(ValueError, match="mu_im <= mu_re"):
            YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5000001, variant=variant)
        YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant=variant)

    @pytest.mark.parametrize("variant,mu_im", [("classical", 0.0), ("cosine", 0.3),
                                                ("sine", 0.3)])
    def test_yukawa_with_screening(self, variant, mu_im):
        # both screening parts for the cosine and sine wells, mu_re only for the classical one
        p = YukawaParams(strength=2.0, variant=variant).with_screening(0.3)
        assert p == YukawaParams(strength=2.0, mu_re=0.3, mu_im=mu_im, variant=variant)
        with pytest.raises(ValueError, match="screening parameters must be >= 0"):
            p.with_screening(-1.0)

    def test_kratzer(self):
        with pytest.raises(ValueError):
            KratzerParams(coulomb=1.0, inverse_square=0.0)

    def test_morse(self):
        with pytest.raises(ValueError):
            MorseParams(depth=-1.0, r_eq=0.0, width=1.0, beta=1.0)
        with pytest.raises(ValueError):
            MorseParams(depth=-1.0, r_eq=1.0, width=0.0, beta=1.0)


    @pytest.mark.parametrize("field", ["strength", "mu_re", "mu_im"])
    def test_yukawa_non_finite(self, field):
        kwargs = dict(strength=1.0, mu_re=0.5, mu_im=0.5, variant="cosine")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                YukawaParams(**dict(kwargs, **{field: bad}))

    @pytest.mark.parametrize("field", ["coulomb", "inverse_square"])
    def test_kratzer_non_finite(self, field):
        kwargs = dict(coulomb=1.0, inverse_square=5.0)
        for bad in (float("nan"), -float("inf")):
            with pytest.raises(ValueError, match=field):
                KratzerParams(**dict(kwargs, **{field: bad}))

    @pytest.mark.parametrize("field", ["depth", "r_eq", "width", "beta"])
    def test_morse_non_finite(self, field):
        kwargs = dict(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                MorseParams(**dict(kwargs, **{field: bad}))


def connection_reference(N, nu, sigma):
    """C[n, j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n for j <= n, in longdouble.

    Built along sub-diagonals from the exact ratio
    C[n, j-1] = C[n, j] (j+nu) (sigma-1) / (n-j+1), seeded by the diagonal
    C[n, n] = sigma^{-n}; independent of the column recurrence of the
    normalized connection matrix the assembly uses.
    """
    dtype = np.longdouble
    u = dtype(sigma) - 1
    C = np.zeros((N, N), dtype)
    n = np.arange(N)
    C[n, n] = np.cumprod(np.r_[np.ones(1, dtype), np.full(N - 1, dtype(1) / dtype(sigma))])
    for d in range(1, N):
        rows = np.arange(d, N)
        C[rows, rows - d] = C[rows, rows - d + 1] * ((rows - d + nu + 1) * u / d)
    return C


def normalized_connection_reference(N, nu, sigma):
    """C^[n, j] = sigma^{-(nu+1)/2} C[n, j] sqrt(h_j/h_n) for j <= n, in longdouble, unfloored.

    The diagonal is sigma^{-j-(nu+1)/2}, a cumulative product of 1/sigma
    from sigma^{-(nu+1)/2}, and down each column
    C^[n, j] = C^[n-1, j] ((sigma-1)/sigma) sqrt(n (n+nu)) / (n-j), so one
    cumulative product along axis 0 builds it.
    """
    s = np.longdouble(sigma)
    k = np.arange(N, dtype=np.longdouble)
    # 1/(n-j) below the diagonal, ones on and above it
    R = toeplitz(np.r_[1, 1 / k[1:]], np.ones(N, np.longdouble))
    np.multiply(R, ((s - 1) / s * np.sqrt(k * (k + nu)))[:, None], out=R,
                where=np.tri(N, k=-1, dtype=bool))
    diag = np.full(N, 1 / s)
    diag[0] = s ** (-(nu + 1) / 2)
    R[np.diag_indices(N)] = np.cumprod(diag)
    np.cumprod(R, axis=0, out=R)
    np.copyto(R, 0, where=~np.tri(N, dtype=bool))  # the ones above the diagonal
    return R


def moment_norms(N, nu):
    """h_j = Gamma(j+nu+1)/j! by the exact cumulative ratio product, in longdouble."""
    j = np.arange(N - 1)
    ratios = ((j + nu + 1) / (j + 1)).astype(np.longdouble)
    return np.cumprod(np.r_[np.ones(1, np.longdouble) * math.gamma(nu + 1), ratios])


def classical_reference(p, basis):
    """-(A/r) e^{-mu_re r} as -A lam sigma^{-(nu+1)} (C h C^T)_nm / sqrt(h_n h_m),
    all in longdouble with the exact moment norms."""
    N, nu = basis.size, basis.nu
    sigma = 1.0 + p.mu_re / basis.lam
    h = moment_norms(N, nu)
    C = connection_reference(N, nu, sigma)
    J = (C * h) @ C.T
    r = 1 / np.sqrt(h)
    return -p.strength * basis.lam * np.longdouble(sigma) ** (-(nu + 1)) * J * np.outer(r, r)


def complex_closed_form(p, basis):
    """-(A/r) e^{-mu r} at complex mu by the connection sum in clongdouble.

    Independent of the Gauss assembly.  Its terms cancel, so it serves as a
    reference only at small N, where its real part is the cosine well and
    its imaginary part the sine well.
    """
    N, nu = basis.size, basis.nu
    sigma = np.clongdouble(1 + complex(p.mu_re, p.mu_im) / basis.lam)
    C = np.zeros((N, N), np.clongdouble)
    for n in range(N):
        C[n, n] = sigma ** -n
        for j in range(n, 0, -1):
            C[n, j - 1] = C[n, j] * (j + nu) * (sigma - 1) / (n - j + 1)
    J = (C * moment_norms(N, nu)) @ C.T * sigma ** (-(nu + 1))
    a = np.sqrt(basis.lam / moment_norms(N, nu))
    return (-p.strength * np.outer(a, a) * J).astype(complex)


def yukawa_pair(mu_re, mu_im, basis):
    """Cosine and sine matrices at the same screening, as V_cos + i V_sin."""
    pc = YukawaParams(strength=1.0, mu_re=mu_re, mu_im=mu_im, variant="cosine")
    ps = YukawaParams(strength=1.0, mu_re=mu_re, mu_im=mu_im, variant="sine")
    return yukawa_matrix(pc, basis) + 1j * yukawa_matrix(ps, basis)


class TestYukawaElement:
    def test_coulomb_limit_value(self):
        p = YukawaParams(strength=1.0, mu_re=0.0, mu_im=0.0, variant="classical")
        b = BasisSpec(lam=1.0, ell=0, size=3)
        assert yukawa_matrix(p, b)[0, 0] == pytest.approx(-1.0, rel=1e-14)

    def test_screened_value(self):
        p = YukawaParams(strength=1.0, mu_re=1.0, variant="classical")
        b = BasisSpec(lam=1.0, ell=0, size=3)
        assert yukawa_matrix(p, b)[0, 0] == pytest.approx(-0.5, rel=1e-14)

    def test_complex_screening_value(self):
        # -1/sigma at sigma = 1.5 + 0.5i: cosine -Re, sine -Im
        got = yukawa_pair(0.5, 0.5, BasisSpec(lam=1.0, ell=0, size=3))[0, 0]
        assert got.real == pytest.approx(-0.6, rel=1e-14)
        assert got.imag == pytest.approx(0.2, rel=1e-14)

    def test_complex_screening_value_ell1(self):
        # -sigma^{-3} = -(0.144 - 0.208i) at nu = 2
        got = yukawa_pair(0.5, 0.5, BasisSpec(lam=1.0, ell=1, size=3))[0, 0]
        assert got.real == pytest.approx(-0.144, rel=1e-14)
        assert got.imag == pytest.approx(0.208, rel=1e-14)

    def test_continuity_at_zero_screening(self):
        b = BasisSpec(lam=1.0, ell=0, size=30)
        eps = 1e-8
        coulomb = yukawa_matrix(YukawaParams(strength=1.0, variant="classical"), b)
        np.testing.assert_array_equal(coulomb, -np.eye(30))
        for p in (YukawaParams(strength=1.0, mu_re=eps, variant="classical"),
                  YukawaParams(strength=1.0, mu_re=eps, mu_im=eps, variant="cosine")):
            assert np.max(np.abs(yukawa_matrix(p, b) - coulomb)) < 100 * eps

    def test_matches_matrix(self):
        # selected elements of the closed form against the assembled matrix
        b = BasisSpec(lam=2.0, ell=1, size=12)
        V = yukawa_pair(0.3, 0.3, b)
        ref = complex_closed_form(YukawaParams(1.0, 0.3, 0.3, "cosine"), b)
        for n, m in [(0, 0), (2, 9), (11, 11), (5, 1)]:
            assert V[n, m] == pytest.approx(ref[n, m], rel=1e-13)


class TestYukawaMatrix:
    def test_variant_algebra(self):
        b = BasisSpec(lam=1.0, ell=0, size=20)
        ref = complex_closed_form(YukawaParams(1.0, 0.4, 0.4, "cosine"), b)
        np.testing.assert_allclose(yukawa_pair(0.4, 0.4, b), ref, rtol=0, atol=1e-13)

    def test_classical_equals_cosine_at_real_mu(self):
        b = BasisSpec(lam=1.0, ell=0, size=15)
        Vcl = yukawa_matrix(YukawaParams(strength=1.0, mu_re=0.7, variant="classical"), b)
        Vco = yukawa_matrix(YukawaParams(strength=1.0, mu_re=0.7, mu_im=0.0, variant="cosine"), b)
        np.testing.assert_array_equal(Vcl, Vco)

    def test_sine_vanishes_at_real_mu(self):
        p = YukawaParams(strength=1.0, mu_re=0.7, mu_im=0.0, variant="sine")
        V = yukawa_matrix(p, BasisSpec(lam=1.0, ell=1, size=40))
        assert V.shape == (40, 40)
        assert not V.any()

    def test_symmetry(self):
        p = YukawaParams(strength=1.0, mu_re=2.0, mu_im=2.0, variant="sine")
        V = yukawa_matrix(p, BasisSpec(lam=1.0, ell=0, size=40))
        np.testing.assert_array_equal(V, V.T)

    @pytest.mark.parametrize("delta,lam", [(0.01, 2.0), (0.5, 2.0), (9.0, 2.0)])
    def test_oracle_agreement_cosine(self, delta, lam):
        p = YukawaParams(strength=1.0, mu_re=delta, mu_im=delta, variant="cosine")
        b = BasisSpec(lam=lam, ell=0, size=30)
        assert oracle_deviation(yukawa_matrix(p, b), p, b) < 1e-11

    def test_oracle_agreement_sine(self):
        p = YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant="sine")
        b = BasisSpec(lam=2.0, ell=0, size=30)
        assert oracle_deviation(yukawa_matrix(p, b), p, b) < 1e-11


def recurrence_form(p, basis):
    """The cosine or sine well as one Gauss product on the rule scaled to the
    weight x^nu e^{-s x}: nodes y_i/s, log-weights less (nu+1) ln s, and the
    Laguerre table rebuilt by the longdouble recurrence at those nodes."""
    N, nu, lam = basis.size, basis.nu, basis.lam
    s = np.longdouble(1.0 + p.mu_re / lam)
    rule = gauss_laguerre_rule(N + trilag.potentials._GAUSS_MARGIN, nu)
    x = rule.nodes / s
    phase = (p.mu_im / lam) * x
    f = np.sin(phase) if p.variant == "sine" else -np.cos(phase)
    return _gauss_matrix(N, nu, x, rule.log_weights - (nu + 1) * np.log(s), p.strength * lam * f)


def longdouble_gauss(p, basis):
    """The same Gauss sum as C^ (Q f Q^T) C^T with every product in longdouble."""
    N, nu, lam = basis.size, basis.nu, basis.lam
    s = 1.0 + p.mu_re / lam
    rule = gauss_laguerre_rule(N + trilag.potentials._GAUSS_MARGIN, nu)
    y = rule.nodes
    phase = (p.mu_im / lam) * (y / s)
    f = p.strength * lam * (np.sin(phase) if p.variant == "sine" else -np.cos(phase))
    Q = np.empty((N, y.size), np.longdouble)
    Q[0] = np.exp(0.5 * (rule.log_weights - math.lgamma(nu + 1.0)))
    k = np.arange(N + 1, dtype=np.longdouble)
    off = np.sqrt(k * (k + nu))
    prev = np.zeros_like(y)
    for n in range(N - 1):
        prev, Q[n + 1] = Q[n], ((2 * n + nu + 1 - y) * Q[n] - off[n] * prev) / off[n + 1]
    C = normalized_connection_reference(N, nu, s)
    return C @ ((Q * f) @ Q.T) @ C.T


class TestGaussAssembly:
    # V = P diag(f) P^T with P = C^ Q1 on the rule's cached table, against
    # the Gauss product the recurrence forms at the scaled nodes

    @pytest.mark.parametrize("variant", ["cosine", "sine"])
    @pytest.mark.parametrize("delta", [0.01, 0.32, 9.0])
    @pytest.mark.parametrize("N", [30, 100, 400])
    def test_matches_recurrence_form(self, N, delta, variant):
        p = YukawaParams(1.0, delta, delta, variant)
        b = BasisSpec(1.0, 0, N)
        V, ref = yukawa_matrix(p, b), recurrence_form(p, b)
        assert np.max(np.abs(V - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("variant", ["cosine", "sine"])
    @pytest.mark.parametrize("delta", [0.01, 9.0])
    @pytest.mark.parametrize("ell,lam", [(1, 1.3), (3, 2.0)])
    def test_as_accurate_as_recurrence_form(self, ell, lam, delta, variant):
        # both float64 forms against the same sum in longdouble: they differ
        # from each other by up to ~2e-15 max|V| away from ell = 0, lam = 1,
        # and each is that close to the longdouble sum
        p = YukawaParams(1.0, delta, delta, variant)
        b = BasisSpec(lam, ell, 100)
        exact = longdouble_gauss(p, b)
        scale = float(np.max(np.abs(exact)))
        for V in (yukawa_matrix(p, b), recurrence_form(p, b)):
            assert float(np.max(np.abs(V - exact))) <= 2e-15 * scale

    def test_screening_builds_table_once(self, monkeypatch):
        # every step of a bisection at N=100 reads one cached table
        calls = []
        table = trilag.quadrature._laguerre_table

        def counted(*args):
            calls.append(args[0])
            return table(*args)

        monkeypatch.setattr(trilag.quadrature, "_rule_cache", {})
        monkeypatch.setattr(trilag.quadrature, "_laguerre_table", counted)
        dc = critical_screening(YukawaParams(1.0, variant="cosine"), 0, 1, (0.2, 0.5))
        assert dc == 0.32095947265625
        assert calls == [100]

    def test_concurrent_first_calls(self, monkeypatch):
        monkeypatch.setattr(trilag.quadrature, "_rule_cache", {})
        p = YukawaParams(1.0, 0.5, 0.5, "cosine")
        b = BasisSpec(1.0, 0, 120)
        barrier = threading.Barrier(2)
        results = [None, None]

        def assemble(i):
            barrier.wait()
            results[i] = yukawa_matrix(p, b)

        threads = [threading.Thread(target=assemble, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], yukawa_matrix(p, b))


class TestClassicalYukawa:
    @pytest.mark.parametrize("mu,lam", [(0.5, 2.0), (9.0, 1.0), (1000.0, 0.05), (0.05, 20.0)])
    @pytest.mark.parametrize("ell", [0, 1, 3])
    @pytest.mark.parametrize("N", [150, 400])
    def test_elementwise_against_longdouble_reference(self, N, ell, mu, lam):
        # a sum of non-negative terms: accurate elementwise, not just
        # relative to the largest element, and never positive
        p = YukawaParams(strength=1.3, mu_re=mu)
        b = BasisSpec(lam=lam, ell=ell, size=N)
        V = yukawa_matrix(p, b)
        ref = classical_reference(p, b)
        big = np.abs(ref) > 1e-200
        assert float(np.max(np.abs(V[big] - ref[big]) / np.abs(ref[big]))) <= 1e-14
        assert (V <= 0).all()

    @pytest.mark.parametrize("ell", [0, 1, 3])
    def test_coulomb_limit_bit_exact(self, ell):
        A, lam = 1.7, 2.3
        V = yukawa_matrix(YukawaParams(A, 0.0), BasisSpec(lam=lam, ell=ell, size=60))
        np.testing.assert_array_equal(V, -A * lam * np.eye(60))


class TestExpElement:
    def test_zero_exponent_is_overlap(self):
        b = BasisSpec(lam=1.3, ell=1, size=12)
        np.testing.assert_allclose(exp_kernel(0.0, b), overlap_matrix(b), rtol=0, atol=1e-12)

    def test_ground_values(self):
        # (nu+1)/sigma^(nu+2) at sigma = 2
        assert exp_kernel(1.0, BasisSpec(1.0, 0, 2))[0, 0] == pytest.approx(0.25, rel=1e-14)
        assert exp_kernel(1.0, BasisSpec(1.0, 1, 2))[0, 0] == pytest.approx(3 / 2 ** 4, rel=1e-14)

    def test_element_matches_matrix(self):
        # an element does not depend on the basis size it is computed in
        b = BasisSpec(lam=2.0, ell=2, size=10)
        M = exp_kernel(0.8, b)
        for n, m in [(0, 0), (3, 9), (7, 2)]:
            small = exp_kernel(0.8, b.with_size(max(n, m) + 1))
            assert small[n, m] == pytest.approx(M[n, m], rel=1e-13)


def _exp_kernel_reference(c, basis):
    """Exponential kernel from the three-term recurrence of x L_j^nu:
    (2j+nu+1) h_j on the diagonal minus (j+nu+1) h_j couplings of
    adjacent connection columns, as two dense products."""
    N, nu = basis.size, basis.nu
    sigma = 1.0 + c / basis.lam
    C = connection_reference(N, nu, sigma)
    h = moment_norms(N, nu)
    j = np.arange(N)
    M = (C * ((2 * j + nu + 1) * h)) @ C.T
    X = (C[:, :-1] * ((j[:-1] + nu + 1) * h[:-1])) @ C[:, 1:].T
    return (M - X - X.T) * np.longdouble(sigma) ** (-(nu + 2))


class TestExpKernel:
    @staticmethod
    def gram_deviation(c, basis):
        # |dK_nm| relative to sqrt(K_nn K_mm): K is a Gram matrix, so this
        # bounds every element by the scale of its row and column
        h = moment_norms(basis.size, basis.nu)
        ref = _exp_kernel_reference(c, basis) / np.sqrt(np.outer(h, h))
        d = np.sqrt(np.diag(ref))
        return float(np.max(np.abs(exp_kernel(c, basis) - ref) / np.outer(d, d)))

    @pytest.mark.parametrize("N,c", [pytest.param(150, c, id=str(c)) for c in (0.3, 1.5, 4.0)]
                             + [pytest.param(400, 1.5, id="N400-1.5")])
    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_matches_recurrence_form(self, ell, N, c):
        assert self.gram_deviation(c, BasisSpec(lam=1.0, ell=ell, size=N)) <= 1e-13


def _unfloored_factor(c, basis):
    """B = L_S C^' combined in longdouble before one cast, with no floor: the
    factor the floored float64 one replaced."""
    N, nu = basis.size, basis.nu
    C = normalized_connection_reference(N, nu + 1, 1.0 + c / basis.lam)
    L = _overlap_factor(N, nu, np.longdouble)
    B = C * L[0, :, None]
    B[1:] += L[1, :-1, None] * C[:-1]
    return B


class TestNormalizedConnection:
    # the float64 C^ from three running products against the longdouble
    # column recurrence: within five float64 roundings on every entry at or
    # above the floor, and exactly 0 below it
    FLOOR = 2.0 ** -511
    SHIFT = trilag.potentials._SHIFT

    def check(self, N, nu, sigma, shift=0):
        ref = normalized_connection_reference(N, nu, sigma) * np.longdouble(2) ** shift
        C = trilag.potentials._normalized_connection(N, nu, sigma, shift)
        assert C.flags.f_contiguous
        keep = ref >= self.FLOOR
        assert not C[~keep].any()
        assert float(np.max(np.abs(C[keep] - ref[keep]) / ref[keep])) <= 5e-16

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 200), st.floats(0.0, 10.0), st.floats(1.0, 20.0))
    def test_matches_longdouble_reference(self, N, nu, sigma):
        # shifted, the classical Yukawa's factor: C^ scaled by 2^219 and
        # floored at 2^-730
        self.check(N, nu, sigma)
        self.check(N, nu, sigma, self.SHIFT)

    @pytest.mark.parametrize("N", [600, 1100])
    def test_products_renormalized_across_runs(self, N):
        # past _RUN factors the running products carry their renormalized
        # mantissa into the next run
        assert N > trilag.potentials._RUN
        self.check(N, 2.0, 1.05)

    @pytest.mark.parametrize("nu", [0.0, 3.0])
    def test_unit_sigma_is_identity(self, nu):
        # at sigma = 1 every t_k, k >= 1, is 0 and the exponent sums below the
        # diagonal reach thousands of binades: no NaN, no warning, exact ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = trilag.potentials._normalized_connection(400, nu, 1.0)
            scaled = trilag.potentials._normalized_connection(400, nu, 1.0, self.SHIFT)
        assert np.array_equal(C, np.eye(400))
        assert np.array_equal(scaled, 2.0 ** self.SHIFT * np.eye(400))

    def test_exp2_exact_on_clamped_range(self):
        # the scaling is one exp2 of an integer-valued exponent, clamped to
        # [_FLOOR_EXP - 64, 3 + _SHIFT]; a platform whose exp2 rounds there
        # fails here
        k = np.arange(trilag.potentials._FLOOR_EXP - 64, 3 + self.SHIFT + 1)
        assert np.array_equal(np.exp2(k.astype(float)), np.ldexp(1.0, k))


class TestKernelFloor:
    # every entry of a kernel factor is 0 or at least 2^-511 in size, so no
    # product of two entries in a dsyrk or dtrmm underflows
    FLOOR = 2.0 ** -511

    def in_normal_range(self, a):
        return ((a == 0) | (np.abs(a) >= self.FLOOR)).all()

    @staticmethod
    def spy(monkeypatch, module, name, calls):
        """Record the array operands of each call to module.name in calls."""
        blas = getattr(module, name)

        def call(alpha, *arrays, **kwargs):
            calls.append((name, [np.array(a) for a in arrays]))
            return blas(alpha, *arrays, **kwargs)

        monkeypatch.setattr(module, name, call)

    def test_classical_and_gauss_operands_in_normal_range(self, monkeypatch):
        calls = []
        self.spy(monkeypatch, trilag.quadrature, "dsyrk", calls)
        self.spy(monkeypatch, trilag.potentials, "dtrmm", calls)
        b = BasisSpec(lam=1.0, ell=1, size=400)
        yukawa_matrix(YukawaParams(1.0, 0.5), b)
        assert [(name, len(ops)) for name, ops in calls] == [("dsyrk", 1)]
        # one dtrmm, of C^ on the scaled table, then the signed dsyrk pair on
        # P = C^ T: no N x N G.  At delta = 9, P = C^ T has entries below
        # 2^-511 that its floor drops
        for delta in (0.5, 9.0):
            del calls[1:]
            yukawa_matrix(YukawaParams(1.0, delta, delta, "cosine"), b)
            assert [(name, len(ops)) for name, ops in calls[1:]] == [
                ("dtrmm", 2), ("dsyrk", 1), ("dsyrk", 1)]
            assert calls[1][1][1].shape == (400, 400 + trilag.potentials._GAUSS_MARGIN)
            assert all(self.in_normal_range(a) for _, ops in calls for a in ops)
        table = _rule_table(gauss_laguerre_rule(400 + trilag.potentials._GAUSS_MARGIN, 2.0), 400)
        assert self.in_normal_range(table)
        # the classical factor keeps entries below 2^-511, scaled by 2^219
        ref = normalized_connection_reference(400, 2.0, 1.5)
        assert ((ref >= 2.0 ** -730) & (ref < self.FLOOR)).any()

    def test_dsyrk_operands_in_normal_range(self, monkeypatch):
        calls = []
        self.spy(monkeypatch, trilag.quadrature, "dsyrk", calls)
        (ell, r0, width, depth), _ = next(row for row in TABLE3 if row[0][0] == 1)
        b = BasisSpec(lam=TABLE3_LAM, ell=ell, size=400)
        morse_matrix(MorseParams(depth=depth, r_eq=r0, width=width, beta=1.2), b)
        exp_kernel(0.75, b)
        assert len(calls) == 3
        for _, (a,) in calls:
            assert self.in_normal_range(a)
        # the unfloored factor has entries the floor drops
        B = _unfloored_factor(0.75, b)
        assert ((B != 0) & (np.abs(B) < self.FLOOR)).any()

    # the validate cases of the benchmark's cli_gates workload, at its
    # --limit 199 --order 450: (params, lam, ell)
    ORACLE_CASES = {
        "classical_d0.5": (YukawaParams(1.0, 0.5), 1.0, 0),
        "classical_d2": (YukawaParams(1.0, 2.0), 1.0, 0),
        "morse_l1": (MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8), 6.0, 1),
        "kratzer_B5_l2": (KratzerParams(coulomb=1.0, inverse_square=5.0), 1.0, 2),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_oracle_operands_in_normal_range(self, case, monkeypatch):
        p, lam, ell = self.ORACLE_CASES[case]
        b = BasisSpec(lam=lam, ell=ell, size=200, nu=2.0 * ell)

        def oracle_operands():
            calls = []
            with monkeypatch.context() as m:
                self.spy(m, trilag.quadrature, "dsyrk", calls)
                quad_potential_matrix(p.radial, b, order=450, weight_nu=p.oracle_nu(b))
            return [a for _, ops in calls for a in ops]

        operands = oracle_operands()
        assert operands and all(self.in_normal_range(a) for a in operands)
        # without the floor the table has entries below 2^-511
        monkeypatch.setattr(trilag.quadrature, "_FLOOR", 0.0)
        assert not all(self.in_normal_range(a) for a in oracle_operands())

    @pytest.mark.parametrize("c,lam", [(0.75, 12.0), (0.375, 12.0), (1.5, 1.0), (4.0, 1.0)])
    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_matches_unfloored_kernel(self, ell, c, lam):
        # relative to sqrt(K_nn K_mm), TestExpKernel's normwise gate
        b = BasisSpec(lam=lam, ell=ell, size=400)
        B = _unfloored_factor(c, b).astype(float)
        ref = B @ B.T
        d = np.sqrt(np.diag(ref))
        assert float(np.max(np.abs(exp_kernel(c, b) - ref) / np.outer(d, d))) <= 1e-13


class TestMorse:
    def test_beta_zero_single_well(self):
        p = MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.0)
        b = BasisSpec(lam=8.0, ell=0, size=20)
        expected = -6.0 * math.exp(3.0) * exp_kernel(2 * 1.5 / 4.0, b)
        np.testing.assert_allclose(morse_matrix(p, b), expected, rtol=1e-14)

    @pytest.mark.parametrize("ell,r0,width,depth,beta", [
        (0, 1.0, 2.0, -10.0, 1.0),
        (1, 4.0, 1.5, -6.0, 0.8),
        (2, 4.0, 1.5, -6.0, 1.2),
    ])
    def test_oracle_agreement(self, ell, r0, width, depth, beta):
        p = MorseParams(depth=depth, r_eq=r0, width=width, beta=beta)
        b = BasisSpec(lam=6.0, ell=ell, size=30)
        assert oracle_deviation(morse_matrix(p, b), p, b) < 1e-11

    def test_oracle_agreement_full_block(self):
        p = MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8)
        b = BasisSpec(lam=6.0, ell=1, size=200)
        assert oracle_deviation(morse_matrix(p, b), p, b, order=450) < 1e-11

    @pytest.mark.parametrize("ell,r0,width,depth", [key for key, _ in TABLE3])
    def test_matches_longdouble_combination(self, ell, r0, width, depth):
        # both wells from the longdouble reference, combined before rounding;
        # |dV_nm| relative to the sum of the two wells' Gram scales, since
        # near-threshold elements are differences of the two
        p = MorseParams(depth=depth, r_eq=r0, width=width, beta=1.2)
        b = BasisSpec(lam=TABLE3_LAM, ell=ell, size=400)
        r = 1 / np.sqrt(moment_norms(b.size, b.nu))
        ref, scale = 0, 0
        for coeff, c in [(depth * math.exp(2 * width), 2 * width / r0),
                         (-2 * p.beta * depth * math.exp(width), width / r0)]:
            K = _exp_kernel_reference(c, b) * np.outer(r, r)
            ref = ref + np.longdouble(coeff) * K
            d = np.sqrt(np.diag(K))
            scale = scale + abs(coeff) * np.outer(d, d)
        assert float(np.max(np.abs(morse_matrix(p, b) - ref) / scale)) <= 1e-14

    def test_one_factor_at_a_time(self, monkeypatch):
        # _gram releases each factor after its dsyrk, so the first well's
        # factor is gone before the second one is built
        build, built = trilag.potentials._exp_factor, []

        def spy(c, basis):
            assert all(ref() is None for ref in built)
            B = build(c, basis)
            built.append(weakref.ref(B))
            return B

        monkeypatch.setattr(trilag.potentials, "_exp_factor", spy)
        morse_matrix(MorseParams(-6.0, 4.0, 1.5, 0.8), BasisSpec(lam=12.0, ell=1, size=100))
        assert len(built) == 2


def _kratzer_reference(p, basis):
    """Kratzer matrix in longdouble: g exp(log a_n - log a_m) for m <= n,
    log(a_n / a_0) = sum_{k <= n} log(k / (k + nu)) / 2."""
    N, nu = basis.size, basis.nu
    k = np.arange(1, N, dtype=np.longdouble)
    loga = np.zeros(N, dtype=np.longdouble)
    np.cumsum(0.5 * np.log(k / (k + nu)), out=loga[1:])
    g = np.longdouble(basis.lam) ** 2 * p.inverse_square / (2 * nu)
    V2 = np.tril(g * np.exp(loga[:, None] - loga[None, :]))
    return V2 + np.tril(V2, -1).T - p.coulomb * basis.lam * np.eye(N)


class TestKratzer:
    def test_nu_zero_rejected(self):
        with pytest.raises(ValueError, match="ell"):
            kratzer_matrix(KratzerParams(1.0, 5.0), BasisSpec(1.0, 0, 10))

    def test_coulomb_part_constant_diagonal(self):
        p = KratzerParams(coulomb=2.0, inverse_square=1e-30)
        b = BasisSpec(lam=1.5, ell=1, size=10)
        V = kratzer_matrix(p, b)
        np.testing.assert_allclose(np.diag(V), np.full(10, -2.0 * 1.5), rtol=1e-12)

    def test_inverse_square_ground_element(self):
        # (lam^2 B)/(2 nu) for n = m = 0
        p = KratzerParams(coulomb=0.0, inverse_square=5.0)
        b = BasisSpec(lam=1.0, ell=1, size=3)
        assert kratzer_matrix(p, b)[0, 0] == pytest.approx(1.25, rel=1e-14)

    def test_symmetry(self):
        V = kratzer_matrix(KratzerParams(1.0, 50.0), BasisSpec(0.6, 1, 40))
        np.testing.assert_array_equal(V, V.T)

    @pytest.mark.parametrize("ell,lam", [(1, 0.6), (2, 0.3), (5, 1.8)])
    def test_matches_gamma_formula(self, ell, lam):
        # the norm-ratio assembly against the closed form as written,
        # (lam B / 2 nu) a_n a_m Gamma(min+nu+1) / min!, in log-gamma space.
        # lg[m] = log Gamma(m+nu+1) - log m! is summed in longdouble: float64
        # gammaln differences near m = 400 are off by up to ~1e-12, relative
        from scipy.special import gammaln

        p = KratzerParams(coulomb=1.0, inverse_square=5.0)
        b = BasisSpec(lam=lam, ell=ell, size=400)
        n = np.arange(400)
        k = np.arange(1, 400, dtype=np.longdouble)
        lg = np.full(400, gammaln(b.nu + 1.0), dtype=np.longdouble)
        lg[1:] += np.cumsum(np.log((k + b.nu) / k))
        loga = -0.5 * lg
        mn = np.minimum.outer(n, n)
        norm_outer = lam * np.exp(loga[:, None] + loga[None, :])
        V2 = (lam * p.inverse_square / 2.0) * norm_outer * np.exp(lg[mn]) / b.nu
        want = (V2 - p.coulomb * lam * np.eye(400)).astype(float)
        np.testing.assert_allclose(kratzer_matrix(p, b), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("ell", [1, 2, 10, 60, 200])
    @pytest.mark.parametrize("N", [1, 2, 100, 800])
    def test_outer_product_matches_exp_of_differences(self, ell, N):
        # the rank-one lower triangle g a_n/a_m against one exp per element
        # of a difference of log a_n, summed in longdouble
        p = KratzerParams(coulomb=1.3, inverse_square=5.0)
        b = BasisSpec(0.7, ell, N)
        want = _kratzer_reference(p, b)
        V = kratzer_matrix(p, b)
        np.testing.assert_array_equal(V, V.T)
        np.testing.assert_allclose(V, want.astype(float), rtol=1e-14, atol=0)

    def test_cancelling_diagonal_is_exact(self):
        # g = lam^2 B / 2 nu = 4 = coulomb lam: the diagonal is exactly zero
        V = kratzer_matrix(KratzerParams(coulomb=1.0, inverse_square=1.0), BasisSpec(4.0, 1, 50))
        assert not np.diag(V).any()

    @pytest.mark.parametrize("ell", [700, 1000])
    def test_range_fallback_is_finite(self, ell):
        # a_{N-1}/a_0 falls below the float64 range from ell = 678 on at N = 800:
        # the outer product is formed in longdouble, as accurate as in range
        p = KratzerParams(coulomb=1.0, inverse_square=1.0)
        b = BasisSpec(1.0, ell, 800)
        V = kratzer_matrix(p, b)
        assert np.isfinite(V).all()
        np.testing.assert_array_equal(V, V.T)
        want = _kratzer_reference(p, b)
        normal = np.abs(want) >= np.finfo(float).tiny
        np.testing.assert_allclose(V[normal], want[normal].astype(float), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("B,ell,lam", [
        (50.0, 1, 0.6), (1.0, 2, 1.8), (5.0, 5, 0.4), (0.1, 1, 3.0),
    ])
    def test_oracle_agreement(self, B, ell, lam):
        p = KratzerParams(coulomb=1.0, inverse_square=B)
        b = BasisSpec(lam=lam, ell=ell, size=30)
        assert oracle_deviation(kratzer_matrix(p, b), p, b) < 1e-11


def _tril_mirror(M):
    """The out-of-place mirror the in-place _symmetrize replaced."""
    return np.tril(M) + np.tril(M, -1).T


ASSEMBLY_CASES = {
    "kratzer": lambda b: kratzer_matrix(KratzerParams(coulomb=1.3, inverse_square=5.0), b),
    "classical": lambda b: yukawa_matrix(YukawaParams(1.0, 0.5, 0.0, "classical"), b),
    "cosine": lambda b: yukawa_matrix(YukawaParams(1.0, 0.5, 0.5, "cosine"), b),
    "sine": lambda b: yukawa_matrix(YukawaParams(1.0, 0.5, 0.3, "sine"), b),
    "morse": lambda b: morse_matrix(MorseParams(-6.0, 4.0, 1.5, 0.8), b),
    "exp": lambda b: exp_kernel(0.7, b),
    "quad": lambda b: quad_potential_matrix(lambda r: -np.exp(-r) / (1.0 + r), b),
}


class TestInPlaceAssembly:
    # the assembled matrices are bit-identical to the earlier out-of-place
    # forms: tril(M) + tril(M, -1).T, and for Kratzer V2 - coulomb lam I
    @pytest.mark.parametrize("N", [1, 2, 100, 400])
    @pytest.mark.parametrize("family", sorted(ASSEMBLY_CASES))
    def test_matches_out_of_place_form(self, family, N, monkeypatch):
        b = BasisSpec(lam=1.7, ell=1, size=N)
        make = ASSEMBLY_CASES[family]
        got = make(b)
        monkeypatch.setattr(trilag.potentials, "_symmetrize", _tril_mirror)
        monkeypatch.setattr(trilag.quadrature, "_symmetrize", _tril_mirror)
        if family == "kratzer":
            p = KratzerParams(coulomb=1.3, inverse_square=5.0)
            V2 = kratzer_matrix(KratzerParams(coulomb=0.0, inverse_square=5.0), b)
            want = V2 - p.coulomb * b.lam * np.eye(N)
        else:
            want = make(b)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T)
