import gc
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dsytrf

from trilag import eigen
from trilag.basis import BasisSpec, _bands, _overlap_factor, h0_matrix, overlap_matrix
from trilag.eigen import (
    NotPositiveDefiniteError,
    Pencil,
    TridiagonalPencil,
    _band_cholesky,
    _generators,
    _reduce,
    count_below,
    lowest_eigenvalues,
    solve_pencil,
)
from trilag.potentials import KratzerParams, MorseParams, YukawaParams, kratzer_matrix
from trilag.solver import _pencil, bound_states


class TestCholesky:
    # the band factor solve_pencil reduces with: row k holds subdiagonal k
    def test_identity(self):
        np.testing.assert_array_equal(_band_cholesky(np.eye(4)), np.ones((1, 4)))

    def test_hand_factor(self):
        c = _band_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(c, [[2.0, math.sqrt(2)], [1.0, 0.0]], rtol=1e-15)

    def test_indefinite_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            _band_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1

    def test_reconstruction(self):
        S = overlap_matrix(BasisSpec(1.0, 2, 40))
        c = _band_cholesky(S)
        L = np.diag(c[0]) + np.diag(c[1, :-1], -1)
        np.testing.assert_allclose(L @ L.T, S, rtol=0, atol=1e-12)
        assert np.all(c[0] > 0)


class TestBandCholesky:
    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_overlap_factor_closed_form(self, ell):
        # S is tridiagonal, so its factor is bidiagonal:
        # L[n, n] = sqrt(n+nu+1), L[n, n-1] = -sqrt(n).  The pivots carry
        # the rounding of the stored S entries forward; the worst relative
        # deviation at N = 300 is 1.5e-15 (nu = 0), 6e-16 at nu = 10.
        b = BasisSpec(1.0, ell, 300)
        c = _band_cholesky(overlap_matrix(b))
        assert c.shape == (2, 300)
        n = np.arange(300)
        np.testing.assert_allclose(c[0], np.sqrt(n + b.nu + 1.0), rtol=3e-15, atol=0)
        np.testing.assert_allclose(c[1, :-1], -np.sqrt(n[1:]), rtol=3e-15, atol=0)

    def test_bandwidth_follows_farthest_subdiagonal(self):
        rng = np.random.default_rng(7)
        N = 30
        M = rng.standard_normal((N, N))
        s = M @ M.T + N * np.eye(N)
        s[np.abs(np.subtract.outer(np.arange(N), np.arange(N))) > 2] = 0.0
        c = _band_cholesky(s)
        assert c.shape == (3, N)
        L = np.linalg.cholesky(s)
        for k in range(3):
            np.testing.assert_allclose(c[k, :N - k], np.diagonal(L, -k), rtol=1e-13)


class TestSolvePencil:
    def test_diagonal(self):
        w = solve_pencil(Pencil(np.diag([1.0, 2.0]), np.eye(2)))
        np.testing.assert_allclose(w, [1.0, 2.0], rtol=1e-14)

    def test_pencil_identity(self):
        S = overlap_matrix(BasisSpec(1.0, 0, 25))
        w = solve_pencil(Pencil(S, S))
        np.testing.assert_allclose(w, np.ones(25), rtol=1e-12)

    def test_reference_two_state(self):
        b = BasisSpec(1.0, 0, 2)
        w = solve_pencil(Pencil(h0_matrix(b), overlap_matrix(b)))
        np.testing.assert_allclose(w, [(2 - math.sqrt(3)) / 8, (2 + math.sqrt(3)) / 8], rtol=1e-13)

    def test_ascending_and_complete(self):
        b = BasisSpec(2.0, 1, 80)
        w = solve_pencil(Pencil(h0_matrix(b), overlap_matrix(b)))
        assert len(w) == 80
        assert np.all(np.diff(w) >= 0)

    def test_s_orthonormal_eigenvectors(self):
        b = BasisSpec(1.0, 1, 60)
        H, S = h0_matrix(b), overlap_matrix(b)
        w, F = solve_pencil(Pencil(H, S), eigvecs=True)
        gram = F.T @ S @ F
        np.testing.assert_allclose(gram, np.eye(60), rtol=0, atol=1e-10)

    def test_residuals(self):
        b = BasisSpec(1.5, 0, 100)
        H, S = h0_matrix(b), overlap_matrix(b)
        w, F = solve_pencil(Pencil(H, S), eigvecs=True)
        scale = np.linalg.norm(H) + np.abs(w)[:, None].max() * np.linalg.norm(S)
        for i in [0, 40, 99]:
            res = np.linalg.norm(H @ F[:, i] - w[i] * (S @ F[:, i]))
            assert res <= 1e-10 * scale

    def test_dense_overlap_matches_scipy(self):
        # a dense s is the kd = N-1 case of the band factor
        rng = np.random.default_rng(11)
        N = 50
        M = rng.standard_normal((N, N))
        s = M @ M.T + N * np.eye(N)
        G = rng.standard_normal((N, N))
        h = G + G.T
        w, F = solve_pencil(Pencil(h, s), eigvecs=True)
        np.testing.assert_allclose(w, sla.eigh(h, s, eigvals_only=True), rtol=0, atol=1e-12)
        np.testing.assert_allclose(F.T @ s @ F, np.eye(N), rtol=0, atol=1e-12)

    def test_condition_warning(self):
        bad = np.diag([1.0, 1e14])
        with pytest.warns(RuntimeWarning, match="conditioned"):
            solve_pencil(Pencil(np.eye(2), bad))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Pencil(np.eye(3), np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Pencil(np.ones((2, 3)), np.ones((2, 3)))

    def test_empty_rejected(self):
        # a 0 x 0 pencil failed in the band factor with an argmax of an empty sequence
        with pytest.raises(ValueError, match="at least one basis function"):
            Pencil(np.zeros((0, 0)), np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["h", "s"])
    def test_non_finite_rejected(self, which, bad):
        # a NaN on the diagonal of h counted 0 levels below any sigma
        b = BasisSpec(1.0, 0, 10)
        h, s = h0_matrix(b), overlap_matrix(b)
        (h if which == "h" else s)[3, 3] = bad
        with pytest.raises(ValueError, match="%s must be finite" % which):
            Pencil(h, s)

    @pytest.mark.parametrize("which", ["h", "s"])
    def test_asymmetric_rejected(self, which):
        # solve_pencil read one triangle: h and h.T gave different spectra
        b = BasisSpec(1.0, 0, 10)
        h, s = h0_matrix(b), overlap_matrix(b)
        (h if which == "h" else s)[7, 2] += 1e-3
        with pytest.raises(ValueError, match="%s must be symmetric" % which):
            Pencil(h, s)

    def test_indefinite_propagates(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_pencil(Pencil(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])))


def _random_pencil(N, seed):
    """Random symmetric h and dense SPD s."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((N, N))
    G = rng.standard_normal((N, N))
    return Pencil(G + G.T, M @ M.T + N * np.eye(N))


def _kratzer_pencil(N):
    """Kratzer Hamiltonian and the tridiagonal basis overlap."""
    b = BasisSpec(2.0, 2, N)
    return Pencil(h0_matrix(b) + kratzer_matrix(KratzerParams(1.0, 5.0), b), overlap_matrix(b))


# N = 1 and 2, a dense overlap, and the basis overlap at a size where some
# levels are bound; k = 0, 1, a few, at least N/5 (the full MRRR range), N
SUBSET_CASES = [
    (lambda: Pencil(np.array([[-0.5]]), np.array([[2.0]])), (0, 1)),
    (lambda: _random_pencil(2, 3), (0, 1, 2)),
    (lambda: _random_pencil(50, 11), (0, 1, 7, 30, 50)),
    (lambda: _kratzer_pencil(300), (0, 1, 7, 150, 300)),
]


class TestEigenvectorSubset:
    @pytest.mark.parametrize("make, ks", SUBSET_CASES, ids=["N1", "N2", "N50-dense", "N300-basis"])
    def test_lowest_k_columns(self, make, ks):
        p = make()
        N = p.h.shape[0]
        ref = sla.eigh(p.h, p.s, eigvals_only=True)
        _, F_all = solve_pencil(p, eigvecs=True)
        scale = max(1.0, np.abs(ref).max())
        for k in ks:
            # below halfway between the k-th and (k+1)-th reference levels
            lo = ref[k - 1] if k > 0 else ref[0] - 1.0
            hi = ref[k] if k < N else ref[-1] + 1.0
            w, F = solve_pencil(p, eigvecs=True, below=0.5 * (lo + hi))
            assert F.shape == (N, k)
            np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * scale)
            assert np.array_equal(w, solve_pencil(p))
            np.testing.assert_allclose(F.T @ p.s @ F, np.eye(k), rtol=0, atol=1e-10)
            # eigenvectors are fixed only up to sign
            sign = np.sign(np.sum(F * F_all[:, :k], axis=0))
            np.testing.assert_allclose(F * sign, F_all[:, :k], rtol=0, atol=1e-10)

    def test_nan_below_rejected(self):
        # searchsorted puts NaN after every level: it returned a vector for each
        with pytest.raises(ValueError, match="below must not be NaN"):
            solve_pencil(Pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3)), eigvecs=True, below=np.nan)

    def test_no_bound_level(self):
        # cosine screening delta = 9 binds nothing: no vector reaches the
        # back-transform, whose zero-column call would corrupt the heap
        p = YukawaParams(strength=1.0, mu_re=9.0, mu_im=9.0, variant="cosine")
        result = bound_states(p, BasisSpec(5.0, 0, 100))
        gc.collect()
        assert len(result.bound) == 0
        assert result.suspect == ()
        assert result.energies.min() > 0


FAMILIES = {
    "kratzer": KratzerParams(coulomb=1.0, inverse_square=5.0),
    "classical": YukawaParams(strength=1.0, mu_re=0.5, variant="classical"),
    "cosine": YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant="cosine"),
    "sine": YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.3, variant="sine"),
    "morse": MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8),
}


def _dense_pencil(params, b):
    """The public dense pencil (H0 + V, S) of a potential in the basis."""
    return Pencil(h0_matrix(b) + params.matrix(b), overlap_matrix(b))


class TestLowestEigenvalues:
    # on a dense pencil the levels are solve_pencil's dsterf spectrum, bit
    # for bit, at every size (the solver's pencil is built afresh for each
    # solve, since a solve reduces its H in place); a tridiagonal pencil's
    # levels are certified by Sturm counts
    @pytest.mark.parametrize("N", [1, 2, 100, 400])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_full_spectrum(self, family, N):
        b = BasisSpec(1.5, 1, N)
        w = solve_pencil(_pencil(FAMILIES[family], b))
        for k in sorted({1, 3, N}):
            low = lowest_eigenvalues(_pencil(FAMILIES[family], b), k)
            assert low.shape == (min(k, N),)
            assert low.tobytes() == w[:k].tobytes()

    @pytest.mark.parametrize("lam", [5.0, 8.5])
    def test_bisection_resolves_small_levels(self, lam):
        # at a large scale (||T|| ~ 6e5, levels ~0.1) the dense pencil's
        # levels are still dsterf's bits
        b = BasisSpec(lam, 1, 400)
        kratzer = KratzerParams(coulomb=1.0, inverse_square=1.0)
        w = solve_pencil(_pencil(kratzer, b))
        assert lowest_eigenvalues(_pencil(kratzer, b), 3).tobytes() == w[:3].tobytes()
        # the tridiagonal pencil's diagonal is 1e5 times its lowest levels:
        # each is still certified within 4 eps of itself, as counts on
        # either side of E + shift show
        p, _ = _kratzer_tridiagonal(lam, 400)
        w = lowest_eigenvalues(p, 3)
        assert np.abs(p.m).max() > 1e5 * np.abs(w).max()
        for j, e in enumerate(w + p.shift):
            delta = 4 * np.finfo(float).eps * abs(e)
            assert eigen._sturm_count(p, e - delta) <= j < eigen._sturm_count(p, e + delta)

    @pytest.mark.parametrize("N", [1, 2, 30])
    def test_k_beyond_size_returns_every_level(self, N):
        # both pencil kinds: every level, and no more, for k > N
        b = BasisSpec(1.0, 1, N)
        w = solve_pencil(_pencil(FAMILIES["kratzer"], b))
        low = lowest_eigenvalues(_pencil(FAMILIES["kratzer"], b), N + 5)
        assert low.shape == w[:N + 5].shape == (N,)
        assert low.tobytes() == w.tobytes()
        p, _ = _kratzer_tridiagonal(1.0, N)
        ref = sla.eigh(*_dense(p), eigvals_only=True)
        low = lowest_eigenvalues(p, N + 5)
        assert low.shape == (N,)
        np.testing.assert_allclose(low, ref, rtol=0, atol=8 * np.finfo(float).eps * np.abs(ref).max())

    def test_dense_overlap(self):
        p = _random_pencil(50, 11)
        ref = sla.eigh(p.h, p.s, eigvals_only=True)
        np.testing.assert_allclose(lowest_eigenvalues(p, 7), ref[:7], rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_dense_pencil_ignores_guess(self):
        p = _random_pencil(30, 2)
        w = lowest_eigenvalues(p, 4)
        assert lowest_eigenvalues(p, 4, w + 1.0).tobytes() == w.tobytes()

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            lowest_eigenvalues(_pencil(FAMILIES["kratzer"], BasisSpec(1.0, 1, 10)), 0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_dense_levels_are_solve_pencil_bits(self, family, k):
        # one route from a dense pencil to its levels
        b = BasisSpec(1.5, 1, 10)
        w = solve_pencil(_pencil(FAMILIES[family], b))
        assert lowest_eigenvalues(_pencil(FAMILIES[family], b), k).tobytes() == w[:k].tobytes()

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_k_must_be_integer(self, k):
        # a dense pencil took two levels for k = 2.5, a tridiagonal one raised
        # numpy's TypeError
        for p in (_random_pencil(10, 3), _kratzer_tridiagonal(1.0, 10)[0]):
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                lowest_eigenvalues(p, k)

    def test_numpy_integer_k(self):
        p = _kratzer_tridiagonal(1.0, 10)[0]
        assert lowest_eigenvalues(p, np.int64(2)).tobytes() == lowest_eigenvalues(p, 2).tobytes()

    def test_solve_pencil_rejects_tridiagonal_pencil(self):
        # not an AttributeError on _operands
        with pytest.raises(ValueError, match="lowest_eigenvalues.*count_below"):
            solve_pencil(_kratzer_tridiagonal(1.0, 10)[0])


def _longdouble_reduction(c, h):
    """L^{-1} H L^{-T} by two-sided forward substitution in longdouble, for
    the bidiagonal band factor c."""
    d = c[0].astype(np.longdouble)
    l = c[1, :-1].astype(np.longdouble)
    X = h.astype(np.longdouble)
    for _ in range(2):
        X[0] /= d[0]
        for i in range(1, len(d)):
            X[i] = (X[i] - l[i - 1] * X[i - 1]) / d[i]
        X = X.T.copy()
    return X


# the pencils the prefix-sum reduction serves: name -> (params, lam, ell)
REDUCTION_CASES = {
    "kratzer_l1": (FAMILIES["kratzer"], 1.5, 1),
    "morse_l1": (FAMILIES["morse"], 12.0, 1),
    "cosine_l0": (FAMILIES["cosine"], 1.5, 0),
}


class TestPrefixSumReduction:
    # elementwise against the longdouble reference on the same float64
    # factor (the closed form the solver's pencil takes), relative to
    # sqrt(A_nn A_mm); the worst case reads 3.5e-15 (cosine, N = 800), and
    # the band solves read at most 2.3e-15 here
    @pytest.mark.parametrize("N", [100, 400, 800])
    @pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
    def test_lower_triangle_matches_longdouble(self, case, N):
        params, lam, ell = REDUCTION_CASES[case]
        b = BasisSpec(lam, ell, N)
        p = _pencil(params, b)
        c = _overlap_factor(N, b.nu)
        assert _generators(c) is not None
        ref = _longdouble_reduction(c, p.h)
        A = _reduce(c, p.h.copy())
        assert A.flags.f_contiguous
        diag = np.abs(np.diagonal(ref)).astype(float)
        err = np.abs(A - ref).astype(float) / np.sqrt(np.outer(diag, diag))
        assert np.tril(err).max() <= 1e-14

    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_generators_invert_the_factor(self, ell):
        # L X = I for X = tril(u v^T), to rounding of the products L X
        c = _band_cholesky(overlap_matrix(BasisSpec(1.0, ell, 300)))
        u, v = _generators(c)
        L = np.diag(c[0]) + np.diag(c[1, :-1], -1)
        X = np.tril(np.outer(u, v))
        bound = 4 * np.finfo(float).eps * (np.abs(L) @ np.abs(X))
        assert np.all(np.abs(L @ X - np.eye(300)) <= bound)


def _tridiagonal_spd(N, seed, zero_at=None):
    """Random symmetric h and a diagonally dominant tridiagonal s."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, N - 1)
    if zero_at is not None:
        off[zero_at] = 0.0
    s = np.diag(rng.uniform(3.0, 4.0, N)) + np.diag(off, 1) + np.diag(off, -1)
    G = rng.standard_normal((N, N))
    return Pencil(G + G.T, s)


# pencil -> whether the factor takes the prefix sums (else the band solves)
PATH_CASES = {
    "diagonal_s": (lambda: Pencil(_random_pencil(20, 4).h, np.diag(np.linspace(1.0, 5.0, 20))),
                   False),
    "N1": (lambda: Pencil(np.array([[-0.5]]), np.array([[2.0]])), False),
    "N2_basis": (lambda: _dense_pencil(FAMILIES["kratzer"], BasisSpec(1.5, 1, 2)), True),
    "tridiagonal_s": (lambda: _tridiagonal_spd(40, 5), True),
    "zero_subdiagonal": (lambda: _tridiagonal_spd(40, 5, zero_at=17), False),
    # v spans about 1e165 here, so v v^T would overflow
    "kratzer_l200_N800": (lambda: _dense_pencil(KratzerParams(1.0, 1.0),
                                                BasisSpec(1.0, 200, 800)), False),
}


class TestReductionPathChoice:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pencil_h_copied_bit_for_bit(self, order):
        # the reduction overwrites a copy of the caller's h, in C order
        # whatever the order of h: the levels and a vector are pinned bit
        # for bit, as a reduction that read h without writing it gave them
        p = _tridiagonal_spd(8, 5)
        h = np.array(p.h, order=order)
        before = h.copy()
        w = solve_pencil(Pencil(h, p.s))
        _, F = solve_pencil(Pencil(h, p.s), eigvecs=True)
        assert np.array_equal(h, before)
        assert w.tolist() == [-2.0763127920767546, -1.453672336787843, -0.8209141575143087,
                              -0.4796104781145665, 0.08476491294897624, 0.4207670442101868,
                              0.6699998444473884, 1.892375022364313]
        assert F[:, 0].tolist() == [0.45097220976922736, -0.051638075095670886,
                                    0.13475757011633663, 0.14048826805314152,
                                    0.30487424606121144, 0.09109108538573536,
                                    0.05380242124368295, 0.05698399120128105]

    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    def test_levels_match_scipy(self, case):
        make, prefix = PATH_CASES[case]
        p = make()
        assert (_generators(_band_cholesky(p.s)) is not None) == prefix
        ref = sla.eigh(p.h, p.s, eigvals_only=True)
        np.testing.assert_allclose(solve_pencil(p), ref, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(ref).max()))


class TestTridiagonalPencil:
    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="tridiagonal pencil"):
            TridiagonalPencil(np.ones(3), 0.5, np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="tridiagonal pencil"):
            TridiagonalPencil(np.ones(0), 0.5, np.ones(0), np.ones(0))
        with pytest.raises(ValueError, match="finite"):
            TridiagonalPencil(np.ones(2), np.nan, np.ones(2), np.ones(1))

    @pytest.mark.parametrize("shift", [0.0, 0.7])
    @pytest.mark.parametrize("low", [-3.0, 0.5])
    def test_matches_dense_pencil(self, low, shift):
        # any diagonal m, definite (low > 0) or not, and any positive definite S
        rng = np.random.default_rng(7)
        N = 40
        m = np.sort(rng.uniform(low, 10.0, N))
        s = rng.uniform(2.0, 3.0, N)
        t = rng.uniform(-1.0, 1.0, N - 1)
        S = np.diag(s) + np.diag(t, 1) + np.diag(t, -1)
        ref = sla.eigh(np.diag(m) - shift * S, S, eigvals_only=True)
        for k in (1, 5, N):
            w = lowest_eigenvalues(TridiagonalPencil(m, shift, s, t), k)
            np.testing.assert_allclose(w, ref[:k], rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_single_function(self):
        w = lowest_eigenvalues(TridiagonalPencil(np.array([-1.0]), 0.5, np.array([2.0]),
                                                 np.zeros(0)), 3)
        assert w.tolist() == [-1.0]

    @pytest.mark.parametrize("m, pivot", [
        # S is indefinite and M definite
        ([1.0, 1.0, 2.0], 1),
        # M is indefinite too: the Sturm bracket doubled out to infinity
        ([-1.0, 1.0, 2.0], 1),
    ])
    def test_indefinite_overlap_rejected(self, m, pivot):
        with pytest.raises(NotPositiveDefiniteError) as err:
            TridiagonalPencil(np.array(m), 0.0, np.array([1.0, -1.0, 1.0]), np.array([0.1, 0.1]))
        assert err.value.pivot == pivot

    def test_indefinite_single_function_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            TridiagonalPencil(np.array([1.0]), 0.0, np.array([0.0]), np.zeros(0))


def _kratzer_tridiagonal(lam, N, ell=2, coulomb=1.0, b=5.0):
    """The Kratzer pencil at its natural index, diag(2 c s - A lam) - c S."""
    basis = BasisSpec(lam, ell, N, nu=2 * math.sqrt(ell * ell + b))
    s, t = _bands(basis)
    c = lam ** 2 / 8
    return TridiagonalPencil(2 * c * s - coulomb * lam, c, s, -t), basis


def _dense(p):
    S = np.diag(p.s) + np.diag(p.t, 1) + np.diag(p.t, -1)
    return np.diag(p.m) - p.shift * S, S


def _twin_pencil(rel=1e-10, N=30, seed=3):
    """Two decoupled copies of one indefinite tridiagonal pencil, the second
    with m scaled by 1 + rel: each level has a twin rel apart (relative)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-2.0, 10.0, N)
    s = rng.uniform(2.0, 3.0, N)
    t = rng.uniform(-1.0, 1.0, N - 1)
    return TridiagonalPencil(np.r_[m, m * (1 + rel)], 0.3, np.r_[s, s], np.r_[t, 0.0, t])


class TestTridiagonalLevels:
    # Sturm counts isolate each level, Rayleigh-quotient iteration finishes
    # it and two counts certify it within 4 eps relative
    EPS = np.finfo(float).eps

    def _contract(self, p, w, width):
        # level j lies in (x - delta, x + delta], delta = width |x|, with
        # x = w_j + shift the level of M f = x S f
        for j, e in enumerate(w + p.shift):
            delta = width * self.EPS * abs(e)
            assert eigen._sturm_count(p, e - delta) <= j < eigen._sturm_count(p, e + delta)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.6, 1.0])
    def test_both_sides_of_definite_m(self, lam):
        # M > 0 from lam = 4A/(nu+1) = 0.5714 on; one path and one
        # certificate on either side
        p, basis = _kratzer_tridiagonal(lam, 200)
        assert np.all(p.m > 0) == (lam > 4 / (basis.nu + 1))
        H, S = _dense(p)
        ref = sla.eigh(H, S, eigvals_only=True)
        w = lowest_eigenvalues(p, 6)
        # eigh's own error scales with the whole spectrum
        np.testing.assert_allclose(w, ref[:6], rtol=0, atol=1e-13 * np.abs(ref).max())
        self._contract(p, w, 4)

    def test_close_twins_resolved(self):
        p = _twin_pencil()
        assert not np.all(p.m > 0)
        H, S = _dense(p)
        ref = sla.eigh(H, S, eigvals_only=True)
        w = lowest_eigenvalues(p, 8)
        np.testing.assert_allclose(w, ref[:8], rtol=0, atol=1e-13 * np.abs(ref).max())
        self._contract(p, w, 4)
        # each pair of twins rel apart in eps = E + shift, resolved to 1e-5
        # of its gap
        eps_levels = w + p.shift
        gaps = eps_levels[1::2] - eps_levels[0::2]
        np.testing.assert_allclose(gaps, 1e-10 * np.abs(eps_levels[0::2]), rtol=1e-5)

    @pytest.mark.parametrize("escape", ["leaves_bracket", "stalls"])
    def test_bisection_fallback(self, monkeypatch, escape):
        # a quotient outside (a, b] takes bisection steps until the bracket
        # is at its last bit; one that stalls inside fails its certificate
        # and the bracket is bisected
        p = _twin_pencil()
        calls = []

        def step(p, sigma, x):
            calls.append(sigma)
            return (np.inf if escape == "leaves_bracket" else sigma), x

        monkeypatch.setattr(eigen, "_rqi_step", step)
        w = lowest_eigenvalues(p, 8)
        assert calls
        self._contract(p, w, 2)
        monkeypatch.undo()
        np.testing.assert_allclose(w, lowest_eigenvalues(p, 8), rtol=6 * self.EPS, atol=0)

    def test_singular_shift_is_a_level(self):
        # m - sigma s is exactly singular at sigma = 1 (M = S here)
        s = np.array([2.0, 3.0, 2.0])
        t = np.array([1.0, 1.0])
        sigma, y = eigen._rqi_step(TridiagonalPencil(s, 0.0, s, t), 1.0, np.ones(3) / 3 ** 0.5)
        assert (sigma, y) == (1.0, None)


class TestWarmStart:
    # lowest_eigenvalues(p, k, guess): level j first runs Rayleigh-quotient
    # iteration from guess[j], kept if two counts certify it; a level with
    # no guess, or whose guess fails, is isolated by counts as in a cold solve
    EPS = np.finfo(float).eps

    @pytest.fixture
    def counts(self, monkeypatch):
        points = []
        count = eigen._sturm_count
        monkeypatch.setattr(eigen, "_sturm_count", lambda p, e: points.append(e) or count(p, e))
        return points

    def _assert_levels(self, p, w, cold):
        np.testing.assert_allclose(w + p.shift, cold + p.shift, rtol=4 * self.EPS, atol=0)

    # M > 0 from lam = 0.5714 on
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_levels_as_guess_accepted(self, counts, lam):
        p, _ = _kratzer_tridiagonal(lam, 200)
        cold = lowest_eigenvalues(p, 5)
        counts.clear()
        w = lowest_eigenvalues(p, 5, cold)
        assert len(counts) == 10  # the two certifying counts of each level
        self._assert_levels(p, w, cold)

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    @pytest.mark.parametrize("guess", ["next_level", "between", "too_few", "non_finite"])
    def test_bad_guess_gives_the_levels(self, lam, guess):
        p, _ = _kratzer_tridiagonal(lam, 200)
        cold = lowest_eigenvalues(p, 6)
        start = {"next_level": cold[1:],  # guess j nearer level j + 1
                 "between": 0.5 * (cold[:-1] + cold[1:]),
                 "too_few": cold[:4],
                 "non_finite": [np.nan, np.inf, -np.inf, np.nan, np.inf]}[guess]
        w = lowest_eigenvalues(p, 5, start)
        self._assert_levels(p, w, cold[:5])

    def test_short_guess_taken_warm(self, counts):
        # levels 0-3 from their guesses, level 4 isolated: fewer counts than
        # a cold solve, and the first eight certify levels 0-3 in turn
        p, _ = _kratzer_tridiagonal(0.3, 200)
        cold = lowest_eigenvalues(p, 5)
        n_cold = len(counts)
        counts.clear()
        w = lowest_eigenvalues(p, 5, cold[:4])
        assert len(counts) < n_cold
        eps_levels = np.repeat(cold[:4] + p.shift, 2)
        np.testing.assert_allclose(counts[:8], eps_levels, rtol=8 * self.EPS, atol=0)
        self._assert_levels(p, w, cold)

    def test_one_wrong_guess_costs_its_level(self, counts):
        # guess 2 leads to level 3: that level alone is isolated, and the
        # other four keep their two certifying counts each (26 counts here,
        # against 37 cold and 43 when a failed guess re-solved every level)
        p, _ = _kratzer_tridiagonal(0.3, 200)
        cold = lowest_eigenvalues(p, 5)
        n_cold = len(counts)
        counts.clear()
        guess = cold.copy()
        guess[2] = cold[3]
        w = lowest_eigenvalues(p, 5, guess)
        assert len(w) == 5
        self._assert_levels(p, w, cold)
        assert len(counts) < n_cold
        np.testing.assert_allclose(counts[-4:], np.repeat(cold[3:] + p.shift, 2),
                                   rtol=8 * self.EPS, atol=0)

    def test_non_finite_quotient_falls_back(self, monkeypatch):
        p, _ = _kratzer_tridiagonal(0.3, 200)
        cold = lowest_eigenvalues(p, 5)
        monkeypatch.setattr(eigen, "_rqi_step", lambda p, sigma, x: (np.inf, x))
        w = lowest_eigenvalues(p, 5, cold)
        self._assert_levels(p, w, cold)

    def test_twins_from_their_levels(self, counts):
        # levels 1e-10 apart, each found from its own level and certified
        p = _twin_pencil()
        cold = lowest_eigenvalues(p, 8)
        counts.clear()
        w = lowest_eigenvalues(p, 8, cold)
        assert len(counts) == 16
        self._assert_levels(p, w, cold)


def _zero_diagonal_pencil(N, seed):
    """Random symmetric h with a zero diagonal and a dense SPD s with a small
    diagonal, so that Bunch-Kaufman takes 2 x 2 pivots near sigma = 0."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N))
    h = G + G.T
    np.fill_diagonal(h, 0.0)
    M = rng.standard_normal((N, N)) / N
    return Pencil(h, M @ M.T + 0.01 * np.eye(N))


class TestCountBelow:
    @pytest.mark.parametrize("N, seed", [(1, 0), (2, 1), (7, 2), (60, 3)])
    def test_matches_levels(self, N, seed):
        p = _zero_diagonal_pencil(N, seed)
        w = solve_pencil(p)
        # below, between and above the levels
        mids = np.r_[w[0] - 1.0, 0.5 * (w[1:] + w[:-1]), w[-1] + 1.0]
        for sigma in np.r_[mids, 0.0]:
            assert count_below(p, sigma) == np.searchsorted(w, sigma)
        if N > 1:
            _, ipiv, _ = dsytrf(p.h, lower=1)
            assert np.any(ipiv < 0)  # 2 x 2 pivots

    def test_level_at_sigma_not_counted(self):
        # blocks [[0, b], [b, 0]] with S = 2I, permuted: levels +-b/2 for
        # b = 2, 4, 6, and H - sigma S is exactly singular at each of them
        h = np.zeros((6, 6))
        for i, b in enumerate([2.0, 4.0, 6.0]):
            h[2 * i, 2 * i + 1] = h[2 * i + 1, 2 * i] = b
        perm = np.random.default_rng(4).permutation(6)
        p = Pencil(h[np.ix_(perm, perm)], 2 * np.eye(6))
        for sigma, below in [(-3.0, 0), (-1.0, 2), (1.0, 3), (3.0, 5)]:
            _, _, info = dsytrf(p.h - sigma * p.s, lower=1)
            assert info > 0
            assert count_below(p, sigma) == below

    def test_tridiagonal_pencil(self):
        p = _twin_pencil()
        H, S = _dense(p)
        w = sla.eigh(H, S, eigvals_only=True)
        for sigma in np.r_[w[0] - 1.0, 0.5 * (w[1:] + w[:-1])[::7], w[-1] + 1.0]:
            assert count_below(p, sigma) == np.searchsorted(w, sigma)

    def test_basis_pencil_consumed(self):
        # the solver's pencil shifts its own H, as a solve reduces it
        params = YukawaParams(strength=1.0, mu_re=0.3, mu_im=0.3, variant="cosine")
        b = BasisSpec(1.0, 0, 80)
        w = solve_pencil(_pencil(params, b))
        p = _pencil(params, b)
        assert count_below(p, -1e-12) == np.searchsorted(w, -1e-12) == 2
        with pytest.raises(ValueError, match="already solved or counted"):
            count_below(p, 0.0)

    def test_indefinite_overlap_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            count_below(Pencil(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])), 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        # a dense NaN count read 0 and the Sturm count raised dstebz's info 1
        params = YukawaParams(strength=1.0, mu_re=0.3, mu_im=0.3, variant="cosine")
        b = BasisSpec(1.0, 0, 20)
        for p in (_zero_diagonal_pencil(7, 2), _pencil(params, b), _twin_pencil()):
            with pytest.raises(ValueError, match="sigma must be finite"):
                count_below(p, sigma)
        # a rejected count leaves the basis pencil unconsumed
        p = _pencil(params, b)
        with pytest.raises(ValueError):
            count_below(p, sigma)
        assert count_below(p, -1e-12) == np.searchsorted(solve_pencil(_pencil(params, b)), -1e-12)
