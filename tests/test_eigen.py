import gc
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from trilag.basis import BasisSpec, _overlap_factor, h0_matrix, overlap_matrix
from trilag.eigen import (
    NotPositiveDefiniteError,
    Pencil,
    TridiagonalPencil,
    _band_cholesky,
    _generators,
    _reduce,
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
    # bisection on the tridiagonal T against dsterf's full spectrum of the
    # same T (the solver's pencil is built afresh for each solve, since a
    # solve reduces its H in place); the worst gap over these cases is
    # 2.7 eps max|w|
    @pytest.mark.parametrize("N", [1, 2, 100, 400])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_full_spectrum(self, family, N):
        b = BasisSpec(1.5, 1, N)
        w = solve_pencil(_pencil(FAMILIES[family], b))
        tol = 8 * np.finfo(float).eps * np.abs(w).max()
        for k in sorted({1, 3, N}):
            low = lowest_eigenvalues(_pencil(FAMILIES[family], b), k)
            assert low.shape == (min(k, N),)
            np.testing.assert_allclose(low, w[:k], rtol=0, atol=tol)

    @pytest.mark.parametrize("lam", [5.0, 8.5])
    def test_bisection_resolves_small_levels(self, lam):
        # at a large scale ||T|| ~ 6e5 while the levels are ~0.1: bisection
        # stopped at eps ||T|| (abstol = 0) is 2e-11 to 4e-11 off here, at
        # LAPACK's maximal-accuracy abstol within 6e-14 of dsterf
        b = BasisSpec(lam, 1, 400)
        p = KratzerParams(coulomb=1.0, inverse_square=1.0)
        np.testing.assert_allclose(lowest_eigenvalues(_pencil(p, b), 3),
                                   solve_pencil(_pencil(p, b))[:3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 30])
    def test_k_beyond_size_returns_every_level(self, N):
        b = BasisSpec(1.0, 1, N)
        w = solve_pencil(_pencil(FAMILIES["kratzer"], b))
        low = lowest_eigenvalues(_pencil(FAMILIES["kratzer"], b), N + 5)
        assert low.shape == w[:N + 5].shape == (N,)
        np.testing.assert_allclose(low, w, rtol=0, atol=8 * np.finfo(float).eps * np.abs(w).max())

    def test_dense_overlap(self):
        p = _random_pencil(50, 11)
        ref = sla.eigh(p.h, p.s, eigvals_only=True)
        np.testing.assert_allclose(lowest_eigenvalues(p, 7), ref[:7], rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            lowest_eigenvalues(_pencil(FAMILIES["kratzer"], BasisSpec(1.0, 1, 10)), 0)


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
        A = _reduce(c, p.h)
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
