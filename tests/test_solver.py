import numpy as np
import pytest

from trilag import basis as basis_module
from trilag import eigen, solver
from trilag.basis import BasisSpec, h0_matrix, overlap_matrix
from trilag.eigen import Pencil, lowest_eigenvalues, solve_pencil
from trilag.potentials import KratzerParams, MorseParams, YukawaParams
from trilag.solver import (
    GUARD_FRACTION,
    GUARD_TAIL,
    ZERO_BAND,
    _pencil,
    _tail_fractions,
    bound_states,
    converge_in_n,
    critical_screening,
    kratzer_exact,
    lambda_scan,
)


def cos_yukawa(delta, strength=1.0):
    return YukawaParams(strength=strength, mu_re=delta, mu_im=delta, variant="cosine")


class TestBoundStates:
    def test_screened_ground_state(self):
        r = bound_states(cos_yukawa(0.5), BasisSpec(lam=2.0, ell=0, size=100))
        assert -r.bound[0] == pytest.approx(1.5123062833952, abs=1e-11)

    def test_strong_screening_ground_state(self):
        r = bound_states(cos_yukawa(2.0), BasisSpec(lam=2.0, ell=0, size=100))
        assert -r.bound[0] == pytest.approx(0.458673666401, abs=1e-11)

    def test_kratzer_five_levels(self):
        p = KratzerParams(coulomb=1.0, inverse_square=5.0)
        r = bound_states(p, BasisSpec(lam=0.3, ell=2, size=100))
        want = [0.040816326530612, 0.024691358024691, 0.016528925619834,
                0.011834319526627, 0.008888888888888]
        np.testing.assert_allclose(-r.bound[:5], want, atol=1e-11)

    def test_result_structure(self):
        r = bound_states(cos_yukawa(0.5), BasisSpec(lam=2.0, ell=0, size=60))
        assert np.all(np.diff(r.energies) >= 0)
        assert np.all(r.bound < 0)
        assert set(r.bound).issubset(set(r.energies))

    def test_unknown_potential_rejected(self):
        # a potential is anything with the Potential methods; object() has none
        with pytest.raises(AttributeError):
            bound_states(object(), BasisSpec(1.0, 0, 10))


KRATZER_B1 = KratzerParams(coulomb=1.0, inverse_square=1.0)
MORSE_WELL = MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8)


class TestTruncationGuard:
    # small bases at badly chosen lam, where some bound levels are
    # truncation artifacts; the Kratzer cases at the paper's index nu = 2|ell|
    CASES = [
        (KRATZER_B1, BasisSpec(0.05, 1, 20, nu=2.0), (0,) + tuple(range(13, 20))),
        (KRATZER_B1, BasisSpec(0.05, 1, 40, nu=2.0), tuple(range(33, 39))),
        (cos_yukawa(0.1), BasisSpec(0.05, 0, 20), (0,)),
        (MORSE_WELL, BasisSpec(0.2, 1, 20), (0,)),
        (MORSE_WELL, BasisSpec(0.05, 1, 100), (1,)),
    ]

    @pytest.mark.parametrize("potential,basis,suspect", CASES)
    def test_pinned_suspects(self, potential, basis, suspect):
        r = bound_states(potential, basis)
        assert r.suspect == suspect
        assert r.unresolved == ()

    @pytest.mark.parametrize("potential,basis,suspect", CASES)
    def test_tails_match_dense_factor(self, potential, basis, suspect):
        # the closed-form bidiagonal L^T F against a dense Cholesky of S
        S = overlap_matrix(basis)
        H = h0_matrix(basis) + potential.matrix(basis)
        w, F = solve_pencil(Pencil(H, S), eigvecs=True)
        bound = np.flatnonzero(w < -ZERO_BAND)
        Y = np.linalg.cholesky(S).T @ F[:, bound]
        dense = np.sum(Y[-GUARD_TAIL:] ** 2, axis=0) / np.sum(Y ** 2, axis=0)
        np.testing.assert_allclose(_tail_fractions(F[:, bound], basis.nu), dense,
                                   rtol=0, atol=1e-12)
        assert tuple(bound[dense > GUARD_FRACTION]) == suspect


class TestKratzerExact:
    def test_reference_values(self):
        assert kratzer_exact(1.0, 50.0, 1, 0) == pytest.approx(-0.008562900642375, abs=1e-14)
        assert kratzer_exact(1.0, 5.0, 5, 4) == pytest.approx(-0.005022852463037, abs=1e-14)

    def test_coulomb_limit(self):
        # B -> 0 at ell = 0 approaches the 2D Coulomb ground state -2
        assert kratzer_exact(1.0, 1e-16, 0, 0) == pytest.approx(-2.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kratzer_exact(1.0, -1.0, 1, 0)
        with pytest.raises(ValueError):
            kratzer_exact(1.0, 1.0, 1, -1)

    @pytest.mark.parametrize("n", [0.5, 1.0, float("nan"), "1", None])
    def test_level_index_must_be_integer(self, n):
        # kratzer_exact(1, 1, 1, 0.5) read -0.0858, a level between levels
        with pytest.raises(ValueError, match="level index n must be an integer >= 0"):
            kratzer_exact(1.0, 1.0, 1, n)

    @pytest.mark.parametrize("ell", [0.5, 1.0, float("nan")])
    def test_ell_must_be_integer(self, ell):
        with pytest.raises(ValueError, match="ell must be an integer"):
            kratzer_exact(1.0, 1.0, ell, 0)

    @pytest.mark.parametrize("coulomb, b", [(float("nan"), 1.0), (float("inf"), 1.0),
                                            (1.0, float("nan")), (1.0, float("inf"))])
    def test_parameters_must_be_finite(self, coulomb, b):
        with pytest.raises(ValueError, match="must be finite"):
            kratzer_exact(coulomb, b, 1, 0)

    def test_numpy_integers(self):
        assert kratzer_exact(1.0, 5.0, np.int64(5), np.int64(4)) == kratzer_exact(1.0, 5.0, 5, 4)


class TestLambdaScan:
    def test_stable_plateau_weak_screening(self):
        report = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 100),
                             np.arange(1.0, 5.01, 0.5), k=1)
        assert report.plateau == (1.0, 5.0)
        assert np.max(report.spread) <= 1e-10

    def test_morse_plateau_covers_grid(self):
        p = MorseParams(depth=-10.0, r_eq=1.0, width=2.0, beta=1.0)
        report = lambda_scan(p, BasisSpec(1.0, 0, 70), np.arange(10.0, 15.01, 1.0), k=2)
        assert report.plateau == (10.0, 15.0)

    def test_narrowing_near_criticality(self):
        grid = np.arange(1.0, 5.01, 0.5)
        wide = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 100), grid, k=1)
        narrow = lambda_scan(cos_yukawa(9.0), BasisSpec(1.0, 0, 100), grid, k=1)
        wide_width = wide.plateau[1] - wide.plateau[0]
        narrow_width = 0.0
        if narrow.plateau is not None:
            narrow_width = narrow.plateau[1] - narrow.plateau[0]
        assert narrow_width < wide_width

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 50), [1.0, 2.0], k=1)

    @pytest.mark.parametrize("k", [2.5, 0, -1, "2"])
    def test_k_must_be_integer_at_least_one(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            lambda_scan(KratzerParams(1.0, 1.0), BasisSpec(1.0, 1, 50),
                        np.arange(1.0, 3.01, 0.5), k)
        with pytest.raises(ValueError):
            lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 50), [1, 2, 2, 3, 4], k=1)

    @pytest.mark.parametrize("tol_rel", [float("nan"), float("inf"), -1e-9])
    def test_tol_rel_must_be_finite(self, tol_rel):
        # a NaN tolerance would find no plateau, silently
        with pytest.raises(ValueError, match="tol_rel must be finite and >= 0"):
            lambda_scan(KratzerParams(1.0, 1.0), BasisSpec(1.0, 1, 50),
                        np.arange(1.0, 3.01, 0.5), 1, tol_rel=tol_rel)

    @pytest.mark.parametrize("potential", [YukawaParams(1.0, 0.5), KratzerParams(1.0, 5.0)],
                             ids=["dense", "tridiagonal"])
    def test_k_above_basis_size_rejected(self, potential):
        # not a (5, 3) traces array that silently holds fewer levels than asked
        with pytest.raises(ValueError, match="k = 5 levels exceed the basis size N = 3"):
            lambda_scan(potential, BasisSpec(1.0, 0, 3), [1, 1.5, 2, 2.5, 3], 5)
        assert lambda_scan(potential, BasisSpec(1.0, 0, 3), [1, 1.5, 2, 2.5, 3], 3).traces.shape \
            == (5, 3)

    def test_threads_deterministic(self):
        grid = np.arange(1.0, 3.01, 0.5)
        serial = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 60), grid, k=2)
        parallel = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 60), grid, k=2, threads=4)
        np.testing.assert_array_equal(serial.traces, parallel.traces)


def _plateau_loop(traces, tol_rel):
    """The plateau search as one spread per window, for reference."""
    usable = np.all(traces < -ZERO_BAND, axis=1)
    best = None
    for a in range(len(traces)):
        if not usable[a]:
            continue
        for b in range(a + 4, len(traces)):
            if not usable[a:b + 1].all():
                break
            block = traces[a:b + 1]
            if np.max(solver._spread(block.min(axis=0), block.max(axis=0))) <= tol_rel:
                if best is None or b - a > best[0]:
                    best = (b - a, a, b)
    return None if best is None else best[1:]


class TestPlateauSearch:
    # crafted traces -> (plateau rows, spread) as the search gave them with
    # one spread per window
    CASES = {
        "tie": (np.array([[-1.0, -2.0]] * 5 + [[-1.5, -2.0]] + [[-1.0, -2.0 - 1e-10]] * 5),
                (0, 4), [0.0, 0.0]),
        "unusable": (np.array([[-1.0]] * 4 + [[0.0]] + [[-1.0 - 1e-11 * i] for i in range(7)]
                              + [[-1e-13]] + [[-1.0]] * 5),
                     (5, 11), [6.000000496082225e-11]),
        "none": (np.array([[-1.0 - 0.01 * i] for i in range(12)]), None, None),
        "growing": (np.array([[-3.0 + 1e-10 * (i - 6) ** 2, -1.0] for i in range(16)]),
                    (1, 11), [8.333334022836425e-10, 0.0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_crafted_traces(self, monkeypatch, case):
        traces, rows, spread = self.CASES[case]
        grid = np.arange(1.0, len(traces) + 0.5)
        rows_by_lam = dict(zip(grid, traces))
        monkeypatch.setattr(solver, "_lowest",
                            lambda potential, basis, k, start=None: rows_by_lam[basis.lam])
        report = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 10), grid, k=traces.shape[1])
        if rows is None:
            assert report.plateau is None and report.spread is None
        else:
            assert report.plateau == (grid[rows[0]], grid[rows[1]])
            assert report.spread.tolist() == spread

    def test_matches_window_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            G, k = int(rng.integers(5, 20)), int(rng.integers(1, 4))
            traces = -1.0 - 1e-9 * rng.integers(0, 4, (G, k)) * rng.random()
            traces[rng.random(G) < 0.1] = rng.choice([0.0, np.nan, -1e-13])
            for tol in (-1.0, 0.0, 1e-9):
                assert solver._plateau(traces, tol) == _plateau_loop(traces, tol)


class TestConvergeInN:
    SWEEP = KratzerParams(coulomb=1.0, inverse_square=5.0)

    def test_sturm_counts_bounded(self, monkeypatch):
        # counts only isolate and certify each level: 44 at N = 800 (289
        # when bisection finished every level)
        counts = []
        count = eigen._sturm_count
        monkeypatch.setattr(eigen, "_sturm_count", lambda p, e: counts.append(e) or count(p, e))
        converge_in_n(self.SWEEP, BasisSpec(0.3, 2, 800), (800,), 5)
        assert 0 < len(counts) <= 60

    @pytest.mark.parametrize("scale", [0.9, 1.0, 1.1])
    def test_rayleigh_matches_bisection(self, monkeypatch, scale):
        # below the M > 0 threshold; a quotient that always leaves its
        # bracket leaves every level to bisection
        basis = BasisSpec(0.3 * scale, 2, 100)
        sizes = (100, 200, 400, 800)
        fast = converge_in_n(self.SWEEP, basis, sizes, 5).traces
        monkeypatch.setattr(eigen, "_rqi_step", lambda p, sigma, x: (np.inf, x))
        bisected = converge_in_n(self.SWEEP, basis, sizes, 5).traces
        np.testing.assert_allclose(fast, bisected, rtol=4 * np.finfo(float).eps, atol=0)
        assert np.all(np.abs(fast[-1] - [kratzer_exact(1.0, 5.0, 2, n) for n in range(5)])
                      <= 1e-9)

    def test_kratzer_approaches_exact(self):
        p = KratzerParams(coulomb=1.0, inverse_square=50.0)
        table = converge_in_n(p, BasisSpec(0.6, 1, 100), range(20, 101, 10), k=1)
        exact = kratzer_exact(1.0, 50.0, 1, 0)
        assert abs(table.traces[-1, 0] - exact) < 1e-10
        assert table.converged[0]

    def test_monotone_from_above(self):
        table = converge_in_n(cos_yukawa(0.1), BasisSpec(1.0, 0, 100),
                              range(20, 101, 10), k=2)
        diffs = np.diff(table.traces, axis=0)
        assert np.all(diffs <= 1e-13)

    def test_converged_reference_value(self):
        table = converge_in_n(cos_yukawa(0.01), BasisSpec(1.0, 0, 100),
                              [60, 80, 100], k=1)
        assert -table.traces[-1, 0] == pytest.approx(1.9900001243765, abs=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            converge_in_n(cos_yukawa(0.1), BasisSpec(1.0, 0, 50), [30, 30], k=1)

    def test_empty_grid_rejected(self):
        # not traces of shape (0,) beside a converged array of length k
        with pytest.raises(ValueError, match="n_grid must hold at least one basis size"):
            converge_in_n(KratzerParams(1.0, 1.0), BasisSpec(1.0, 1, 50), (), 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
    def test_tol_must_be_finite(self, tol):
        # a NaN tolerance would report no level converged, silently
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            converge_in_n(KratzerParams(1.0, 1.0), BasisSpec(1.0, 1, 50), (40, 50), 2, tol=tol)

    @pytest.mark.parametrize("potential", [YukawaParams(1.0, 0.5), KratzerParams(1.0, 5.0)],
                             ids=["dense", "tridiagonal"])
    def test_k_above_smallest_size_rejected(self, potential):
        # not numpy's "inhomogeneous shape" from rows of 3 and of 5 levels
        with pytest.raises(ValueError, match="k = 5 levels exceed the smallest basis size 3"):
            converge_in_n(potential, BasisSpec(1.0, 0, 3), (3, 10), 5)

    @pytest.mark.parametrize("k", [2.5, 0, -1, "2"])
    def test_k_must_be_integer_at_least_one(self, k):
        # not numpy's "'float' object cannot be interpreted as an integer"
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            converge_in_n(KratzerParams(1.0, 1.0), BasisSpec(1.0, 1, 50), (40, 50), k)


class TestContinuation:
    # lambda_scan and converge_in_n start each tridiagonal solve from the
    # levels of the one before; the sweep benchmark's cases
    SCAN = KratzerParams(coulomb=1.0, inverse_square=1.0)
    CONV = KratzerParams(coulomb=1.0, inverse_square=5.0)
    EPS = np.finfo(float).eps

    def _assert_cold(self, potential, bases, traces):
        # within 4 eps of the larger of |E| and |eps|, eps = E + lam^2/8 the
        # level of M f = eps S f: the certificate bounds eps relative to eps,
        # which is more than |E| on the scan's shallow levels
        cold = np.array([solver._lowest(potential, b, traces.shape[1]) for b in bases])
        shift = np.array([[b.lam ** 2 / 8] for b in bases])
        scale = np.maximum(np.abs(cold), np.abs(cold + shift))
        assert np.max(np.abs(traces - cold) / scale) <= 4 * self.EPS

    @pytest.mark.parametrize("scale", [0.9, 1.0, 1.1])
    def test_scan_matches_cold(self, scale):
        # at scale 0.9 the grid starts below M > 0 (lam = 1.04)
        grid = np.arange(1.0, 8.5 + 0.25, 0.5) * scale
        report = lambda_scan(self.SCAN, BasisSpec(1.0, 1, 400), grid, 3)
        basis = solver._resolve(self.SCAN, BasisSpec(1.0, 1, 400))
        self._assert_cold(self.SCAN, [basis.with_lam(lam) for lam in grid], report.traces)

    @pytest.mark.parametrize("scale", [0.9, 1.0, 1.1])
    def test_converge_matches_cold(self, scale):
        sizes = (100, 200, 400, 800)
        table = converge_in_n(self.CONV, BasisSpec(0.3 * scale, 2, 100), sizes, 5)
        basis = solver._resolve(self.CONV, BasisSpec(0.3 * scale, 2, 100))
        self._assert_cold(self.CONV, [basis.with_size(N) for N in sizes], table.traces)

    def test_converge_counts_bounded(self, monkeypatch):
        # the first size isolates its levels, the others take two counts a
        # level: 65 (158 when every size was solved cold)
        counts = []
        count = eigen._sturm_count
        monkeypatch.setattr(eigen, "_sturm_count", lambda p, e: counts.append(e) or count(p, e))
        converge_in_n(self.CONV, BasisSpec(0.3, 2, 100), (100, 200, 400, 800), 5)
        assert 0 < len(counts) <= 80

    def test_scan_threads_bit_identical(self):
        # a tridiagonal scan is one ordered run whatever threads says
        grid = np.arange(1.0, 8.5 + 0.25, 0.5)
        serial = lambda_scan(self.SCAN, BasisSpec(1.0, 1, 400), grid, 3)
        threaded = lambda_scan(self.SCAN, BasisSpec(1.0, 1, 400), grid, 3, threads=2)
        assert threaded.traces.tobytes() == serial.traces.tobytes()


class TestCriticalScreening:
    def test_second_s_state(self):
        dc = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
        assert 0.2 < dc < 0.5

    def test_third_s_state(self):
        dc = critical_screening(cos_yukawa(0.1), ell=0, level=2, bracket=(0.1, 0.2))
        assert 0.1 < dc < 0.2

    def test_bound_counts_structure(self):
        counts = {}
        for delta in [0.1, 0.2, 0.5]:
            r = bound_states(cos_yukawa(delta), BasisSpec(1.0, 0, 100))
            counts[delta] = len(r.bound)
        assert counts == {0.1: 3, 0.2: 2, 0.5: 1}

    def test_deterministic(self):
        a = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
        b = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
        assert a == b

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            critical_screening(cos_yukawa(0.1), ell=0, level=0, bracket=(0.2, 0.5))

    def test_level_predicate_matches_bound_count(self):
        # the level predicate (level `level` below -ZERO_BAND) bisects to the
        # deltas the count of bound states gave
        assert critical_screening(cos_yukawa(0.1), 0, 1, (0.2, 0.5)) == 0.32095947265625
        assert critical_screening(cos_yukawa(0.1), 0, 2, (0.1, 0.2)) == 0.10649414062500001

    @pytest.mark.parametrize("level", [1.5, -1, "1", None])
    def test_level_must_be_integer_at_least_zero(self, level):
        # not numpy's IndexError from w[1.5], nor the solver's "k must be >= 1"
        with pytest.raises(ValueError, match="level must be an integer >= 0"):
            critical_screening(cos_yukawa(0.1), 0, level, (0.2, 0.5))

    def test_numpy_integer_level(self):
        assert critical_screening(cos_yukawa(0.1), 0, np.int64(1), (0.2, 0.5)) == 0.32095947265625

    @pytest.mark.parametrize("tol", [0.0, float("nan"), -1.0])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            critical_screening(cos_yukawa(0.1), 0, 1, (0.2, 0.5), tol=tol)

    def test_tol_must_be_finite(self):
        # an infinite tol returned the bracket midpoint without a bisection step
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            critical_screening(cos_yukawa(0.1), 0, 1, (0.2, 0.5), tol=float("inf"))

    @pytest.mark.parametrize("p", [KratzerParams(1.0, 5.0), MORSE_WELL])
    def test_unscreened_potential_rejected(self, p):
        # not an AttributeError from the missing with_screening
        with pytest.raises(ValueError, match="needs a screened Yukawa well"):
            critical_screening(p, 0, 1, (0.2, 0.5))

    def test_tol_below_float_spacing_returns(self):
        # near 0.32 the bracket cannot narrow below the float spacing (5.6e-17),
        # so the bisection stops where the midpoint is one of its ends
        dc = critical_screening(cos_yukawa(0.1), 0, 1, (0.2, 0.5), tol=1e-17)
        assert abs(dc - 0.32095947265625) < 1e-4

    def test_basis_ell_must_match(self):
        with pytest.raises(ValueError, match="does not match ell = 3"):
            critical_screening(cos_yukawa(0.1), 3, 0, (0.01, 0.2), basis=BasisSpec(1.0, 0, 100))
        given = critical_screening(cos_yukawa(0.1), 3, 0, (0.01, 0.2), basis=BasisSpec(1.0, 3, 100))
        assert given == critical_screening(cos_yukawa(0.1), 3, 0, (0.01, 0.2))


class TestDriversReadEigenvaluesOnly:
    # the drivers read only eigenvalues: neither MRRR eigenvectors nor the
    # truncation guard may run under them
    @pytest.fixture
    def no_vectors(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigenvectors or the truncation guard were computed")

        monkeypatch.setattr(eigen, "_mrrr", fail)
        monkeypatch.setattr(solver, "_tail_fractions", fail)

    def test_patch_reaches_bound_states(self, no_vectors):
        with pytest.raises(AssertionError):
            bound_states(cos_yukawa(0.5), BasisSpec(1.0, 0, 60))

    def test_lambda_scan(self, no_vectors):
        report = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 100),
                             np.arange(1.0, 5.01, 0.5), k=1, threads=2)
        assert report.plateau == (1.0, 5.0)

    def test_converge_in_n(self, no_vectors):
        p = KratzerParams(coulomb=1.0, inverse_square=50.0)
        table = converge_in_n(p, BasisSpec(0.6, 1, 100), range(20, 101, 40), k=2)
        assert table.traces.shape == (3, 2)

    def test_critical_screening(self, no_vectors):
        dc = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
        assert dc == 0.32095947265625


STRUCTURED_FAMILIES = {
    "kratzer": KratzerParams(coulomb=1.0, inverse_square=5.0),
    "classical": YukawaParams(strength=1.0, mu_re=0.5, variant="classical"),
    "cosine": cos_yukawa(0.5),
    "sine": YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.3, variant="sine"),
    "sine_unscreened": YukawaParams(strength=1.0, mu_re=0.5, variant="sine"),
    "morse": MORSE_WELL,
}


class TestStructuredPencil:
    # the solver's pencil (H0's bands added into V, the overlap's factor in
    # closed form) against the public dense pencil of the same matrices;
    # the worst case reads 4.2e-13 max|E| (ell = 0, N = 400), where the
    # dense side's dpbtrf factor is 13 ulp off the exact one
    @pytest.mark.parametrize("N", [1, 2, 3, 100, 400])
    @pytest.mark.parametrize("family,ell", [
        (family, ell) for family in sorted(STRUCTURED_FAMILIES) for ell in (0, 1, 2)
        if (family, ell) != ("kratzer", 0)  # the 1/r^2 integral diverges at ell = 0
    ])
    def test_matches_dense_pencil(self, family, ell, N):
        params = STRUCTURED_FAMILIES[family]
        b = BasisSpec(1.5, ell, N)
        dense = Pencil(h0_matrix(b) + params.matrix(b), overlap_matrix(b))
        ref, F_ref = solve_pencil(dense, eigvecs=True, below=-ZERO_BAND)
        tol = 1e-12 * np.abs(ref).max()
        w, F = solve_pencil(_pencil(params, b), eigvecs=True, below=-ZERO_BAND)
        np.testing.assert_allclose(w, ref, rtol=0, atol=tol)
        assert F.shape == F_ref.shape
        k = min(3, N)
        np.testing.assert_allclose(lowest_eigenvalues(_pencil(params, b), k), ref[:k],
                                   rtol=0, atol=tol)

    def test_solve_takes_the_pencil_once(self):
        # the solve reduces the pencil's H in its own buffer
        p = _pencil(KRATZER_B1, BasisSpec(1.0, 1, 20))
        lowest_eigenvalues(p, 1)
        with pytest.raises(ValueError, match="already solved"):
            lowest_eigenvalues(p, 1)

    def test_dense_pencil_left_intact(self):
        b = BasisSpec(1.0, 1, 50)
        H = h0_matrix(b) + KRATZER_B1.matrix(b)
        S = overlap_matrix(b)
        H0, S0 = H.copy(), S.copy()
        solve_pencil(Pencil(H, S))
        lowest_eigenvalues(Pencil(H, S), 3)
        np.testing.assert_array_equal(H, H0)
        np.testing.assert_array_equal(S, S0)


class TestNoDenseOverlapOrH0:
    # bound_states and the three drivers form no dense S or H0 and factor
    # nothing: the overlap's factor is known in closed form
    @pytest.fixture
    def no_dense(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a dense S or H0 was formed, or S was factored")

        monkeypatch.setattr(eigen, "_band_cholesky", fail)
        monkeypatch.setattr(eigen, "dpbtrf", fail)
        monkeypatch.setattr(basis_module, "overlap_matrix", fail)
        monkeypatch.setattr(basis_module, "h0_matrix", fail)

    def test_patch_reaches_dense_pencil(self, no_dense):
        b = BasisSpec(1.0, 0, 10)
        with pytest.raises(AssertionError):
            solve_pencil(Pencil(np.eye(10), np.eye(10)))
        with pytest.raises(AssertionError):
            basis_module.overlap_matrix(b)

    def test_bound_states(self, no_dense):
        r = bound_states(cos_yukawa(0.5), BasisSpec(lam=2.0, ell=0, size=100))
        assert -r.bound[0] == pytest.approx(1.5123062833952, abs=1e-11)

    def test_truncation_guard(self, no_dense):
        potential, basis, suspect = TestTruncationGuard.CASES[0]
        assert bound_states(potential, basis).suspect == suspect

    def test_lambda_scan(self, no_dense):
        report = lambda_scan(cos_yukawa(0.5), BasisSpec(1.0, 0, 100),
                             np.arange(1.0, 5.01, 0.5), k=1, threads=2)
        assert report.plateau == (1.0, 5.0)

    def test_converge_in_n(self, no_dense):
        p = KratzerParams(coulomb=1.0, inverse_square=50.0)
        table = converge_in_n(p, BasisSpec(0.6, 1, 100), range(20, 101, 40), k=2)
        assert table.traces.shape == (3, 2)

    def test_critical_screening(self, no_dense):
        dc = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
        assert dc == 0.32095947265625


class TestNaturalIndex:
    # a basis that leaves nu out is solved at the potential's natural index,
    # 2 sqrt(ell^2 + B) for the Kratzer well, and the result records it
    def test_result_records_the_index(self):
        r = bound_states(KRATZER_B1, BasisSpec(0.5, 1, 30))
        assert r.basis == BasisSpec(0.5, 1, 30, nu=2 * np.sqrt(2.0))
        r = bound_states(KRATZER_B1, BasisSpec(0.5, 1, 30, nu=2.0))
        assert r.basis == BasisSpec(0.5, 1, 30, nu=2.0)
        r = bound_states(cos_yukawa(0.5), BasisSpec(2.0, 1, 30))
        assert r.basis == BasisSpec(2.0, 1, 30, nu=2.0)

    def test_other_families_need_the_paper_index(self):
        for p in (cos_yukawa(0.5), MORSE_WELL):
            with pytest.raises(ValueError, match="nu = 2|ell|"):
                bound_states(p, BasisSpec(2.0, 1, 30, nu=3.0))

    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_drivers_exact(self, ell):
        p = KratzerParams(coulomb=1.0, inverse_square=1.0)
        exact = [kratzer_exact(1.0, 1.0, ell, n) for n in range(3)]
        report = lambda_scan(p, BasisSpec(1.0, ell, 200), np.arange(0.5, 3.01, 0.5), k=3)
        np.testing.assert_allclose(report.traces, np.tile(exact, (6, 1)), rtol=0, atol=1e-14)
        table = converge_in_n(p, BasisSpec(0.3, ell, 100), (100, 200), k=3)
        np.testing.assert_allclose(table.traces, np.tile(exact, (2, 1)), rtol=0, atol=1e-14)


# (B, ell, lam) on both sides of lam = 4 A / (nu + 1), where M = H + (lam^2/8) S
# stops being positive definite
TRIDIAGONAL_CASES = [(B, ell, lam) for B, ell in [(1.0, 1), (5.0, 2), (50.0, 0), (0.1, 0)]
                     for lam in (0.2, 0.5, 1.5)]


class TestTridiagonalPencil:
    @pytest.mark.parametrize("N", [1, 2, 10, 100, 200])
    @pytest.mark.parametrize("B,ell,lam", TRIDIAGONAL_CASES)
    def test_matches_dense_pencil(self, B, ell, lam, N):
        # the k lowest levels, positive ones among them, against the dense
        # reduction of the same nu = 2 sqrt(ell^2 + B) pencil
        p = KratzerParams(coulomb=1.0, inverse_square=B)
        b = BasisSpec(lam, ell, N, nu=p.natural_nu(ell))
        ref = solve_pencil(Pencil(h0_matrix(b) + p.matrix(b), overlap_matrix(b)))
        for k in sorted({1, 3, N // 2, N + 1} - {0}):
            w = solver._lowest(p, b, k)
            assert len(w) == min(k, N)
            np.testing.assert_allclose(w, ref[:k], rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(ref[:k]).max()))

    def test_cases_cover_both_paths(self):
        above = {lam > 4 / (KratzerParams(1.0, B).natural_nu(ell) + 1)
                 for B, ell, lam in TRIDIAGONAL_CASES}
        assert above == {False, True}

    @pytest.fixture
    def no_dsytrd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("dsytrd was called")

        monkeypatch.setattr(eigen, "dsytrd", fail)

    def test_patch_reaches_dense_path(self, no_dsytrd):
        with pytest.raises(AssertionError, match="dsytrd"):
            lambda_scan(KRATZER_B1, BasisSpec(1.0, 1, 50, nu=2.0), np.arange(1.0, 3.01, 0.5), k=1)

    def test_drivers_never_reduce(self, no_dsytrd):
        p = KratzerParams(coulomb=1.0, inverse_square=5.0)
        grid = np.arange(0.2, 2.01, 0.3)
        report = lambda_scan(p, BasisSpec(1.0, 2, 400), grid, k=3, threads=2)
        assert report.plateau == (grid[0], grid[-1])
        table = converge_in_n(p, BasisSpec(0.3, 2, 100), (100, 200, 400, 800), k=5)
        assert table.converged.all()


class TestPaperIndexUnchanged:
    # with nu = 2|ell| the Kratzer drivers and bound_states reproduce the
    # values they gave before the natural index, bit for bit
    def test_bound_states(self):
        r = bound_states(KRATZER_B1, BasisSpec(1.5, 1, 30, nu=2.0))
        want = [-0.1364547104646413, -0.05887443184199201, -0.032634770713591034,
                -0.02070359839351114, -0.014132139250927296, -0.008397936538420653,
                -0.0006858727552523197]
        assert r.bound.tolist() == want
        assert r.suspect == (5,)

    def test_lambda_scan(self):
        # levels of solve_pencil's spectrum: each row is also bound_states'
        basis = BasisSpec(1.0, 1, 40, nu=2.0)
        grid = np.arange(1.0, 3.01, 0.5)
        report = lambda_scan(KRATZER_B1, basis, grid, 2)
        want = [[-0.13645460951179125, -0.05887439902797058],
                [-0.13645483055835933, -0.05887447093875264],
                [-0.1364548858456206, -0.058874489014734126],
                [-0.13645490607141253, -0.058874495638852005],
                [-0.13645491523137043, -0.05887449849112621]]
        assert report.traces.tolist() == want
        for lam, row in zip(grid, want):
            assert bound_states(KRATZER_B1, basis.with_lam(lam)).energies[:2].tolist() == row

    def test_converge_in_n(self):
        p, basis = KratzerParams(1.0, 5.0), BasisSpec(0.3, 2, 20, nu=4.0)
        table = converge_in_n(p, basis, (20, 30, 40), 2)
        want = [[-0.04081632653061079, -0.024691358024691395],
                [-0.040816326530612124, -0.024691358024691214],
                [-0.04081632653061249, -0.024691358024691645]]
        assert table.traces.tolist() == want
        for N, row in zip((20, 30, 40), want):
            assert bound_states(p, basis.with_size(N)).energies[:2].tolist() == row


class TestOneDenseRoute:
    # a dense level of lambda_scan or converge_in_n is bound_states' level of
    # the same basis, bit for bit: both take solve_pencil's spectrum
    CASES = {
        "cosine": (cos_yukawa(0.5), BasisSpec(1.0, 0, 100), np.arange(1.0, 3.01, 0.5), 2,
                   (60, 80, 100)),
        "classical": (YukawaParams(strength=1.0, mu_re=0.5, variant="classical"),
                      BasisSpec(1.0, 1, 100), np.arange(1.0, 3.01, 0.5), 2, (60, 80, 100)),
        "morse": (MORSE_WELL, BasisSpec(12.0, 1, 200), np.arange(11.0, 13.01, 0.5), 3,
                  (120, 160, 200)),
        "kratzer_paper_index": (KRATZER_B1, BasisSpec(1.0, 1, 40, nu=2.0),
                                np.arange(1.0, 3.01, 0.5), 2, (20, 30, 40)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lambda_scan_rows_are_bound_states(self, case):
        p, basis, grid, k, _ = self.CASES[case]
        report = lambda_scan(p, basis, grid, k)
        for lam, row in zip(grid, report.traces):
            assert row.tobytes() == bound_states(p, basis.with_lam(lam)).energies[:k].tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_converge_in_n_rows_are_bound_states(self, case):
        p, basis, _, k, sizes = self.CASES[case]
        table = converge_in_n(p, basis, sizes, k)
        for N, row in zip(sizes, table.traces):
            assert row.tobytes() == bound_states(p, basis.with_size(N)).energies[:k].tobytes()

    @pytest.mark.parametrize("sizes", [(20, 30.7), (20.0, 30), ("20",)])
    def test_converge_in_n_sizes_must_be_integers(self, sizes):
        # not run as (20, 30), silently
        with pytest.raises(ValueError, match="n_grid must hold integer basis sizes"):
            converge_in_n(KRATZER_B1, BasisSpec(1.0, 1, 20), sizes, 1)

    def test_converge_in_n_numpy_sizes(self):
        table = converge_in_n(KRATZER_B1, BasisSpec(1.0, 1, 20), np.arange(20, 41, 10), 1)
        assert table.n_grid == (20, 30, 40)
        assert all(type(N) is int for N in table.n_grid)
