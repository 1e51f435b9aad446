"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is a single pass/fail line covering one externally stated
guarantee of the package: reproduction of the three reference energy
tables, agreement between analytic matrix elements and the quadrature
oracle, the Coulomb-limit sign/prefactor pin, structural properties of
the basis matrices, and the critical-screening bracket structure.
"""

import time

import numpy as np
import pytest

from trilag._golden import (
    TABLE2,
    TABLE2_LAM,
    TABLE2_N,
    TABLE3,
    TABLE3_LAM,
    TABLE3_N,
)
from trilag.basis import BasisSpec, h0_matrix, overlap_matrix
from trilag.eigen import Pencil, solve_pencil
from trilag.potentials import KratzerParams, MorseParams, YukawaParams
from trilag.quadrature import quad_potential_matrix
from trilag.solver import (
    bound_states,
    converge_in_n,
    critical_screening,
    kratzer_exact,
    lambda_scan,
)


def cos_yukawa(delta):
    return YukawaParams(strength=1.0, mu_re=delta, mu_im=delta, variant="cosine")


def test_screened_coulomb_ground_states():
    # cosine-screened Coulomb ground-state binding energies at N = 100.
    # The weakly bound delta = 9 level only exists inside a narrow basis-scale
    # window, so it is computed at lam = 1; the others use lam = 2.
    golden = {
        0.01: (1.9900001243765, 2.0, 1e-9),
        0.5: (1.5123062833952, 2.0, 1e-9),
        1.0: (1.08022847887960, 2.0, 1e-9),
        2.0: (0.458673666401, 2.0, 1e-9),
        5.0: (0.0087175321, 2.0, 1e-6),
        9.0: (8.6595e-6, 1.0, 1e-6),
    }
    for delta, (want, lam, tol) in golden.items():
        t0 = time.perf_counter()
        result = bound_states(cos_yukawa(delta), BasisSpec(lam=lam, ell=0, size=100))
        elapsed = time.perf_counter() - t0
        assert len(result.bound) >= 1, "no bound state found at delta=%g" % delta
        assert -result.bound[0] == pytest.approx(want, abs=tol), "delta=%g" % delta
        assert elapsed < 5.0, "solve too slow at delta=%g: %.2fs" % (delta, elapsed)


def test_kratzer_five_level_spectra():
    # all 60 reference cells at one basis scale: matrix path within 1e-8 of
    # the reference digits, closed form within 1e-12 of them, and the matrix
    # path within 1e-13 of the closed form (the natural basis index makes
    # the pencil exact)
    for (B, ell), golden in TABLE2.items():
        p = KratzerParams(coulomb=1.0, inverse_square=B)
        energies = bound_states(p, BasisSpec(lam=TABLE2_LAM, ell=ell, size=TABLE2_N)).energies
        for n, want in enumerate(golden):
            computed = -float(energies[n])
            exact = -kratzer_exact(1.0, B, ell, n)
            cell = "B=%g ell=%d n=%d" % (B, ell, n)
            assert abs(computed - want) <= 1e-8, "matrix vs reference at " + cell
            assert abs(exact - want) <= 1e-12, "closed form vs reference at " + cell
            assert abs(computed - exact) <= 1e-13, "matrix vs closed form at " + cell


def test_morse_spectra():
    # every printed level of the double-exponential-well reference table
    # at N = 70, lam = 12, within 1e-7 absolute
    for (ell, r0, width, V0), by_beta in TABLE3:
        for beta, golden in by_beta.items():
            p = MorseParams(depth=V0, r_eq=r0, width=width, beta=beta)
            b = BasisSpec(lam=TABLE3_LAM, ell=ell, size=TABLE3_N)
            energies = bound_states(p, b).energies
            for n, want in enumerate(golden):
                assert -float(energies[n]) == pytest.approx(want, abs=1e-7), (
                    "ell=%d r0=%g width=%g V0=%g beta=%g n=%d" % (ell, r0, width, V0, beta, n)
                )


def test_analytic_elements_match_quadrature_oracle():
    # for every potential family at the reference-table parameter sets,
    # the analytic matrix agrees with the order-300 quadrature oracle over
    # all elements n, m <= 60 to a deviation of 1e-11 (relative where the
    # element is appreciable, absolute at the same scale where it is tiny)
    t0 = time.perf_counter()
    cases = []
    for delta in (0.01, 0.5, 1.0, 2.0, 5.0, 9.0):
        cases.append((cos_yukawa(delta), BasisSpec(lam=2.0, ell=0, size=61)))
    for (B, ell) in TABLE2:
        cases.append((KratzerParams(1.0, B), BasisSpec(lam=TABLE2_LAM, ell=ell, size=61)))
    for (ell, r0, width, V0), by_beta in TABLE3:
        for beta in by_beta:
            cases.append((MorseParams(V0, r0, width, beta), BasisSpec(lam=6.0, ell=ell, size=61)))
    worst = 0.0
    for p, b in cases:
        analytic = p.matrix(b)
        oracle = quad_potential_matrix(p.radial, b, order=300, weight_nu=p.oracle_nu(b))
        dev = np.max(np.abs(analytic - oracle) / np.maximum(np.abs(analytic), 1e-2))
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11, "worst oracle deviation %.3e" % worst
    assert elapsed < 30.0, "oracle sweep too slow: %.1fs" % elapsed


def test_coulomb_limit_pins_conventions():
    # zero screening reduces to the pure attractive Coulomb potential whose
    # two-dimensional s-wave spectrum is -1/(2 (n + 1/2)^2); matching it
    # fixes the kinetic prefactor and every sign convention at once
    p = YukawaParams(strength=1.0, mu_re=0.0, mu_im=0.0, variant="classical")
    result = bound_states(p, BasisSpec(lam=1.0, ell=0, size=100))
    want = [-2.0, -2.0 / 9.0, -2.0 / 25.0]
    np.testing.assert_allclose(result.bound[:3], want, rtol=0, atol=1e-10)


def test_structural_properties():
    # overlap matrices are positive definite up to N = 500 for nu in
    # {0, 2, 10}; the reference pencil has a strictly positive spectrum;
    # energies decrease monotonically with basis size; the ground state sits
    # on a flat basis-scale plateau that narrows as binding weakens
    for ell in (0, 1, 5):
        b = BasisSpec(lam=1.0, ell=ell, size=500)
        np.linalg.cholesky(overlap_matrix(b))  # raises if not positive definite
        b100 = b.with_size(100)
        vals = solve_pencil(Pencil(h0_matrix(b100), overlap_matrix(b100)))
        assert np.all(vals > 0), "reference pencil not positive at nu=%d" % b.nu

    table = converge_in_n(cos_yukawa(0.1), BasisSpec(1.0, 0, 100), range(20, 101, 10), k=2)
    assert np.all(np.diff(table.traces, axis=0) <= 1e-13), "energies rose with basis size"

    grid = np.arange(1.0, 5.01, 0.5)
    for delta in (0.01, 0.5, 1.0, 2.0):
        report = lambda_scan(cos_yukawa(delta), BasisSpec(1.0, 0, 100), grid, k=1)
        assert report.plateau == (1.0, 5.0), "plateau broken at delta=%g" % delta
        assert np.max(report.spread) <= 1e-9, "plateau spread too wide at delta=%g" % delta
    narrow = lambda_scan(cos_yukawa(9.0), BasisSpec(1.0, 0, 100), grid, k=1)
    narrow_width = 0.0
    if narrow.plateau is not None:
        narrow_width = narrow.plateau[1] - narrow.plateau[0]
    assert narrow_width < 4.0, "near-threshold level should not be scale-stable across the grid"


def test_critical_screening_brackets():
    # the s-wave bound-state count steps down 3 -> 2 -> 1 across
    # delta = 0.1, 0.2, 0.5, and bisection pins the disappearance points of
    # the second and third levels inside those brackets, deterministically
    counts = {}
    for delta in (0.1, 0.2, 0.5):
        counts[delta] = len(bound_states(cos_yukawa(delta), BasisSpec(1.0, 0, 100)).bound)
    assert counts == {0.1: 3, 0.2: 2, 0.5: 1}

    dc2a = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
    dc2b = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
    dc3 = critical_screening(cos_yukawa(0.1), ell=0, level=2, bracket=(0.1, 0.2))
    assert 0.2 < dc2a < 0.5
    assert 0.1 < dc3 < 0.2
    assert dc2a == dc2b, "critical-screening bisection must be deterministic"
