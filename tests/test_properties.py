"""Properties of the Yukawa spectra that need no oracle.

Every Yukawa variant satisfies V >= -A/r, because |cos|, |sin| <= 1 and the
screening only damps.  The exact ground level therefore lies at or above
the 2D Coulomb ground level -A^2 / (2 (|ell| + 1/2)^2), and so does every
Ritz estimate of it.  The basis of size N is contained in the basis of
size N + 50 at the same scale, so the lowest Ritz level cannot rise with N.

lambda_scan, converge_in_n and spectrum take a dense pencil's levels by the
same route as bound_states, so their rows are its energies bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trilag.basis import BasisSpec
from trilag.potentials import KratzerParams, MorseParams, YukawaParams
from trilag.solver import bound_states, converge_in_n, lambda_scan, spectrum

# the same level from two assemblies agrees to about 1e-12
SLACK = 1e-10


@st.composite
def yukawa_cases(draw):
    variant = draw(st.sampled_from(["classical", "cosine", "sine"]))
    mu_re = draw(st.floats(0.0, 5.0))
    ratio = 0.0 if variant == "classical" else draw(st.floats(0.0, 1.0))
    p = YukawaParams(strength=draw(st.floats(0.2, 3.0)), mu_re=mu_re,
                     mu_im=ratio * mu_re, variant=variant)
    basis = BasisSpec(lam=draw(st.floats(0.3, 3.0)), ell=draw(st.integers(-2, 2)),
                      size=draw(st.sampled_from([40, 150, 350])))
    return p, basis


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(yukawa_cases())
# the case where a cancelling assembly puts spurious levels below -A^2/2
@example((YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant="cosine"),
          BasisSpec(lam=1.0, ell=0, size=350)))
def test_lowest_level_above_coulomb_and_falls_with_n(case):
    p, basis = case
    coulomb = -p.strength ** 2 / (2 * (abs(basis.ell) + 0.5) ** 2)
    small = bound_states(p, basis).energies[0]
    large = bound_states(p, basis.with_size(basis.size + 50)).energies[0]
    assert small >= coulomb - SLACK * abs(coulomb)
    assert large >= coulomb - SLACK * abs(coulomb)
    assert large <= small + SLACK * max(1.0, abs(small))


DENSE_FAMILIES = {
    "cosine": YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant="cosine"),
    "classical": YukawaParams(strength=1.0, mu_re=0.5, variant="classical"),
    "morse": MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8),
    "kratzer": KratzerParams(coulomb=1.0, inverse_square=1.0),
}


@st.composite
def scan_cases(draw):
    family = draw(st.sampled_from(sorted(DENSE_FAMILIES)))
    # Kratzer at the paper's index 2|ell|, where its pencil is dense (its
    # 1/r^2 integral diverges at ell = 0); the others at their natural one
    ell = draw(st.integers(1 if family == "kratzer" else 0, 2))
    nu = 2.0 * ell if family == "kratzer" else None
    basis = BasisSpec(lam=draw(st.floats(0.5, 4.0)), ell=ell,
                      size=draw(st.integers(10, 40)), nu=nu)
    return DENSE_FAMILIES[family], basis, draw(st.integers(1, 4))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scan_cases())
def test_scan_and_size_rows_are_bound_states_levels(case):
    # one route from a dense pencil to its levels: every row of a scan or a
    # size sequence is bound_states' energies[:k] of that basis, bit for bit
    p, basis, k = case
    grid = basis.lam * np.array([1.0, 1.1, 1.2, 1.3, 1.4])
    for lam, row in zip(grid, lambda_scan(p, basis, grid, k).traces):
        assert row.tobytes() == bound_states(p, basis.with_lam(lam)).energies[:k].tobytes()
    sizes = (basis.size, basis.size + 7)
    for N, row in zip(sizes, converge_in_n(p, basis, sizes, k).traces):
        assert row.tobytes() == bound_states(p, basis.with_size(N)).energies[:k].tobytes()
    assert spectrum(p, basis).tobytes() == bound_states(p, basis).energies.tobytes()


def test_spectrum_is_bound_states_energies_for_kratzer_at_natural_index():
    # nu left out: both resolve the natural index 2 sqrt(ell^2 + B), where
    # the potential matrix is diagonal but the solve is still dense
    p, basis = KratzerParams(coulomb=1.0, inverse_square=5.0), BasisSpec(lam=1.0, ell=2, size=60)
    assert spectrum(p, basis).tobytes() == bound_states(p, basis).energies.tobytes()
