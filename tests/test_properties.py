"""Properties of the Yukawa spectra that need no oracle.

Every Yukawa variant satisfies V >= -A/r, because |cos|, |sin| <= 1 and the
screening only damps.  The exact ground level therefore lies at or above
the 2D Coulomb ground level -A^2 / (2 (|ell| + 1/2)^2), and so does every
Ritz estimate of it.  The basis of size N is contained in the basis of
size N + 50 at the same scale, so the lowest Ritz level cannot rise with N.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trilag.basis import BasisSpec
from trilag.potentials import YukawaParams
from trilag.solver import bound_states

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
