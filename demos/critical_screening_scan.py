"""Where do screened-Coulomb bound states disappear?

As the screening delta grows, the cosine-screened Coulomb well supports
fewer and fewer bound levels.  This script counts levels across a delta
grid and then bisects the detachment points of the second and third
s-wave states in the default basis (N = 100, lam = 1).  These are
truncated-basis values: a larger basis binds each level more deeply, so
the critical delta rises with N (0.32096 at N = 100, 0.32324 at N = 400
for the second state) and the printed values are lower bounds.
"""

import numpy as np

from trilag import BasisSpec, YukawaParams, bound_states, critical_screening


def cos_yukawa(delta):
    return YukawaParams(strength=1.0, mu_re=delta, mu_im=delta, variant="cosine")


def main():
    basis = BasisSpec(lam=1.0, ell=0, size=100)
    print("delta   bound s-states")
    for delta in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        n = len(bound_states(cos_yukawa(delta), basis).bound)
        print("%-7g %d" % (delta, n))

    dc2 = critical_screening(cos_yukawa(0.1), ell=0, level=1, bracket=(0.2, 0.5))
    dc3 = critical_screening(cos_yukawa(0.1), ell=0, level=2, bracket=(0.1, 0.2))
    print("\nsecond s-state detaches near delta = %.4f (N = 100 lower bound)" % dc2)
    print("third  s-state detaches near delta = %.4f (N = 100 lower bound)" % dc3)


if __name__ == "__main__":
    main()
