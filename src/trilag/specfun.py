"""The Laguerre recurrence behind the Gauss-Laguerre rule.

One private kernel: the upward three-term recurrence of the generalized
Laguerre polynomials in extended precision, renormalized so that values far
beyond the longdouble range stay representable.  quadrature.gauss_laguerre_rule
evaluates L_{order-1}^nu and L_order^nu at its nodes with it, once, for the
Newton step and for the weights.
"""

import numpy as np


# steps between overflow tests in _laguerre_pair_scaled: a step grows the pair
# by less than 2 order + nu + 2 (below 2^13 up to order ~1700), far inside the
# 2^8384 headroom above the 2^8000 threshold
_RESCALE_STEPS = 32


def _laguerre_pair_scaled(nmax, nu, x):
    """(L_{nmax-1}, L_nmax, expo) at x, each stored as mantissa * 2**expo.

    Extended-precision upward recurrence with explicit renormalization so
    that polynomial values of magnitude far beyond the longdouble range
    stay representable (needed for the far-tail nodes of high orders).
    """
    x = np.asarray(x, np.longdouble)
    m0 = np.ones_like(x)
    expo = np.zeros_like(x)
    m1 = (1.0 + nu - x).astype(np.longdouble)
    big = np.longdouble(2.0) ** 8000
    for k in range(1, nmax):
        m0, m1 = m1, ((2 * k + nu + 1 - x) * m1 - (k + nu) * m0) / (k + 1)
        if k % _RESCALE_STEPS == 0:
            over = np.maximum(np.abs(m0), np.abs(m1)) > big
            if over.any():
                scale = np.where(over, 1 / big, np.longdouble(1.0))
                m0 = m0 * scale
                m1 = m1 * scale
                expo = expo + np.where(over, 8000, 0)
    return m0, m1, expo
