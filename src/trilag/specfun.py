"""The Laguerre recurrence behind the Gauss layer.

One private kernel: the upward three-term recurrence of the Laguerre
polynomials p_n = sqrt(n!/Gamma(n+nu+1)) L_n^nu, orthonormal under
x^nu e^{-x}, run in extended precision with every coefficient formed in
longdouble.  quadrature._laguerre_table stores its rows (the oracle and the
Gauss-assembled wells); quadrature.gauss_laguerre_rule keeps only its last
two rows, started at an exact power of two so that no row leaves the
longdouble range, for the Newton step and for the weights.  No row is
rescaled on the way.
"""

import numpy as np


def _laguerre_rows(count, nu, x, start):
    """Rows n < count of start_i p_n(x_i) / p_0 at the longdouble points x,
    one row at a time, as longdouble arrays.

    off[n+1] p_{n+1} = (2n+nu+1-x) p_n - off[n] p_{n-1}, with
    off[n] = sqrt(n (n+nu)) the Jacobi off-diagonal.  Scaling start by a
    power of two scales every row by it and moves no mantissa.
    """
    k = np.arange(count, dtype=np.longdouble)
    nu = np.longdouble(nu)
    diag = 2 * k + 1 + nu
    off = np.sqrt(k * (k + nu))
    prev, cur = np.zeros_like(x), start
    yield cur
    for n in range(count - 1):
        prev, cur = cur, ((diag[n] - x) * cur - off[n] * prev) / off[n + 1]
        yield cur
