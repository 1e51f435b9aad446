"""Scalar special-function kernels.

Everything here is a small, pure building block used by the matrix-element
formulas and the quadrature oracle: generalized Laguerre polynomial
sequences and basis normalization coefficients.
"""

import math

import numpy as np
from scipy.special import gammaln


def laguerre_seq(n_max, nu, x):
    """Values L_0^nu(x) .. L_{n_max}^nu(x) by the upward three-term recurrence.

    x may be a scalar or an ndarray; the result has shape
    (n_max+1,) + shape(x).  The recurrence
    (k+1) L_{k+1} = (2k+nu+1-x) L_k - (k+nu) L_{k-1}
    is stable in the oscillatory region sampled by quadrature nodes.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = np.asarray(x)
    dtype = np.result_type(x.dtype, float)
    x = x.astype(dtype)
    L = np.empty((n_max + 1,) + x.shape, dtype=dtype)
    L[0] = 1.0
    if n_max >= 1:
        L[1] = 1.0 + nu - x
    for k in range(1, n_max):
        L[k + 1] = ((2 * k + nu + 1 - x) * L[k] - (k + nu) * L[k - 1]) / (k + 1)
    return L


def norm_coeff(n, nu, lam):
    """Normalization a_n = sqrt(lam Gamma(n+1) / Gamma(n+nu+1)).

    Evaluated through log-gamma differences so it stays finite for
    large n and nu.
    """
    if n < 0 or nu < 0 or lam <= 0:
        raise ValueError("norm_coeff requires n >= 0, nu >= 0, lam > 0")
    return math.sqrt(lam) * math.exp(0.5 * (gammaln(n + 1.0) - gammaln(n + nu + 1.0)))

