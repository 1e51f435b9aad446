"""Laguerre basis configuration and its two structural matrices.

The radial basis is phi_n(x) = a_n x^alpha e^{-x/2} L_n^nu(x) with x = lam*r,
nu = 2|ell| and alpha = |ell| + 1/2.  In this basis the reference (kinetic +
centrifugal) Hamiltonian H0 and the overlap S are both exactly tridiagonal;
the basis is not orthogonal, so spectra come from the pencil H f = E S f.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .specfun import norm_coeff

__all__ = ["BasisSpec", "overlap_matrix", "h0_matrix"]


@dataclass(frozen=True)
class BasisSpec:
    """Finite basis scale lam > 0, integer angular momentum ell (any sign),
    integer size N >= 1."""

    lam: float
    ell: int
    size: int

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("basis scale lam must be finite and > 0, got %r" % (self.lam,))
        if not isinstance(self.ell, numbers.Integral):
            raise ValueError("angular momentum ell must be an integer, got %r" % (self.ell,))
        if not isinstance(self.size, numbers.Integral) or self.size < 1:
            raise ValueError("basis size must be an integer >= 1, got %r" % (self.size,))

    @property
    def nu(self):
        # the radial equation depends on ell only through ell^2
        return 2.0 * abs(self.ell)

    @property
    def alpha(self):
        return abs(self.ell) + 0.5

    def norm_coeff(self, n):
        return norm_coeff(n, self.nu, self.lam)

    def with_lam(self, lam):
        return BasisSpec(lam=float(lam), ell=self.ell, size=self.size)

    def with_size(self, size):
        return BasisSpec(lam=self.lam, ell=self.ell, size=int(size))


def overlap_matrix(basis):
    """Tridiagonal overlap S: diag 2n+nu+1, off-diagonal -sqrt(n(n+nu))."""
    N, nu = basis.size, basis.nu
    n = np.arange(N)
    S = np.diag(2 * n + nu + 1.0)
    off = -np.sqrt(n[1:] * (n[1:] + nu))
    S[n[1:], n[1:] - 1] = off
    S[n[1:] - 1, n[1:]] = off
    return S


def h0_matrix(basis):
    """Tridiagonal reference Hamiltonian H0 (kinetic + centrifugal).

    (H0)_nn = (lam^2/8)(2n+nu+1), off-diagonal +(lam^2/8) sqrt(n(n+nu)).
    Entries scale as lam^2 while the overlap is lam-independent.
    """
    N, nu = basis.size, basis.nu
    n = np.arange(N)
    H = np.diag(2 * n + nu + 1.0)
    off = np.sqrt(n[1:] * (n[1:] + nu))
    H[n[1:], n[1:] - 1] = off
    H[n[1:] - 1, n[1:]] = off
    return (basis.lam ** 2 / 8.0) * H
