"""Laguerre basis configuration and its two structural matrices.

The radial basis is phi_n(x) = a_n x^alpha e^{-x/2} L_n^nu(x) with x = lam*r,
alpha = (nu+1)/2 and the norm a_n = sqrt(lam n!/Gamma(n+nu+1)).  The paper's
index is nu = 2|ell|, so that phi_n behaves like r^{|ell|+1/2} at the origin
and H0 holds the centrifugal term ell^2/(2 r^2).  Any real nu >= 0 is a
basis; H0(nu) then holds nu^2/(8 r^2) in its place, and a potential's matrix
carries the difference (potentials.Potential).  A BasisSpec built without nu
reads 2|ell|, and the solver drivers replace it by the potential's natural
index: 2 sqrt(ell^2 + B) for the Kratzer well, whose B/(2 r^2) term H0(nu)
then absorbs.

In this basis the reference (kinetic + centrifugal) Hamiltonian H0 and the
overlap S are both exactly tridiagonal; the basis is not orthogonal, so
spectra come from the pencil H f = E S f.  The norms a_n enter the potential
matrices only inside their closed forms and the oracle's orthonormal table.

The library's own solves never form S or H0 as dense matrices: H0's three
bands are added into the potential matrix in place (_add_h0), and S enters
only through its Cholesky factor, which is lower bidiagonal in closed form
(_overlap_factor).  overlap_matrix and h0_matrix give the dense matrices for
callers that want them.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = ["BasisSpec", "overlap_matrix", "h0_matrix"]


@dataclass(frozen=True)
class BasisSpec:
    """Finite basis scale lam > 0, integer angular momentum ell (any sign),
    integer size N >= 1 and Laguerre index nu >= 0.

    nu left out reads 2|ell| (the radial equation depends on ell only
    through ell^2), and nu_given is False: the solver drivers then use the
    potential's natural index instead.
    """

    lam: float
    ell: int
    size: int
    nu: Optional[float] = None
    nu_given: bool = field(init=False, default=True)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("basis scale lam must be finite and > 0, got %r" % (self.lam,))
        if not isinstance(self.ell, numbers.Integral):
            raise ValueError("angular momentum ell must be an integer, got %r" % (self.ell,))
        if not isinstance(self.size, numbers.Integral) or self.size < 1:
            raise ValueError("basis size must be an integer >= 1, got %r" % (self.size,))
        if self.nu is None:
            object.__setattr__(self, "nu_given", False)
            object.__setattr__(self, "nu", 2.0 * abs(self.ell))
        elif not (isinstance(self.nu, numbers.Real) and math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError("basis index nu must be finite and >= 0, got %r" % (self.nu,))
        else:
            object.__setattr__(self, "nu", float(self.nu))

    def _replace(self, **changes):
        # an index left out stays left out
        return replace(self, **{"nu": self.nu if self.nu_given else None, **changes})

    def with_lam(self, lam):
        return self._replace(lam=float(lam))

    def with_size(self, size):
        return self._replace(size=int(size))

    def with_nu(self, nu):
        return self._replace(nu=nu)


def _bands(basis):
    """Diagonal 2n+nu+1 and off-diagonal sqrt(n(n+nu)) shared by S and H0."""
    n = np.arange(basis.size)
    return 2 * n + basis.nu + 1.0, np.sqrt(n[1:] * (n[1:] + basis.nu))


def _add_tridiagonal(M, diag, off):
    """Add the symmetric tridiagonal matrix (diag, off) into M in place; returns M."""
    n = np.arange(1, len(diag))
    M[np.diag_indices(len(diag))] += diag
    M[n, n - 1] += off
    M[n - 1, n] += off
    return M


def overlap_matrix(basis):
    """Tridiagonal overlap S: diag 2n+nu+1, off-diagonal -sqrt(n(n+nu))."""
    diag, off = _bands(basis)
    return _add_tridiagonal(np.zeros((basis.size, basis.size)), diag, -off)


def _overlap_factor(N, nu, dtype=float):
    """Cholesky factor L of the overlap (S = L L^T) in LAPACK lower band storage.

    L is lower bidiagonal in closed form: row 0 holds L[m, m] = sqrt(m+nu+1)
    and row 1 L[m+1, m] = -sqrt(m+1), left-aligned with a trailing 0.
    """
    m = np.arange(N, dtype=dtype)
    c = np.zeros((2, N), dtype=dtype)
    c[0] = np.sqrt(m + nu + 1)
    c[1, :-1] = -np.sqrt(m[1:])
    return c


def _add_h0(M, basis):
    """Add the three bands of H0 into the square matrix M in place; returns M."""
    diag, off = _bands(basis)
    scale = basis.lam ** 2 / 8.0
    return _add_tridiagonal(M, scale * diag, scale * off)


def h0_matrix(basis):
    """Tridiagonal reference Hamiltonian H0 (kinetic + centrifugal).

    (H0)_nn = (lam^2/8)(2n+nu+1), off-diagonal +(lam^2/8) sqrt(n(n+nu)).
    Entries scale as lam^2 while the overlap is lam-independent.
    """
    return _add_h0(np.zeros((basis.size, basis.size)), basis)
