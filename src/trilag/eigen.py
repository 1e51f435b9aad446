"""Symmetric-definite generalized eigenproblem H f = E S f.

The overlap is reduced away through its Cholesky factor: with S = L L^T the
pencil becomes the standard symmetric problem A = L^{-1} H L^{-T}, whose
eigenvalues are the pencil eigenvalues and whose eigenvectors map back to
S-orthonormal pencil eigenvectors through L^{-T}.

The factor is taken in LAPACK band storage.  L has the lower bandwidth kd
of S (the farthest nonzero subdiagonal), so the factorisation costs
O(N kd^2) and each triangular solve against N right-hand sides O(N^2 kd).
The basis overlap is tridiagonal (kd = 1): its factor is lower bidiagonal
and the whole reduction is O(N^2), leaving the symmetric eigensolver as
the only cubic step.  A dense S is simply the kd = N - 1 case.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpbtrf, dpotrf, dtbtrs

__all__ = ["Pencil", "NotPositiveDefiniteError", "cholesky", "solve_pencil"]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky pivot failure; `pivot` is the 0-based index that failed."""

    def __init__(self, pivot):
        self.pivot = int(pivot)
        super().__init__(
            "matrix is not positive definite: pivot %d is not positive" % self.pivot
        )


@dataclass(frozen=True)
class Pencil:
    """Hamiltonian/overlap pair defining H f = E S f."""

    h: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.s.shape or self.h.ndim != 2:
            raise ValueError("pencil matrices must be square with equal shape")


def _check_info(info, routine):
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError("illegal argument %d to %s" % (-info, routine))


def cholesky(s):
    """Lower-triangular L with L L^T = s and positive diagonal.

    Raises NotPositiveDefiniteError naming the failing pivot when s is not
    positive definite.
    """
    L, info = dpotrf(np.asarray(s, dtype=float), lower=1, clean=1)
    _check_info(info, "dpotrf")
    return L


def _band_cholesky(s):
    """Lower band storage of the Cholesky factor of s: row k holds the
    k-th subdiagonal of L, left-aligned (LAPACK 'L' layout)."""
    N = s.shape[0]
    # kd is the farthest any row's first nonzero lies left of the diagonal
    kd = int(np.max(np.arange(N) - np.argmax(s != 0, axis=1), initial=0))
    ab = np.zeros((kd + 1, N))
    for k in range(kd + 1):
        ab[k, : N - k] = np.diagonal(s, -k)
    c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    _check_info(info, "dpbtrf")
    return c


def _band_solve(c, b, trans="N"):
    """L^{-1} b (trans 'N') or L^{-T} b (trans 'T') for the band factor c."""
    x, info = dtbtrs(c, b, uplo="L", trans=trans)
    if info != 0:
        raise ValueError("dtbtrs failed with info %d" % info)
    return x


_COND_WARN = 1e12


def solve_pencil(p, eigvecs=False):
    """Ascending eigenvalues of the pencil, optionally with eigenvectors.

    Eigenvectors, when requested, are returned as columns and are
    S-orthonormal (f_i^T S f_j = delta_ij).  Emits a warning when the
    overlap condition number estimate exceeds 1e12 (accuracy of the
    reduction degrades).
    """
    c = _band_cholesky(np.asarray(p.s, dtype=float))
    d = np.abs(c[0])
    if (d.max() / d.min()) ** 2 > _COND_WARN:
        warnings.warn(
            "overlap matrix is badly conditioned (estimate %.2e); eigenvalues "
            "may lose accuracy" % float((d.max() / d.min()) ** 2),
            RuntimeWarning,
        )
    # A = L^{-1} H L^{-T}; H is symmetric, so (L^{-1} H)^T = H L^{-T}
    Y = _band_solve(c, np.asarray(p.h, dtype=float))
    A = _band_solve(c, Y.T)
    A = 0.5 * (A + A.T)
    if not eigvecs:
        return sla.eigh(A, eigvals_only=True)
    w, Z = sla.eigh(A)
    return w, _band_solve(c, Z, trans="T")
