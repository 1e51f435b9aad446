"""Symmetric-definite generalized eigenproblem H f = E S f.

The overlap is reduced away through its Cholesky factor: with S = L L^T the
pencil becomes the standard symmetric problem A = L^{-1} H L^{-T}, whose
eigenvalues are the pencil eigenvalues and whose eigenvectors map back to
S-orthonormal pencil eigenvectors through L^{-T}.

The factor is taken in LAPACK band storage, from the pencil
(_tridiagonalize asks it for the factor and its H).  A Pencil's factor is
computed from its s by dpbtrf: L has the lower bandwidth kd of S (the
farthest nonzero subdiagonal), so the factorisation costs O(N kd^2).  The
solver's own pencils (solver._pencil) never form S: the basis overlap is
tridiagonal, its factor is lower bidiagonal in closed form
(basis._overlap_factor), and their H, built for the one solve, is reduced
in its own buffer.  For a bidiagonal factor (kd = 1) L^{-1} is rank-one
below the diagonal, L^{-1}[n, m] = u_n v_m for m <= n (a semiseparable
matrix; Vandebril, Van Barel & Mastronardi, Matrix Computations and
Semiseparable Matrices, 2008).  Then
A[i, j] = u_i u_j sum_{n <= i, m <= j} v_n v_m H[n, m] is two prefix sums
over one N x N buffer, O(N^2).  Every other factor (kd != 1, a zero
subdiagonal, or generators past the float64 range) takes two triangular
band solves against N right-hand sides, O(N^2 kd); a dense S is simply the
kd = N - 1 case.

A is then tridiagonalised once (dsytrd, Q^T A Q = T, 4N^3/3 flops), the
one cubic step every request pays.  Three kinds of request follow it:

- every eigenvalue (solve_pencil): dsterf on T, O(N^2); a request for every
  vector takes them from the MRRR call below;
- eigenvectors for the k lowest levels asked for (solve_pencil with
  `below`): MRRR (dstemr) on T, the reflectors of Q applied to those k
  columns (dormqr, 2N^2 k) and L^{-T} to the same k columns, as LAPACK's
  own subset drivers do, so a caller that inspects only the bound levels
  pays O(N^2 k) beyond the reduction instead of another two cubic steps;
- the k lowest eigenvalues only (lowest_eigenvalues): Sturm-sequence
  bisection on T (dstebz; Barth, Martin & Wilkinson, Numer. Math. 9, 1967),
  O(N k), with neither Q nor L^{-T} applied to anything.

A fourth kind needs no reduction at all: the k lowest eigenvalues of a
TridiagonalPencil, H = M - c S with M diagonal and S tridiagonal, which is
the basis pencil of any potential whose matrix is diagonal (the Kratzer well
at its natural basis index, a J-matrix pencil: Heller & Yamani, Phys. Rev. A
9, 1201 (1974)).  With eps = E + c it reads M f = eps S f.  Where M is
positive definite, S f = (1/eps) M f makes the levels E = 1/mu - c, mu the
k largest eigenvalues of the tridiagonal M^{-1/2} S M^{-1/2}: one dstebz.
Elsewhere each level is bisected on Sturm counts of T(eps) = M - eps S,
whose number of negative eigenvalues is, by Sylvester's law of inertia (S
is positive definite), the number of levels below eps; dstebz with a value
range and no refinement returns that count in O(N).  Neither forms a dense
matrix or calls dsytrd.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import (
    dormqr,
    dpbtrf,
    dstebz,
    dstemr,
    dstemr_lwork,
    dsterf,
    dsytrd,
    dsytrd_lwork,
    dtbtrs,
)

__all__ = ["Pencil", "TridiagonalPencil", "NotPositiveDefiniteError", "lowest_eigenvalues",
           "solve_pencil"]


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

    def _operands(self):
        """The band Cholesky factor of s, h, and whether the reduction may
        overwrite h: never, h is the caller's."""
        c = _band_cholesky(np.asarray(self.s, dtype=float))
        return c, np.asarray(self.h, dtype=float), False


@dataclass(frozen=True)
class TridiagonalPencil:
    """The pencil H = diag(m) - shift S, where S is the positive definite
    tridiagonal matrix with diagonal s and subdiagonal t."""

    m: np.ndarray
    shift: float
    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if not (len(self.m) == len(self.s) == len(self.t) + 1 >= 1):
            raise ValueError("a tridiagonal pencil takes N-long m and s and an (N-1)-long t")
        # a bracket of the levels doubles out until the Sturm counts settle
        if not all(np.isfinite(x).all() for x in (self.m, self.shift, self.s, self.t)):
            raise ValueError("tridiagonal pencil entries must be finite")


def _check_info(info, routine):
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError("illegal argument %d to %s" % (-info, routine))


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


def _check_converged(info, routine):
    if info != 0:
        raise np.linalg.LinAlgError("%s failed with info %d" % (routine, info))


def _mrrr(d, e, k):
    """Lowest k eigenpairs of the tridiagonal (d, e), by MRRR (dstemr)."""
    N = len(d)
    e = np.r_[e, 0.0]  # dstemr takes an N-long off-diagonal, and overwrites it
    # range 'I' (2) costs about 5k/N times range 'A' (0), so from N/5 levels
    # on every pair is computed and the lowest k kept
    rng = 0 if 5 * k >= N else 2
    lwork, liwork, info = dstemr_lwork(d, e, rng, 0.0, 0.0, 1, k)
    _check_converged(info, "dstemr_lwork")
    _, w, Z, info = dstemr(d, e, rng, 0.0, 0.0, 1, k, lwork=int(lwork), liwork=liwork)
    _check_converged(info, "dstemr")
    return w[:k], Z[:, :k]


def _apply_q(QT, tau, Z):
    """Q Z for the Q of dsytrd (lower): Q = H(1) ... H(N-1) acts on rows
    1..N-1, with the reflectors stored below the subdiagonal of QT."""
    if len(Z) == 1:
        return Z  # no reflectors
    V = np.asfortranarray(QT[1:, :-1])
    C = np.asfortranarray(Z[1:])
    # scipy has no dormtr: dormqr on the trailing (N-1) x (N-1) block
    _, work, info = dormqr("L", "N", V, tau, C, -1, overwrite_c=1)
    _check_converged(info, "dormqr")
    Z[1:], _, info = dormqr("L", "N", V, tau, C, int(work[0]), overwrite_c=1)
    _check_converged(info, "dormqr")
    return Z


_COND_WARN = 1e12

# the generators of a bidiagonal factor's inverse are used when u u^T and
# v v^T stay normal float64 numbers with 2^64 to spare below overflow for
# the entries of H and the N^2 terms of a prefix sum
_GEN_TINY = np.finfo(float).tiny
_GEN_HUGE = np.finfo(float).max * 2.0 ** -64


def _generators(c):
    """Generators (u, v) of L^{-1}[n, m] = u_n v_m (m <= n) for the band
    factor c, or None unless L is bidiagonal with no zero subdiagonal entry
    and the generators' products stay in the float64 range.

    With diagonal d and subdiagonal l, u_n = P_n = prod_{k=1..n} (-l_{k-1}/d_k)
    and v_n = 1/(P_n d_n); for the basis overlap -l_{k-1}/d_k is
    sqrt(k)/sqrt(k+nu+1).  They are formed in longdouble, O(N).  A zero
    subdiagonal entry zeroes u from there on, which the range test rejects.
    """
    if c.shape[0] != 2:
        return None
    d = c[0].astype(np.longdouble)
    u = np.ones_like(d)
    np.cumprod(-c[1, :-1] / d[1:], out=u[1:])
    with np.errstate(divide="ignore", over="ignore"):
        v = 1 / (u * d)
        a = np.abs(np.concatenate((u, v)))
        lo, hi = a.min(), a.max()
        if not (lo * lo >= _GEN_TINY and hi * hi <= _GEN_HUGE):
            return None
    return u.astype(float), v.astype(float)


def _reduce(c, h, overwrite_h=False):
    """A = L^{-1} H L^{-T} for the band factor c of S, in the Fortran order
    dsytrd overwrites; only its lower triangle is guaranteed.

    With overwrite_h the prefix sums run in h's own buffer, which then must
    hold an exactly symmetric H (an F-ordered h is summed as its transpose).
    """
    g = _generators(c)
    if g is None:
        # H is symmetric, so (L^{-1} H)^T = H L^{-T}
        Y = _band_solve(c, h)
        A = _band_solve(c, Y.T)
        return (0.5 * (A + A.T)).T
    # A = (u u^T) * prefix sums of (v v^T) * H.  Summing along rows first,
    # then down columns, makes the upper triangle of W (the lower one of
    # W.T, which dsytrd reads) the more accurate one: there the first sum
    # runs over the longer index range (at N = 800, 3.5e-15 relative
    # against 5.4e-15 for the other order).
    u, v = g
    if overwrite_h:
        W = h if h.flags.c_contiguous else h.T
        W *= v
    else:
        W = np.multiply(h, v, order="C")
    W *= v[:, None]
    np.cumsum(W, axis=1, out=W)
    np.cumsum(W, axis=0, out=W)
    W *= u[:, None]
    W *= u
    return W.T


def _tridiagonalize(p):
    """Reduce the pencil to the standard tridiagonal problem.

    The pencil supplies the band Cholesky factor c of S and its H
    (p._operands()).  Returns (c, QT, d, e, tau): that factor, and the
    dsytrd output for A = L^{-1} H L^{-T}, Q^T A Q = T with diagonal d and
    subdiagonal e, the reflectors of Q stored below the subdiagonal of QT
    with their scalars tau.  Emits a warning when the squared ratio of the
    largest to the smallest Cholesky pivot, a lower bound on the 2-norm
    condition number of S, exceeds 1e12 (accuracy of the reduction
    degrades); for the basis overlap it is (N+nu)/(nu+1), so it cannot
    fire there: at N = 400 it reads 400 (nu = 0) and 134 (nu = 2) against a
    condition number of 4.3e5 and 9.5e4.
    """
    c, h, overwrite_h = p._operands()
    piv = np.abs(c[0])
    if (piv.max() / piv.min()) ** 2 > _COND_WARN:
        warnings.warn(
            "overlap matrix is badly conditioned (condition number at least "
            "%.2e); eigenvalues may lose accuracy" % float((piv.max() / piv.min()) ** 2),
            RuntimeWarning,
        )
    A = _reduce(c, h, overwrite_h)
    # Q^T A Q = T, tridiagonal (d, e), from the lower triangle of A
    lwork, info = dsytrd_lwork(A.shape[0], lower=1)
    _check_converged(info, "dsytrd_lwork")
    QT, d, e, tau, info = dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_converged(info, "dsytrd")
    return c, QT, d, e, tau


def solve_pencil(p, eigvecs=False, below=np.inf):
    """Ascending eigenvalues of the pencil, optionally with eigenvectors.

    With eigvecs, every eigenvalue is returned together with the
    eigenvectors of those below `below` (all of them by default), as
    ascending columns; there may be none.  They are S-orthonormal
    (f_i^T S f_j = delta_ij).  Emits a warning when the squared Cholesky
    pivot ratio of S, a lower bound on its condition number, exceeds 1e12
    (accuracy of the reduction degrades).
    """
    c, QT, d, e, tau = _tridiagonalize(p)
    N = len(d)
    if eigvecs and below == np.inf:
        # every pair wanted: MRRR finds all eigenvalues with the vectors
        w, Z = _mrrr(d, e, N)
    else:
        if N == 1:
            w = d
        else:
            w, info = dsterf(d, e)
            _check_converged(info, "dsterf")
        if not eigvecs:
            return w
        k = int(np.searchsorted(w, below))
        if k == 0:
            # never handed to dtbtrs: zero right-hand sides corrupt its heap
            return w, np.zeros((N, 0))
        _, Z = _mrrr(d, e, k)
    return w, _band_solve(c, _apply_q(QT, tau, Z), trans="T")


# dstebz's absolute tolerance: twice the smallest normal number is LAPACK's
# choice for maximal accuracy (abstol = 0 stops at about eps |T| instead)
_BISECT_TOL = 2 * np.finfo(float).tiny
_HUGE = np.finfo(float).max
_EPS = np.finfo(float).eps


def _sturm_count(p, eps):
    """The number of levels of the tridiagonal pencil p with E + p.shift <= eps."""
    # an abstol wider than any interval: dstebz counts at the range ends and stops
    m, _, _, _, info = dstebz(p.m - eps * p.s, -eps * p.t, 1, -_HUGE, 0.0, 0, 0, _HUGE, "E")
    _check_converged(info, "dstebz")
    return m


def _sturm_levels(p, k):
    """The k lowest eps = E + p.shift of the tridiagonal pencil p, ascending,
    bisected on Sturm counts to a relative width 2 eps.

    The bracket comes from the counts: it doubles out from the scale of m
    until no level lies below its lower end and k levels below its upper
    end.  Each count narrows the brackets of every level still open.
    """
    lo = -max(1.0, float(np.max(np.abs(p.m))))
    while _sturm_count(p, lo) > 0:
        lo *= 2
    hi = -lo
    while _sturm_count(p, hi) < k:
        hi *= 2
    # count(los[i]) <= i < count(his[i]) for every level i
    los, his = [lo] * k, [hi] * k
    for j in range(k):
        a, b = los[j], his[j]
        while b - a > 2 * _EPS * max(abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            n = _sturm_count(p, mid)
            if n > j:
                b = mid
                for i in range(j + 1, min(n, k)):
                    his[i] = min(his[i], mid)
            else:
                a = mid
            for i in range(max(n, j + 1), k):
                los[i] = max(los[i], mid)
        los[j] = 0.5 * (a + b)
    return np.array(los)


def _tridiagonal_lowest(p, k):
    """The k lowest levels of the tridiagonal pencil p, ascending (k <= N)."""
    N = len(p.m)
    if N == 1:
        return p.m / p.s - p.shift
    if np.all(p.m > 0):
        # mu = 1/eps: the k largest eigenvalues of M^{-1/2} S M^{-1/2}
        r = 1 / np.sqrt(p.m)
        d, e = p.s * r * r, p.t * r[1:] * r[:-1]
        _, mu, _, _, info = dstebz(d, e, 2, 0.0, 0.0, N - k + 1, N, _BISECT_TOL, "E")
        _check_converged(info, "dstebz")
        return 1 / mu[k - 1::-1] - p.shift
    return _sturm_levels(p, k) - p.shift


def lowest_eigenvalues(p, k):
    """The min(k, N) lowest eigenvalues of the pencil, ascending.

    No eigenvectors are formed.  A TridiagonalPencil is solved as it
    stands, O(N) per bisection step (see the module notes).  Any other
    pencil is tridiagonalised once and its levels come from Sturm-sequence
    bisection on T (dstebz), O(N k); it emits the same warning as
    solve_pencil when the squared Cholesky pivot ratio of S, a lower bound
    on its condition number, exceeds 1e12.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(p, TridiagonalPencil):
        return _tridiagonal_lowest(p, min(k, len(p.m)))
    _, _, d, e, _ = _tridiagonalize(p)
    N = len(d)
    if N == 1:
        return d
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, min(k, N), _BISECT_TOL, "E")
    _check_converged(info, "dstebz")
    return w[:min(m, k)]
