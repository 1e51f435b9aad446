"""Symmetric-definite generalized eigenproblem H f = E S f.

The overlap is reduced away through its Cholesky factor: with S = L L^T the
pencil becomes the standard symmetric problem A = L^{-1} H L^{-T}, whose
eigenvalues are the pencil eigenvalues and whose eigenvectors map back to
S-orthonormal pencil eigenvectors through L^{-T}.

The factor is taken in LAPACK band storage, from the pencil
(solve_pencil asks it for the factor and an H to reduce in place).  A
Pencil's factor is computed from its s by dpbtrf, and its h is copied: L
has the lower bandwidth kd of S (the farthest nonzero subdiagonal), so the
factorisation costs O(N kd^2).  The solver's own pencils (solver._pencil)
never form S: the basis overlap is tridiagonal, its factor is lower
bidiagonal in closed form (basis._overlap_factor), and their H, built for
the one solve, is reduced in its own buffer.  For a bidiagonal factor
(kd = 1) L^{-1} is rank-one below the diagonal, L^{-1}[n, m] = u_n v_m for
m <= n (a semiseparable matrix; Vandebril, Van Barel & Mastronardi, Matrix
Computations and Semiseparable Matrices, 2008).  Then
A[i, j] = u_i u_j sum_{n <= i, m <= j} v_n v_m H[n, m] is two prefix sums
over one N x N buffer, O(N^2).  Every other factor (kd != 1, a zero
subdiagonal, or generators past the float64 range) takes two triangular
band solves against N right-hand sides, O(N^2 kd); a dense S is simply the
kd = N - 1 case.

A is then tridiagonalised once (dsytrd, Q^T A Q = T, 4N^3/3 flops), the
one cubic step every dense solve pays, and dsterf gives every eigenvalue of
T, O(N^2).  That is the one route from a dense pencil to its levels:
lowest_eigenvalues takes the k lowest of them, so a level of lambda_scan or
converge_in_n is the same float as bound_states' of the same basis.
Eigenvectors, when asked for, are taken for the k levels below `below`
only (every level by default): MRRR (dstemr) on T, the reflectors of Q
applied to those k columns (dormqr, 2N^2 k) and L^{-T} to the same k
columns, as LAPACK's own subset routines do, so a caller that inspects
only the bound levels pays O(N^2 k) beyond the reduction instead of
another two cubic steps.

A TridiagonalPencil needs no reduction at all, and lowest_eigenvalues
solves it as it stands (solve_pencil does not take it).  It is H = M - c S
with M diagonal and S tridiagonal, the basis pencil of any potential whose
matrix is diagonal (the Kratzer well at its natural basis index, a J-matrix
pencil: Heller & Yamani, Phys. Rev. A 9, 1201 (1974)).  With eps = E + c it
reads M f = eps S f.  By Sylvester's
law of inertia (S is positive definite, which the pencil checks with
dpttrf) the number of negative eigenvalues of T(eps) = M - eps S is the
number of levels below eps: a Sturm count, which dstebz with a value range
and no refinement returns in O(N).  Rayleigh-quotient iteration on the
pencil (one dgtsv solve of M - sigma S and a tridiagonal S product a step,
O(N); Parlett, The Symmetric Eigenvalue Problem, ch. 4) finds a level, and
two counts certify it as level j within 4 eps relative:
count(eps - delta) <= j < count(eps + delta) with delta = 4 eps |eps|.

The levels are taken one at a time in one loop.  A driver that solves a
sequence of nearby pencils (a scan in lam, a growing basis) hands each
solve the levels of the one before as a guess, and level j first iterates
from guess[j]: one or two O(N) steps and the two counts.  A level with no
guess, or whose guess fails (no convergence within _RQI_STEPS, a non-finite
quotient, a failed certificate), is isolated instead: bisection on counts
shared by every level still open stops once a bracket (a, b] holds it
alone, about seven counts; the iteration finishes it inside (a, b], and a
level that fails the certificate there is bisected to its last bits.  A
failed guess thus costs only its own level.  Neither route forms a dense
matrix or calls dsytrd.

A count asks no eigenvalue at all: count_below, the number of levels
below sigma, which is the number of negative eigenvalues of H - sigma S
(Sylvester again).  A dense pencil reads it from the block-diagonal D of
the Bunch-Kaufman factorisation H - sigma S = L D L^T (dsytrf, N^3/3 flops;
Bunch & Kaufman, Math. Comp. 31, 1977), with no Cholesky factor, reduction
or dsytrd; a TridiagonalPencil takes one Sturm count.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import (
    dgtsv,
    dormqr,
    dpbtrf,
    dpttrf,
    dstebz,
    dstemr,
    dstemr_lwork,
    dsterf,
    dsytrd,
    dsytrd_lwork,
    dsytrf,
    dsytrf_lwork,
    dtbtrs,
)

__all__ = ["Pencil", "TridiagonalPencil", "NotPositiveDefiniteError", "count_below",
           "lowest_eigenvalues", "solve_pencil"]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky pivot failure; `pivot` is the 0-based index that failed."""

    def __init__(self, pivot):
        self.pivot = int(pivot)
        super().__init__(
            "matrix is not positive definite: pivot %d is not positive" % self.pivot
        )


@dataclass(frozen=True)
class Pencil:
    """Hamiltonian/overlap pair defining H f = E S f: finite, exactly
    symmetric N x N matrices, N >= 1 (a solve reads each as symmetric)."""

    h: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.s.shape or self.h.ndim != 2 or self.h.shape[0] != self.h.shape[1]:
            raise ValueError("pencil matrices must be square with equal shape")
        if self.h.size == 0:
            raise ValueError("a pencil needs at least one basis function, got 0 x 0 matrices")
        for name, m in (("h", self.h), ("s", self.s)):
            if not np.isfinite(m).all():
                raise ValueError("pencil matrix %s must be finite" % name)
            if not np.array_equal(m, m.T):
                raise ValueError("pencil matrix %s must be symmetric" % name)

    def _operands(self):
        """The band Cholesky factor of s, and a copy of h for the reduction
        to overwrite."""
        c = _band_cholesky(np.asarray(self.s, dtype=float))
        return c, np.array(self.h, dtype=float, order="C")

    def _shifted(self, sigma):
        """A fresh H - sigma S for count_below, after checking that s is
        positive definite (its band Cholesky factor), as a solve does."""
        s = np.asarray(self.s, dtype=float)
        _band_cholesky(s)
        return np.asarray(self.h, dtype=float) - sigma * s


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
        # the counts are levels only for a positive definite S (Sylvester).
        # dpttrf on S with a decoupled unit row appended, which leaves its
        # pivots as they are (scipy's wrapper rejects the empty t of N = 1)
        _, _, info = dpttrf(np.append(self.s, 1.0), np.append(self.t, 0.0))
        _check_info(info, "dpttrf")


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


def _reduce(c, h):
    """A = L^{-1} H L^{-T} for the band factor c of S, in the Fortran order
    dsytrd overwrites; only its lower triangle is guaranteed.

    The prefix sums run in h's own buffer, which must hold an exactly
    symmetric H (an F-ordered h is summed as its transpose).
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
    W = h if h.flags.c_contiguous else h.T
    W *= v
    W *= v[:, None]
    np.cumsum(W, axis=1, out=W)
    np.cumsum(W, axis=0, out=W)
    W *= u[:, None]
    W *= u
    return W.T


def solve_pencil(p, eigvecs=False, below=np.inf):
    """Ascending eigenvalues of the pencil, optionally with eigenvectors.

    With eigvecs, every eigenvalue is returned together with the
    eigenvectors of those below `below` (all of them by default), as
    ascending columns; there may be none.  They are S-orthonormal
    (f_i^T S f_j = delta_ij).  The pencil supplies the band Cholesky factor
    c of S and an H the reduction may overwrite (p._operands()).  Emits a
    warning when the squared ratio of the largest to the smallest Cholesky
    pivot, a lower bound on the 2-norm condition number of S, exceeds 1e12
    (accuracy of the reduction degrades); for the basis overlap it is
    (N+nu)/(nu+1), so it cannot fire there: at N = 400 it reads 400
    (nu = 0) and 134 (nu = 2) against a condition number of 4.3e5 and
    9.5e4.  A TridiagonalPencil is not taken: lowest_eigenvalues and
    count_below serve it.  below must not be NaN.
    """
    if isinstance(p, TridiagonalPencil):
        raise ValueError("solve_pencil takes a dense pencil; a TridiagonalPencil is solved "
                         "by lowest_eigenvalues and counted by count_below")
    if math.isnan(below):
        raise ValueError("below must not be NaN")
    c, h = p._operands()
    piv = np.abs(c[0])
    if (piv.max() / piv.min()) ** 2 > _COND_WARN:
        warnings.warn(
            "overlap matrix is badly conditioned (condition number at least "
            "%.2e); eigenvalues may lose accuracy" % float((piv.max() / piv.min()) ** 2),
            RuntimeWarning,
        )
    A = _reduce(c, h)
    # Q^T A Q = T, tridiagonal (d, e), from the lower triangle of A, with the
    # reflectors of Q stored below the subdiagonal of QT and their scalars tau
    N = A.shape[0]
    lwork, info = dsytrd_lwork(N, lower=1)
    _check_converged(info, "dsytrd_lwork")
    QT, d, e, tau, info = dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_converged(info, "dsytrd")
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


_HUGE = np.finfo(float).max
_EPS = np.finfo(float).eps


def _sturm_count(p, eps):
    """The number of levels of the tridiagonal pencil p with E + p.shift <= eps."""
    # an abstol wider than any interval: dstebz counts at the range ends and stops
    m, _, _, _, info = dstebz(p.m - eps * p.s, -eps * p.t, 1, -_HUGE, 0.0, 0, 0, _HUGE, "E")
    _check_converged(info, "dstebz")
    return m


def _s_times(p, x):
    """S x for the tridiagonal S of the pencil p."""
    y = p.s * x
    y[:-1] += p.t * x[1:]
    y[1:] += p.t * x[:-1]
    return y


def _rqi_step(p, sigma, x):
    """One Rayleigh-quotient step on M f = eps S f of the tridiagonal pencil
    p, from the shift sigma and the unit vector x.

    Solves (M - sigma S) y = S x (dgtsv) and returns the quotient
    y^T M y / y^T S y with y / ||y||.  The quotient is formed as
    sigma + y^T S x / y^T S y, equal since (M - sigma S) y = S x, so that
    its rounding is that of the correction alone.  A singular M - sigma S
    means sigma is a level: then (sigma, None).
    """
    off = -sigma * p.t
    sx = _s_times(p, x)
    _, _, _, y, info = dgtsv(off, p.m - sigma * p.s, off, sx[:, None])
    if info > 0:
        return sigma, None
    _check_converged(info, "dgtsv")
    y = y[:, 0]
    # y grows like 1/|sigma - level|; an overflow gives a NaN quotient,
    # which no bracket accepts
    with np.errstate(over="ignore", invalid="ignore"):
        return sigma + (y @ sx) / (y @ _s_times(p, y)), y / np.linalg.norm(y)


# Rayleigh-quotient iteration converges cubically: steps taken inside one
# bracket before a bisection step restarts it
_RQI_STEPS = 8


def _rayleigh(p, a, b, sigma, x):
    """Rayleigh-quotient iteration for the one level in (a, b], from the
    shift sigma and the unit vector x.

    Returns (level, x) once a step moves the quotient by at most 2 eps
    relative, or (None, x) as soon as a quotient leaves (a, b] or after
    _RQI_STEPS steps; x is the last iterate.
    """
    for _ in range(_RQI_STEPS):
        q, y = _rqi_step(p, sigma, x)
        if y is None:
            return sigma, x
        if not a < q <= b:
            return None, y
        if abs(q - sigma) <= 2 * _EPS * abs(q):
            return q, y
        sigma, x = q, y
    return None, x


def _certified(p, sigma, j):
    """Whether two Sturm counts place level j of the tridiagonal pencil p
    within 4 eps relative of eps = sigma: count(sigma - delta) <= j <
    count(sigma + delta) with delta = 4 eps |sigma|."""
    if not np.isfinite(sigma):
        return False
    delta = 4 * _EPS * abs(sigma)
    return _sturm_count(p, sigma - delta) <= j < _sturm_count(p, sigma + delta)


def _brackets(p, k):
    """Brackets [a, count(a), b, count(b)] of the k lowest eps = E + p.shift
    of the tridiagonal pencil p: each the same interval, which doubles out
    from the scale of m until no level lies below a and k lie below b."""
    lo = -max(1.0, float(np.max(np.abs(p.m))))
    while _sturm_count(p, lo) > 0:
        lo *= 2
    hi = -lo
    n_hi = _sturm_count(p, hi)
    while n_hi < k:
        hi *= 2
        n_hi = _sturm_count(p, hi)
    return [[lo, 0, hi, n_hi] for _ in range(k)]


def _tridiagonal_lowest(p, k, guess=None):
    """The k lowest levels of the tridiagonal pencil p, ascending (k <= N),
    one level at a time (see the module notes).

    With guess, the levels of a nearby pencil (ascending), level j first
    runs Rayleigh-quotient iteration from eps = guess[j] + p.shift, with no
    bracket beyond the float range, and is kept if certified.  Otherwise
    the shared brackets are bisected until level j's, (a, b], holds it
    alone (count(a) = j, count(b) = j + 1); a quotient that leaves (a, b]
    costs one more bisection step and a restart from the new midpoint, and
    a level that fails the certificate is bisected to a relative width
    2 eps.
    """
    N = len(p.m)
    if N == 1:
        return p.m / p.s - p.shift
    n_guess = 0 if guess is None else len(guess)
    brackets = None
    levels = np.empty(k)
    for j in range(k):
        x = np.full(N, N ** -0.5)
        if j < n_guess:
            sigma, _ = _rayleigh(p, -_HUGE, _HUGE, guess[j] + p.shift, x)
            if sigma is not None and _certified(p, sigma, j):
                levels[j] = sigma
                continue
        if brackets is None:
            brackets = _brackets(p, k)
        br, rqi = brackets[j], True
        while True:
            a, n_a, b, n_b = br
            mid = 0.5 * (a + b)
            if not (b - a > 2 * _EPS * max(abs(a), abs(b)) and a < mid < b):
                levels[j] = mid
                break
            if rqi and n_a == j and n_b == j + 1:
                sigma, x = _rayleigh(p, a, b, mid, x)
                if sigma is not None:
                    if _certified(p, sigma, j):
                        levels[j] = sigma
                        break
                    rqi = False
            n = _sturm_count(p, mid)
            for i in range(j, k):
                br_i = brackets[i]
                if n > i:
                    if mid < br_i[2]:
                        br_i[2:] = mid, n
                elif mid > br_i[0]:
                    br_i[:2] = mid, n
    return levels - p.shift


def _inertia(a):
    """The number of negative eigenvalues of the symmetric matrix a, read
    from the block-diagonal D of its Bunch-Kaufman factorisation
    a = L D L^T (dsytrf, lower); a is overwritten.

    A 1 x 1 block counts its sign.  A 2 x 2 block with a negative
    determinant holds one negative eigenvalue; otherwise both share the sign
    of its trace (one of them is zero at a zero determinant).  A zero pivot
    (info > 0: a is singular) is not negative.
    """
    N = a.shape[0]
    # symmetric: a C-ordered buffer's transpose is the same matrix in the
    # Fortran order dsytrf overwrites
    a = a.T if a.flags.c_contiguous else a
    lwork, info = dsytrf_lwork(N, lower=1)
    _check_converged(info, "dsytrf_lwork")
    ld, ipiv, info = dsytrf(a, lower=1, lwork=int(lwork), overwrite_a=1)
    if info < 0:
        raise ValueError("illegal argument %d to dsytrf" % -info)
    d = np.diagonal(ld)
    # both rows of a 2 x 2 block carry a negative ipiv, so the rows with
    # one pair up in order: every other one starts a block
    k = np.flatnonzero(ipiv < 0)[::2]
    alpha, beta, gamma = d[k], ld[k + 1, k], d[k + 1]
    det = alpha * gamma - beta * beta
    two = np.where(det < 0, 1, np.where(det > 0, 2, 1) * (alpha + gamma < 0))
    return int(np.count_nonzero(d[ipiv > 0] < 0) + two.sum())


def count_below(p, sigma):
    """The number of levels of the pencil below sigma.

    By Sylvester's law of inertia it is the number of negative eigenvalues
    of H - sigma S (S positive definite).  A TridiagonalPencil takes one
    Sturm count, O(N).  Any other pencil gives H - sigma S, and its
    Bunch-Kaufman factorisation (dsytrf, N^3/3 flops) gives the count
    (see the module notes); a Pencil first checks that s is positive
    definite, as a solve does.  Like a solve, a count consumes the
    solver's basis pencils, which form H - sigma S in their own H buffer.
    Where H - sigma S is exactly singular, the dense count leaves the level
    at sigma out and the Sturm count takes it in (dstebz counts a zero
    pivot as negative); a level within rounding of sigma can count either
    way.  sigma must be finite.
    """
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite, got %r" % (sigma,))
    if isinstance(p, TridiagonalPencil):
        return _sturm_count(p, sigma + p.shift)
    return _inertia(p._shifted(sigma))


def lowest_eigenvalues(p, k, guess=None):
    """The min(k, N) lowest eigenvalues of the pencil, ascending; k is an
    integer >= 1.

    A TridiagonalPencil is solved as it stands, with no eigenvector formed,
    O(N) per Sturm count or Rayleigh-quotient step, and each level with a
    guess (the ascending levels of a nearby pencil) is first sought from it
    (see the module notes).  Any other pencil ignores guess and takes the
    lowest k of solve_pencil(p), bit for bit.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be an integer >= 1, got %r" % (k,))
    if isinstance(p, TridiagonalPencil):
        return _tridiagonal_lowest(p, min(k, len(p.m)), guess)
    return solve_pencil(p)[:k]
