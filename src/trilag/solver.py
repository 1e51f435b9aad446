"""End-to-end bound-state computation and the convergence strategy.

Assembles H = H0 + V for a potential family, solves the generalized
eigenproblem, extracts bound states, scans the basis scale lam for the
stability plateau, tracks convergence in the basis size N, and brackets
the critical screening where a level detaches into the continuum.

A basis that leaves its index nu out is solved at the potential's natural
index (Potential.natural_nu), and the result records the index used.  Where
the potential's matrix is diagonal there (the Kratzer well), lambda_scan and
converge_in_n hand the eigen layer the tridiagonal pencil H0 + V itself,
and each of its solves starts from the levels of the solve before.

bound_states takes eigenvectors for its bound levels, which only its
truncation guard reads (MRRR on the tridiagonal form, the reflectors and
L^{-T} applied to them).  spectrum is the same solve with none of that:
its eigenvalues are bound_states' energies bit for bit, and a caller that
prints levels alone, like `trilag table`, pays one reduction, one dsytrd
and one dsterf.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import BasisSpec, _add_h0, _add_tridiagonal, _bands, _overlap_factor
from .eigen import TridiagonalPencil, count_below, lowest_eigenvalues, solve_pencil
from .potentials import Potential, YukawaParams

__all__ = [
    "SpectrumResult",
    "PlateauReport",
    "ConvergenceTable",
    "bound_states",
    "spectrum",
    "kratzer_exact",
    "lambda_scan",
    "converge_in_n",
    "critical_screening",
]

# eigenvalues this close to zero are reported as unresolved, not bound
ZERO_BAND = 1e-12

# levels with more than half their norm in this many trailing coefficients
# are truncation artifacts, not converged states
GUARD_TAIL = 10
GUARD_FRACTION = 0.5


@dataclass(frozen=True)
class SpectrumResult:
    """Pencil spectrum with the bound (E < 0) subsequence flagged."""

    energies: np.ndarray
    bound: np.ndarray
    basis: BasisSpec  # with the index nu the solve used
    potential: Potential
    suspect: tuple    # indices of bound levels flagged as truncation artifacts
    unresolved: tuple # indices within ZERO_BAND of zero


def _tail_fractions(F, nu):
    """Share of each column's norm in the last GUARD_TAIL coefficients of
    Y = L^T F, where S = L L^T is the overlap."""
    c = _overlap_factor(F.shape[0], nu)
    Y = c[0, :, None] * F
    Y[:-1] += c[1, :-1, None] * F[1:]
    return np.sum(Y[-GUARD_TAIL:] ** 2, axis=0) / np.sum(Y ** 2, axis=0)


class _BasisPencil:
    """The pencil (H, S) of a potential in the basis, for one solve.

    S is never formed: the solve takes its Cholesky factor in closed form,
    and a count adds -sigma times its three bands into H.  H is reduced or
    shifted in its own buffer, so a second solve or count raises.
    """

    def __init__(self, h, basis):
        self.h = h
        self.basis = basis

    def _take_h(self):
        if self.h is None:
            raise ValueError("this pencil was already solved or counted: its H is reduced or "
                             "shifted in place")
        h, self.h = self.h, None
        return h

    def _operands(self):
        return _overlap_factor(self.basis.size, self.basis.nu), self._take_h()

    def _shifted(self, sigma):
        diag, off = _bands(self.basis)
        # S has the bands (diag, -off)
        return _add_tridiagonal(self._take_h(), -sigma * diag, sigma * off)


def _pencil(potential, basis):
    """The pencil (H0 + V, S) of the potential in the basis: H0's three bands
    are added into the fresh potential matrix in place."""
    return _BasisPencil(_add_h0(potential.matrix(basis), basis), basis)


def _resolve(potential, basis):
    """The basis with its index: the caller's nu, else the potential's natural one."""
    return basis if basis.nu_given else basis.with_nu(potential.natural_nu(basis.ell))


def _lowest(potential, basis, k, start=None):
    """The k lowest levels of the potential in the basis, for the drivers.

    A dense pencil takes the same solve as bound_states (eigen.solve_pencil),
    so its levels are bound_states' energies[:k] bit for bit.  A diagonal
    potential matrix v makes the pencil tridiagonal: H0's bands are
    c (2 s - S) with c = lam^2/8 and s the diagonal of S, so
    H0 + diag(v) = diag(2 c s + v) - c S, and no dense matrix is formed.
    Such a pencil starts from the levels start of the previous solve, when
    given (eigen.lowest_eigenvalues); a dense pencil ignores it.
    """
    v = potential.diagonal(basis)
    if v is None:
        p = _pencil(potential, basis)
    else:
        s, t = _bands(basis)
        c = basis.lam ** 2 / 8.0
        p = TridiagonalPencil(2 * c * s + v, c, s, -t)
    return lowest_eigenvalues(p, k, start)


def _require_count(k):
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be an integer >= 1, got %r" % (k,))


def _require_tolerance(name, value):
    # a NaN tolerance compares false everywhere: no plateau, nothing converged
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("%s must be finite and >= 0, got %r" % (name, value))


def _continued(potential, bases, k):
    """The k lowest levels in each basis in turn, one row each: every solve
    starts from the levels of the one before."""
    rows, start = [], None
    for basis in bases:
        start = _lowest(potential, basis, k, start)
        rows.append(start)
    return np.array(rows)


def bound_states(potential, basis):
    """Assemble H = H0 + V and solve; negative eigenvalues are bound states.

    Eigenvectors are inspected for the truncation-artifact guard: a level
    whose S-normalized coefficient vector has more than half its norm in
    the last GUARD_TAIL coefficients is flagged suspect.
    """
    basis = _resolve(potential, basis)
    # vectors only for the bound levels, which are the first columns
    w, F = solve_pencil(_pencil(potential, basis), eigvecs=True, below=-ZERO_BAND)
    unresolved = tuple(i for i, e in enumerate(w) if abs(e) <= ZERO_BAND)
    suspect = ()
    if basis.size > GUARD_TAIL:
        suspect = tuple(np.flatnonzero(_tail_fractions(F, basis.nu) > GUARD_FRACTION).tolist())
    return SpectrumResult(
        energies=w,
        bound=w[:F.shape[1]].copy(),
        basis=basis,
        potential=potential,
        suspect=suspect,
        unresolved=unresolved,
    )


def spectrum(potential, basis):
    """Ascending eigenvalues of H = H0 + V, with no eigenvector and no
    truncation guard: bound_states(potential, basis).energies, bit for bit,
    by the same solve (eigen.solve_pencil) at the same resolved index."""
    return solve_pencil(_pencil(potential, _resolve(potential, basis)))


def kratzer_exact(coulomb, b, ell, n):
    """Exact Kratzer level E_n = -coulomb^2 / (2 (n + 1/2 + sqrt(b + ell^2))^2)."""
    if not (math.isfinite(coulomb) and math.isfinite(b)):
        raise ValueError("coulomb and b must be finite, got %r and %r" % (coulomb, b))
    if not isinstance(ell, numbers.Integral):
        raise ValueError("angular momentum ell must be an integer, got %r" % (ell,))
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError("level index n must be an integer >= 0, got %r" % (n,))
    if b + ell * ell <= 0:
        raise ValueError("kratzer_exact requires b + ell^2 > 0")
    return -coulomb ** 2 / (2.0 * (n + 0.5 + math.sqrt(b + ell * ell)) ** 2)


@dataclass(frozen=True)
class PlateauReport:
    """Eigenvalue traces over a lam grid with the detected stability window."""

    grid: np.ndarray
    traces: np.ndarray           # shape (len(grid), k), lowest eigenvalues
    plateau: Optional[tuple]     # (lam_lo, lam_hi) or None
    spread: Optional[np.ndarray] # per-level relative spread inside the plateau
    tol_rel: float


def _spread(lo, hi):
    """Per-level relative variation between per-level extremes lo and hi."""
    scale = np.maximum(np.abs(lo), np.abs(hi))
    return (hi - lo) / np.where(scale > 0, scale, 1.0)


def _plateau(traces, tol_rel):
    """(a, b), the first and last row of the widest window of at least 5
    rows of traces where every level is bound and varies by at most tol_rel
    relative, ties going to the smaller a; or None.

    For each start a, the running extremes over traces[a:] give the spread
    of every window from a at once.
    """
    usable = np.all(traces < -ZERO_BAND, axis=1)
    best, widest = None, 3  # a window spans at least 5 rows
    for a in range(len(traces)):
        # windows from a end before its first unusable row, and beat the
        # best only if they end past a + widest
        end = a + int(np.argmin(np.append(usable[a:], False)))
        if end - 1 - a <= widest:
            continue
        block = traces[a:end]
        spread = _spread(np.minimum.accumulate(block), np.maximum.accumulate(block))
        ok = np.flatnonzero(np.max(spread, axis=1) <= tol_rel)
        if len(ok) and ok[-1] > widest:
            widest = int(ok[-1])
            best = (a, a + widest)
    return best


def lambda_scan(potential, basis, grid, k, tol_rel=1e-9, threads=None):
    """Track the k lowest levels over a lam grid and find the plateau.

    The plateau is the widest contiguous window of at least 5 grid points
    where all k tracked levels are bound and each varies by at most
    tol_rel relative; ties go to the window starting at smaller lam.
    Absence of a plateau is a normal outcome, not an error.

    Each grid point takes only the k lowest eigenvalues, with no truncation
    guard.  A dense pencil's are bound_states' energies[:k] for the same
    basis, bit for bit.  For the Kratzer well at its natural index the
    pencil is tridiagonal, with no dense matrix, and the scan continues
    along the grid: each solve starts from the levels of the point before
    (eigen.lowest_eigenvalues), so a tridiagonal scan is one ordered run,
    whatever threads says.  With threads > 1 the points of a dense pencil,
    which stay independent, are solved on a thread pool.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 5:
        raise ValueError("lam grid must have at least 5 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("lam grid must be strictly ascending")
    _require_count(k)
    if k > basis.size:
        raise ValueError("k = %d levels exceed the basis size N = %d" % (k, basis.size))
    _require_tolerance("tol_rel", tol_rel)

    basis = _resolve(potential, basis)
    if threads is not None and threads > 1 and potential.diagonal(basis) is None:
        # imported here: no CLI command scans on threads
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            traces = np.array(list(pool.map(
                lambda lam: _lowest(potential, basis.with_lam(lam), k), grid)))
    else:
        traces = _continued(potential, (basis.with_lam(lam) for lam in grid), k)

    window = _plateau(traces, tol_rel)
    if window is None:
        return PlateauReport(grid=grid, traces=traces, plateau=None, spread=None,
                             tol_rel=tol_rel)
    a, b = window
    block = traces[a:b + 1]
    return PlateauReport(
        grid=grid,
        traces=traces,
        plateau=(float(grid[a]), float(grid[b])),
        spread=_spread(block.min(axis=0), block.max(axis=0)),
        tol_rel=tol_rel,
    )


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-level eigenvalue traces over basis sizes."""

    n_grid: tuple
    traces: np.ndarray   # shape (len(n_grid), k)
    converged: np.ndarray  # per level: last two sizes agree within tol
    tol: float


def converge_in_n(potential, basis, n_grid, k, tol=1e-12):
    """Traces of the k lowest eigenvalues as the basis size grows through n_grid.

    Like lambda_scan, each tridiagonal solve starts from the levels of the
    size before.
    """
    n_grid = tuple(n_grid)
    if not all(isinstance(N, numbers.Integral) for N in n_grid):
        raise ValueError("n_grid must hold integer basis sizes, got %r" % (n_grid,))
    n_grid = tuple(int(N) for N in n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one basis size")
    _require_count(k)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    if k > n_grid[0]:
        raise ValueError("k = %d levels exceed the smallest basis size %d" % (k, n_grid[0]))
    _require_tolerance("tol", tol)
    basis = _resolve(potential, basis)
    traces = _continued(potential, (basis.with_size(N) for N in n_grid), k)
    if len(n_grid) >= 2:
        converged = np.abs(traces[-1] - traces[-2]) <= tol
    else:
        converged = np.zeros(k, dtype=bool)
    return ConvergenceTable(n_grid=n_grid, traces=traces, converged=converged, tol=tol)


def critical_screening(p, ell, level, bracket, tol=1e-4, basis=None):
    """Bisect the screening delta at which the given level detaches, for a
    screened Yukawa well p (YukawaParams; its with_screening sets delta).

    The result is the detachment point in the truncated basis, not the
    converged one.  At fixed lam the bases are nested, so each truncated
    level can only fall as N grows (Cauchy interlacing): the truncated
    critical delta rises with N and bounds the converged one from below.
    At the default basis (N = 100, lam = 1) the second s-state of the
    cosine well reads 0.32096, against 0.32324 at N = 400.

    The predicate is that level `level` lies below -ZERO_BAND, which is
    the same as more than `level` levels being bound: one count of the
    levels below -ZERO_BAND a step (eigen.count_below, the inertia of
    H + ZERO_BAND S), with no eigenvalue computed.  Requires the level
    bound at the lower bracket end and unbound at the upper end.  The
    bisection stops at width tol, or where the bracket has no float
    between its ends.

    A step is one assembly and one count.  For the cosine and sine wells
    the assembly reads the Gauss rule's cached Laguerre table, so only the
    first step of a bisection runs the extended-precision recurrence; every
    step builds the connection matrix at its own screening, in float64, and
    takes float64 BLAS products.  At N=100 (x86_64, 2 vCPU, one BLAS thread,
    medians of 210) a step takes about 0.45 ms, of which the assembly is
    0.34 ms.
    """
    if not isinstance(p, YukawaParams):
        raise ValueError("critical_screening needs a screened Yukawa well (YukawaParams), "
                         "got %s" % type(p).__name__)
    if not isinstance(level, numbers.Integral) or level < 0:
        raise ValueError("level must be an integer >= 0, got %r" % (level,))
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be > 0 and finite, got %r" % (tol,))
    if basis is None:
        basis = BasisSpec(lam=1.0, ell=ell, size=100)
    elif abs(basis.ell) != abs(ell):
        raise ValueError("basis.ell = %r does not match ell = %r" % (basis.ell, ell))
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def is_bound(delta):
        return count_below(_pencil(p.with_screening(delta), basis), -ZERO_BAND) > level

    if not is_bound(lo):
        raise ValueError("level %d is not bound at the lower bracket end" % level)
    if is_bound(hi):
        raise ValueError("level %d is still bound at the upper bracket end" % level)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if is_bound(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
