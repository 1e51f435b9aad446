"""Generalized Gauss-Laguerre rules and the numerical potential-matrix oracle.

The rule with weight x^nu e^{-x} starts from the float64 eigenvalues (no
eigenvectors) of the symmetric Jacobi matrix of the Laguerre recurrence
(Golub & Welsch, Math. Comp. 23, 1969), from LAPACK's dsterf: the bits of
scipy.linalg.eigh_tridiagonal(..., eigvals_only=True), whose dstevd calls
dsterf, and order 1's node is nu + 1.  That start is good to ~1e-12
relative, so one extended-precision Newton step polishes the nodes to the
~1e-15 floor at which the recurrence evaluates p_order; a second step only
adds that noise.  The build keeps the last two rows of the tables'
recurrence (specfun._laguerre_rows, p_n orthonormal), started at node x at
the exact power of two 2^-s, s = rint(x/(4 ln 2)): p_order is about e^{x/2},
so every row stays within about e^{+-x/4} and none is rescaled.  Rules are
finite through order 11000 at nu = 0 (largest node ~44000, longdouble
reaching e^{+-11356}); a non-finite one raises ValueError.  The Newton step
takes x p' = order p_order - sqrt(order (order+nu)) p_{order-1}, p' is
carried across it by the Laguerre equation x p'' = (x-nu-1) p' - order p
(an error second order in the step), and w = 1/(x p'^2):

    ln w_i = lgamma(nu+1) - ln x_i - 2 (ln|p~'_i| + s_i ln 2)

with p~' the derivative of the scaled rows: no pass for p_{order+1}, no
scipy.special.  Eigenvector-based weights would lose all relative accuracy
in the far tail.  Against a 40-digit reference at eleven nodes spread over
the rule (nu = 0) the log-weights are good to 3.6e-15 at order 450, 5.8e-15
at 850, 9.0e-15 at 1200 and 2.3e-14 at 1700, every weight positive (those
of L_{order+1} read 1.5e-12 at 450).  At order 450, nu = 0.449 the smallest nodes are good
to 7.6e-16 and the log-weights to 3.5e-15, as every recurrence coefficient
is formed in longdouble (2n+nu+1 in float64 cost 6.3e-13 and 5.4e-12).

The polished nodes are kept in extended precision, the rule's only copy:
a float64 one lies up to half an ulp from the node its weight belongs to,
which would put the Morse oracle at order 450 3.7e-12 off, not 3.0e-13.

A rule assembles a potential matrix as one signed Gram product
V = Q+ Q+^T - Q- Q-^T (Heller & Yamani, Phys. Rev. A 9, 1201 (1974)), Q
holding sqrt|f| times the orthonormal Laguerre functions at the nodes, in
the sign order of the integrand factor f.  The oracle quad_potential_matrix
folds sqrt|f| into the start of the extended-precision recurrence
(_laguerre_table, _gauss_matrix); the cosine and sine Yukawa wells
(potentials) read the rule's own table sqrt(w_i) p_n(x_i), which depends on
nothing but (order, nu, size) and is kept in the rule cache (_rule_table).
The oracle's rule has the weight x^rho e^{-x} with rho = weight_nu mod 1,
the integer part of weight_nu staying in the integrand as a polynomial
factor: at one order every integer weight_nu reads the rule at nu = 0,
whose exactness degree 2 order - 1 is then shared with that factor
(2 order - 1 - floor(weight_nu) for the rest of the integrand).  The wells'
table must stay orthonormal under its rule (Q1 Q1^T = I), so it keeps the
rule at the basis's own nu.
Each table has its entries below 2^-511 zeroed, which moves the oracle's
V_nm by at most 2^-511 sqrt(order) (|Q_n| + |Q_m|) + order 2^-1022, where
|Q_n|^2 = sum_i w_i |f_i| p_n(x_i)^2; _gram, the package's one Gram
kernel, then forms no subnormal product.
"""

import math
import numbers
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._lapack import blas, lapack
from .specfun import _laguerre_rows

dsterf = lapack.dsterf
dsyrk = blas.dsyrk

__all__ = ["QuadRule", "gauss_laguerre_rule", "quad_potential_matrix"]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and log-weights of a Gauss rule for the weight x^nu e^{-x} on (0, inf).

    sum_i exp(log_weights[i]) f(nodes[i]) integrates f against the weight.
    """

    order: int
    nu: float
    nodes: np.ndarray        # longdouble, strictly increasing, > 0
    log_weights: np.ndarray  # longdouble, ln(w_i); every w_i > 0


# The assembly kernels' floor: a product of two entries of at least 2^-511
# is a normal float64 (the module notes bound what it drops)
_FLOOR_EXP = -511
_FLOOR = 2.0 ** _FLOOR_EXP

# columns a mirror step copies; _UPPER masks a diagonal block's strict upper part
_MIRROR_BLOCK = 64
_UPPER = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), 1)


def _symmetrize(M):
    """Mirror the lower triangle of M into its upper one, in place; returns M.

    One block of _MIRROR_BLOCK columns a step: a masked copy within the
    diagonal block, one transposed copy of the strip below it.  Entries are
    only copied, so the result keeps the lower triangle's bits, signed zeros
    included.
    """
    N = M.shape[0]
    for j in range(0, N, _MIRROR_BLOCK):
        e = min(j + _MIRROR_BLOCK, N)
        D = M[j:e, j:e]
        np.copyto(D, D.T, where=_UPPER[:e - j, :e - j])
        M[j:e, e:] = M[e:, j:e].T
    return M


def _laguerre_table(N, nu, x, start):
    """Rows n < N of the orthonormal Laguerre recurrence at the longdouble
    nodes x, started from the row start: Q_ni = start_i p_n(x_i) / p_0, as
    a float64 Fortran-ordered (N, len(x)) array.

    p_n = sqrt(n!/Gamma(n+nu+1)) L_n^nu are the Laguerre polynomials
    orthonormal under x^nu e^{-x}; the recurrence runs in longdouble and
    each row is cast as it is stored.  Entries below _FLOOR in size are
    zeroed.
    """
    Q = np.empty((N, x.size), order="F")
    for n, row in enumerate(_laguerre_rows(N, nu, x, start)):
        Q[n] = row
    np.copyto(Q, 0, where=(Q > -_FLOOR) & (Q < _FLOOR))
    return Q


def _gram(terms):
    """sum_k alpha_k F_k F_k^T over an iterable of pairs (alpha_k, F_k),
    Fortran-ordered float64 factors with one row count: one lower dsyrk a
    factor with columns into one buffer, then one mirror.  Each factor is
    released after its dsyrk, so a generator of terms holds one at a time.

    scipy's BLAS, not numpy's matmul: the pencil solve runs on scipy's
    LAPACK, and switching between the two thread pools costs more than the
    product (about 7 ms per N=100 solve on two cores).
    """
    V = None
    for alpha, F in terms:
        if F.shape[1]:
            V = dsyrk(alpha, F, beta=0.0 if V is None else 1.0, c=V, lower=1, overwrite_c=1)
        del F
    return _symmetrize(V)


def _gauss_matrix(N, nu, x, log_w, f):
    """V_nm = sum_i w_i f_i p_n(x_i) p_m(x_i) for n, m < N, in float64.

    x, log_w (longdouble) and f are the nodes, log-weights and integrand
    factor of a rule for the weight x^nu e^{-x}.  The table
    Q_ni = sqrt(w_i |f_i|) p_n(x_i) (_laguerre_table) has the nodes where
    f >= 0 first, so V = Q+ Q+^T - Q- Q-^T is one _gram on its two column
    blocks, and no weighted copy of the table is made.
    """
    by_sign = np.argsort(f < 0, kind="stable")
    n_pos = int(np.count_nonzero(f >= 0))
    start = np.sqrt(np.abs(f[by_sign])) * np.exp(0.5 * (log_w[by_sign] - math.lgamma(nu + 1.0)))
    Q = _laguerre_table(N, nu, x[by_sign], start)
    return _gram(((1.0, Q[:, :n_pos]), (-1.0, Q[:, n_pos:])))


_rule_cache = {}
_rule_lock = threading.Lock()


def gauss_laguerre_rule(order, nu):
    """Gauss rule of the given order for the weight x^nu e^{-x}.

    The float64 eigenvalues of the Jacobi matrix (dsterf) start one
    extended-precision Newton step on p_order; the weights are evaluated at
    the polished nodes.  A rule that comes out non-finite (order above
    about 11000) raises ValueError.  Results are cached per (order, nu) with nu keyed by
    its exact bits; the cache is safe under concurrent lookup.
    """
    if not isinstance(order, numbers.Integral) or order < 1:
        raise ValueError("quadrature order must be an integer >= 1, got %r" % (order,))
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError("weight exponent nu must be finite and >= 0, got %r" % (nu,))
    key = (int(order), float(nu).hex())
    with _rule_lock:
        hit = _rule_cache.get(key)
    if hit is not None:
        return hit

    i = np.arange(order)
    x = 2 * i + nu + 1.0
    # order 1's node is its one diagonal entry: the f2py dsterf rejects the
    # empty off-diagonal
    if order > 1:
        x, info = dsterf(x, np.sqrt(i[1:] * (i[1:] + nu)))
        if info != 0:
            raise np.linalg.LinAlgError("dsterf failed with info %d" % info)
    x = x.astype(np.longdouble)
    # a rule past the longdouble range overflows here: the ValueError below
    # is its one report
    with np.errstate(over="ignore", invalid="ignore"):
        # rows from 2^-s, and x p' and x p'' as in the module notes
        s = np.rint(x / (4 * math.log(2))).astype(int)
        prev, cur = deque(_laguerre_rows(order + 1, nu, x, np.ldexp(np.ones_like(x), -s)), maxlen=2)
        d1 = (order * cur - np.sqrt(order * (order + np.longdouble(nu))) * prev) / x
        d2 = ((x - nu - 1) * d1 - order * cur) / x
        step = cur / d1
        x = x - step
        # p' at the polished node, with an error second order in the step
        # (~1e-24 relative; a p''' term would move no log-weight)
        deriv = d1 - step * d2
        # _gauss_matrix and _rule_table subtract the same lgamma(nu+1)
        log_w = math.lgamma(nu + 1.0) - np.log(x) - 2 * (np.log(np.abs(deriv)) + s * np.log(np.longdouble(2)))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(log_w))):
        raise ValueError("Gauss-Laguerre rule of order %d at nu = %r is not finite" % (order, nu))
    rule = QuadRule(order=int(order), nu=float(nu), nodes=x, log_weights=log_w)
    with _rule_lock:
        _rule_cache[key] = rule
    return rule


def _rule_table(rule, N):
    """Q1_ni = sqrt(w_i) p_n(x_i) for n < N on the rule's own nodes, float64,
    Fortran-ordered, read-only and floored (_laguerre_table).

    The table depends on nothing but (order, nu, N), so it is built once
    and kept in the rule cache under (order, nu bits, N): clearing the
    cache drops it with the rules.
    """
    key = (rule.order, rule.nu.hex(), int(N))
    with _rule_lock:
        hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    start = np.exp(0.5 * (rule.log_weights - math.lgamma(rule.nu + 1.0)))
    Q = _laguerre_table(N, rule.nu, rule.nodes, start)
    Q.flags.writeable = False
    with _rule_lock:
        _rule_cache[key] = Q
    return Q


def quad_potential_matrix(v, basis, order=None, weight_nu=None):
    """Full size x size numerical potential matrix <phi_n| v |phi_m>.

    v is the radial potential r -> v(r).  The basis functions contribute
    x^{2 alpha} e^{-x} L_n L_m, and weight_nu (default nu, finite and >= 0,
    else ValueError) is the power of x the integrand's weight takes.  For
    potentials with an integrable power singularity at the origin, pass a
    lowered weight_nu so the singular factor is absorbed into the weight and
    the remaining integrand is smooth (e.g. weight_nu = nu - 1 for a 1/r^2
    term).  The rule itself has the weight x^rho e^{-x}, rho = weight_nu
    mod 1: the integer part of weight_nu is a polynomial factor of the
    integrand, so every integer weight_nu at one order reads one cached
    rule.  The basis norms turn the element integrand into
    w_i x_i^{nu - rho} f_i p_n(x_i) p_m(x_i), with f = x v(x/lam)
    (2 alpha - nu = 1) and p_n the orthonormal Laguerre polynomials, so the
    matrix is one Gauss product _gauss_matrix: O(order * size) recurrence
    steps in extended precision and a float64 product of O(order * size^2 / 2).

    The integrands are weight times an entire function, so the Gauss error
    decays geometrically.  A rule of the given order integrates a polynomial
    part of the integrand up to degree 2 order - 1 - floor(weight_nu)
    exactly: floor(weight_nu) degrees go to the power its weight leaves to
    the integrand.  The default order, at least 300, is the degree 2 size - 2
    of the last element's polynomial part plus a margin nu + 50, whose nu
    covers that power and whose 50 is for slowly decaying exponents.  A
    potential that is not finite at some node raises ValueError naming that
    node.
    """
    N, nu = basis.size, basis.nu
    if order is None:
        order = max(300, int(2 * N + nu + 48))
    if weight_nu is None:
        weight_nu = nu
    # checked before the reduction: fmod(-1.0, 1.0) is -0.0, which a rule accepts
    if not (math.isfinite(weight_nu) and weight_nu >= 0):
        raise ValueError("weight exponent weight_nu must be finite and >= 0, got %r" % (weight_nu,))
    rule = gauss_laguerre_rule(order, math.fmod(weight_nu, 1.0))
    x = rule.nodes
    vals = np.asarray(v(x / basis.lam))
    if not np.all(np.isfinite(vals.astype(float))):
        bad = int(np.argmin(np.isfinite(vals.astype(float))))
        raise ValueError(
            "potential evaluated non-finite at quadrature node x=%r (r=%r)"
            % (float(x[bad]), float(x[bad] / basis.lam))
        )
    f = x * vals
    return _gauss_matrix(N, nu, x, rule.log_weights + (nu - rule.nu) * np.log(x), f)
