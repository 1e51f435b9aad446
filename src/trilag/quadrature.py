"""Generalized Gauss-Laguerre rules and the numerical matrix-element oracle.

The rule with weight x^nu e^{-x} is built from the symmetric Jacobi matrix
of the Laguerre recurrence, with nodes polished by two Newton steps in
extended precision.  Weights come from the derivative-free identity

    w_i = Gamma(order+nu+1) x_i / (order! (order+1)^2 L_{order+1}^nu(x_i)^2)

evaluated in log space with an overflow-scaled recurrence, because the
eigenvector-based weights lose all relative accuracy for the tiny weights
in the far tail.  Weights are stored in extended precision so every one of
them is positive and nonzero up to order ~600.

Besides the oracle, the rules assemble the cosine- and sine-screened Yukawa
matrices (potentials).  The extended-precision Gram product _lower_gram
serves the oracle only; the closed-form kernels in potentials are float64
BLAS products.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .specfun import laguerre_seq

__all__ = ["QuadRule", "gauss_laguerre_rule", "quad_matrix_element", "quad_potential_matrix"]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights integrating f against x^nu e^{-x} on (0, inf)."""

    order: int
    nu: float
    nodes: np.ndarray        # float64, strictly increasing, > 0
    weights: np.ndarray      # longdouble, all > 0
    log_weights: np.ndarray  # longdouble, ln(weights)

    def integrate(self, f_values):
        """Sum w_i f(x_i) for precomputed integrand values at the nodes."""
        return float(np.sum(self.weights * np.asarray(f_values, dtype=np.longdouble)))


# block width of _lower_gram: wide enough that the Python loop is cheap,
# narrow enough that a weighted row block stays small
_GRAM_BLOCK = 32


def _symmetrize(M):
    """Make the matrix exactly symmetric (lower triangle authoritative)."""
    return np.tril(M) + np.tril(M, -1).T


def _lower_gram(C, w):
    """Lower block triangle of (C*w) @ C.T.

    Row block K is (C*w)[k0:k1, :e] @ C[:k1, :e].T, where e is one past
    the last nonzero column of rows k0:k1 of C: k1 for a lower-triangular C,
    every column for a dense one.  The columns it leaves out hold exact
    zeros, and the unblocked extended-precision matmul sums over columns in
    order, so every entry on or below the diagonal is bit-identical to the
    full product.  Weighting one row block at a time keeps no weighted copy
    of C, the largest array of a validate run for the oracle's dense table.
    Diagonal blocks also carry upper entries; blocks right of them are zero.
    """
    N = C.shape[0]
    J = np.zeros((N, N), np.result_type(C, w))
    for k0 in range(0, N, _GRAM_BLOCK):
        k1 = min(k0 + _GRAM_BLOCK, N)
        nonzero = np.flatnonzero(C[k0:k1].any(axis=0))
        e = nonzero[-1] + 1 if nonzero.size else 0
        J[k0:k1, :k1] = (C[k0:k1, :e] * w[:e]) @ C[:k1, :e].T
    return J


_rule_cache = {}
_rule_lock = threading.Lock()


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
        m2 = ((2 * k + nu + 1 - x) * m1 - (k + nu) * m0) / (k + 1)
        over = np.abs(m2) > big
        if over.any():
            scale = np.where(over, 1 / big, np.longdouble(1.0))
            m2 = m2 * scale
            m1 = m1 * scale
            expo = expo + np.where(over, 8000, 0)
        m0, m1 = m1, m2
    return m0, m1, expo


def gauss_laguerre_rule(order, nu):
    """Gauss rule of the given order for the weight x^nu e^{-x}.

    Results are cached per (order, nu) with nu keyed by its exact bits;
    the cache is safe under concurrent lookup.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if nu < 0:
        raise ValueError("weight exponent nu must be >= 0")
    key = (int(order), float(nu).hex())
    with _rule_lock:
        hit = _rule_cache.get(key)
    if hit is not None:
        return hit

    i = np.arange(order)
    x, _ = eigh_tridiagonal(2 * i + nu + 1.0, np.sqrt(i[1:] * (i[1:] + nu)), select="a")
    x = x.astype(np.longdouble)
    for _ in range(2):
        lprev, lcur, _e = _laguerre_pair_scaled(order, nu, x)
        # L'_order = (order L_order - (order+nu) L_{order-1}) / x
        deriv = (order * lcur - (order + nu) * lprev) / x
        x = x - lcur / deriv
    _lprev, lnext, expo = _laguerre_pair_scaled(order + 1, nu, x)
    log_w = (
        gammaln(order + nu + 1.0)
        - gammaln(order + 1.0)
        + np.log(x)
        - 2 * np.log((order + 1) * np.abs(lnext))
        - 2 * expo * np.log(np.longdouble(2.0))
    )
    rule = QuadRule(
        order=int(order),
        nu=float(nu),
        nodes=x.astype(float),
        weights=np.exp(log_w),
        log_weights=log_w,
    )
    with _rule_lock:
        _rule_cache[key] = rule
    return rule


def default_oracle_order(basis, n, m):
    """Default rule order for validating an (n, m) element.

    The element integrands are weight times an entire function,
    so the Gauss error decays geometrically; the margin covers slowly
    decaying exponents.
    """
    return max(300, int(n + m + basis.nu + 50))


def quad_matrix_element(v, basis, n, m, order=None, weight_nu=None):
    """Numerical element <phi_n| v |phi_m> by generalized Gauss-Laguerre.

    v is the radial potential r -> v(r).  The basis functions contribute
    x^{2 alpha} e^{-x} L_n L_m; the rule carries weight x^{weight_nu} e^{-x}
    (default nu) and the residual power x^{2 alpha - weight_nu} rides along
    with v in the integrand.  For potentials with an integrable power
    singularity at the origin, pass a lowered weight_nu so the singular
    factor is absorbed into the weight and the remaining integrand is
    smooth (e.g. weight_nu = nu - 1 for a 1/r^2 term).

    Symmetric in (n, m) by construction.
    """
    if n >= basis.size or m >= basis.size or n < 0 or m < 0:
        raise ValueError("element indices must satisfy 0 <= n, m < basis.size")
    if order is None:
        order = default_oracle_order(basis, n, m)
    if weight_nu is None:
        weight_nu = basis.nu
    rule = gauss_laguerre_rule(order, weight_nu)
    x = rule.nodes
    vals = np.asarray(v(x / basis.lam), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise ValueError(
            "potential evaluated non-finite at quadrature node x=%r (r=%r)"
            % (x[bad], x[bad] / basis.lam)
        )
    L = laguerre_seq(max(n, m), basis.nu, x)
    # fixed product order keeps the result bit-identical under (n, m) swap
    lo, hi = min(n, m), max(n, m)
    integrand = x ** (2 * basis.alpha - weight_nu) * (L[lo] * L[hi]) * vals
    an = basis.norm_coeff(n)
    am = basis.norm_coeff(m)
    return an * am / basis.lam * rule.integrate(integrand)


def quad_potential_matrix(v, basis, order=None, weight_nu=None):
    """Full size x size numerical potential matrix for the radial function v.

    Evaluates the Laguerre sequence once per node and assembles all
    elements from the lower block triangle of one rank-reduction product,
    mirrored, so the cost is O(order * size^2 / 2) after O(order * size)
    polynomial evaluations.
    """
    N = basis.size
    if order is None:
        order = default_oracle_order(basis, N - 1, N - 1)
    if weight_nu is None:
        weight_nu = basis.nu
    rule = gauss_laguerre_rule(order, weight_nu)
    x = rule.nodes
    xl = np.asarray(x, np.longdouble)
    vals = np.asarray(v(xl / np.longdouble(basis.lam)))
    if not np.all(np.isfinite(vals.astype(float))):
        bad = int(np.argmin(np.isfinite(vals.astype(float))))
        raise ValueError(
            "potential evaluated non-finite at quadrature node x=%r (r=%r)"
            % (x[bad], x[bad] / basis.lam)
        )
    L = laguerre_seq(N - 1, basis.nu, xl)
    # accumulate in extended precision: the integrand terms span many orders
    # of magnitude and the small elements would otherwise be dominated by
    # roundoff from the large ones
    g = rule.weights * xl ** (2 * basis.alpha - weight_nu) * np.asarray(vals, np.longdouble)
    a = np.array([basis.norm_coeff(k) for k in range(N)])
    # mirrored after the cast, which copies entries exactly
    M = _symmetrize(_lower_gram(L, g).astype(float))
    return (np.outer(a, a) / basis.lam) * M
