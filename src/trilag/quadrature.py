"""Generalized Gauss-Laguerre rules and the numerical matrix-element oracle.

The rule with weight x^nu e^{-x} starts from the float64 eigenvalues (no
eigenvectors) of the symmetric Jacobi matrix of the Laguerre recurrence
(Golub & Welsch, Math. Comp. 23, 1969).  That start is good to ~1e-12
relative, so one extended-precision Newton step polishes the nodes to the
~1e-15 floor at which the recurrence evaluates L_order; a second step only
adds that noise.  Weights come from the derivative-free identity

    w_i = Gamma(order+nu+1) x_i / (order! (order+1)^2 L_{order+1}^nu(x_i)^2)

evaluated in log space with an overflow-scaled recurrence, because the
eigenvector-based weights lose all relative accuracy for the tiny weights
in the far tail.  Weights are stored in extended precision so every one of
them is positive and nonzero up to order ~600.

A rule assembles a potential matrix as the float64 BLAS product
V = (Q*f) @ Q.T (Heller & Yamani, Phys. Rev. A 9, 1201 (1974)), Q holding the
orthonormal Laguerre functions at the nodes, built in extended precision.  The
oracle and the cosine and sine Yukawa wells (potentials) share it: _gauss_matrix.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dsyrk
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


def _symmetrize(M):
    """Mirror the lower triangle of M into its upper one, in place; returns M."""
    for i in range(M.shape[0] - 1):
        M[i, i + 1:] = M[i + 1:, i]
    return M


def _gauss_matrix(N, nu, x, log_w, f):
    """V_nm = sum_i w_i f_i p_n(x_i) p_m(x_i) for n, m < N, in float64.

    p_n = sqrt(n!/Gamma(n+nu+1)) L_n^nu are the Laguerre polynomials
    orthonormal under x^nu e^{-x}; x, log_w (longdouble) and f are the nodes,
    log-weights and integrand factor of a rule for that weight.  The table
    Q_ni = sqrt(w_i |f_i|) p_n(x_i) comes from the orthonormal three-term
    recurrence in longdouble and is cast to float64 with the nodes where
    f >= 0 first, so V = Q+ Q+^T - Q- Q-^T is two dsyrk calls on column
    blocks of Q, and no weighted copy of the table is made.
    """
    by_sign = np.argsort(f < 0, kind="stable")
    n_pos = int(np.count_nonzero(f >= 0))
    x = x[by_sign]
    k = np.arange(N + 1, dtype=np.longdouble)
    off = np.sqrt(k * (k + nu))  # off[n] = sqrt(n (n+nu)), the Jacobi off-diagonal
    Q = np.empty((N, x.size), order="F")
    prev = np.zeros_like(x)
    cur = np.sqrt(np.abs(f[by_sign])) * np.exp(0.5 * (log_w[by_sign] - gammaln(nu + 1.0)))
    for n in range(N):
        Q[n] = cur
        # off[n+1] p_{n+1} = (2n+nu+1-x) p_n - off[n] p_{n-1}
        prev, cur = cur, ((2 * n + nu + 1 - x) * cur - off[n] * prev) / off[n + 1]
    V = np.zeros((N, N), order="F")
    for alpha, block in ((1.0, Q[:, :n_pos]), (-1.0, Q[:, n_pos:])):
        if block.shape[1]:
            # scipy's BLAS, as in potentials._yukawa_real_matrix
            V = dsyrk(alpha, block, beta=1.0, c=V, lower=1, overwrite_c=1)
    return _symmetrize(V)


_rule_cache = {}
_rule_lock = threading.Lock()


# steps between overflow tests in _laguerre_pair_scaled: a step grows the pair
# by less than 2 order + nu + 2 (below 2^13 up to order ~1700), far inside the
# 2^8384 headroom above the 2^8000 threshold
_RESCALE_STEPS = 32


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
        m0, m1 = m1, ((2 * k + nu + 1 - x) * m1 - (k + nu) * m0) / (k + 1)
        if k % _RESCALE_STEPS == 0:
            over = np.maximum(np.abs(m0), np.abs(m1)) > big
            if over.any():
                scale = np.where(over, 1 / big, np.longdouble(1.0))
                m0 = m0 * scale
                m1 = m1 * scale
                expo = expo + np.where(over, 8000, 0)
    return m0, m1, expo


def gauss_laguerre_rule(order, nu):
    """Gauss rule of the given order for the weight x^nu e^{-x}.

    The float64 eigenvalues of the Jacobi matrix start one extended-precision
    Newton step on L_order^nu; the weights are evaluated at the polished
    nodes.  Results are cached per (order, nu) with nu keyed by its exact
    bits; the cache is safe under concurrent lookup.
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
    x = eigh_tridiagonal(2 * i + nu + 1.0, np.sqrt(i[1:] * (i[1:] + nu)), eigvals_only=True)
    x = x.astype(np.longdouble)
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

    The basis norms turn the element integrand of quad_matrix_element into
    w_i x_i^{nu - weight_nu} f_i p_n(x_i) p_m(x_i), with f = x^{2 alpha - nu}
    v(x/lam) and p_n the orthonormal Laguerre polynomials, so the matrix is
    one Gauss product _gauss_matrix: O(order * size) recurrence steps in
    extended precision and a float64 product of O(order * size^2 / 2).
    """
    N, nu = basis.size, basis.nu
    if order is None:
        order = default_oracle_order(basis, N - 1, N - 1)
    if weight_nu is None:
        weight_nu = nu
    rule = gauss_laguerre_rule(order, weight_nu)
    x = np.asarray(rule.nodes, np.longdouble)
    vals = np.asarray(v(x / np.longdouble(basis.lam)))
    if not np.all(np.isfinite(vals.astype(float))):
        bad = int(np.argmin(np.isfinite(vals.astype(float))))
        raise ValueError(
            "potential evaluated non-finite at quadrature node x=%r (r=%r)"
            % (rule.nodes[bad], rule.nodes[bad] / basis.lam)
        )
    f = x ** (2 * basis.alpha - nu) * vals
    return _gauss_matrix(N, nu, x, rule.log_weights + (nu - weight_nu) * np.log(x), f)
