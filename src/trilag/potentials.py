"""Potential matrices in the Laguerre basis.

Three families are covered: the screened Coulomb (Yukawa) potential with
its cosine- and sine-screened variants, the Kratzer potential and the
generalized Morse potential, plus the exponential kernel exp(-c r) they
share.

The classical Yukawa and the exponential kernel reduce to integrals of the
form

    J_nm = int_0^inf x^nu e^{-sigma x} L_n^nu(x) L_m^nu(x) dx

at real sigma = 1 + c/lam >= 1, evaluated through the argument-scaling
identity

    L_n^nu(x) = sum_j binom(n+nu, n-j) sigma^{-n} (sigma-1)^{n-j} L_j^nu(sigma x)

so that J_nm = sigma^{-(nu+1)} sum_j C[n,j] C[m,j] h_j with
h_j = Gamma(j+nu+1)/j! and C[n,j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n.
Every term is non-negative, so there is no cancellation and the evaluation
stays accurate for large n, m and large screening, where the textbook
hypergeometric form loses all precision.  The connection coefficients and
the moment norms are built by exact ratio recurrences (no gamma-function
round-off) in longdouble.  C is lower triangular, so the product
(C*h) @ C.T is taken over its nonzero prefix only (quadrature._lower_gram).
The exponential kernel weighs its moments with one more power of x; it is
written J1 = sigma^{-(nu+2)} E P E^T, with P the same moment sum at nu+1 and
E the bidiagonal map L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1}, so it also needs
only one triangular product.

The cosine and sine wells -(A/r) cos(mu_im r) e^{-mu_re r} and
+(A/r) sin(mu_im r) e^{-mu_re r} have no such cancellation-free form: the
same sum at complex sigma loses every digit at large N.  They are assembled
by Gauss quadrature instead, V = (Q*f) @ Q.T, the quadrature (Jacobi-matrix)
form of the potential used in the J-matrix method (Heller & Yamani, Phys.
Rev. A 9, 1201 (1974)).  Q holds the orthonormal Laguerre functions at the
nodes of a Gauss rule for the weight x^nu e^{-s x}, s = 1 + mu_re/lam, and
f the oscillating factor.  The screening e^{-(s-1) x} leaves about
(mu_im/mu_re) 40/pi zeros of the oscillation where the integrand matters,
so one constant margin of nodes covers every mu_im <= mu_re; YukawaParams
rejects the rest.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.special import gammaln

from .quadrature import _lower_gram, _symmetrize, gauss_laguerre_rule

__all__ = [
    "YukawaParams",
    "KratzerParams",
    "MorseParams",
    "yukawa_matrix",
    "exp_matrix",
    "morse_matrix",
    "kratzer_matrix",
    "radial_function",
    "oracle_weight_nu",
]


def _require_finite(params, *names):
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class YukawaParams:
    """Screened Coulomb well of strength A with screening mu_re, mu_im.

    variant selects the real potential solved: 'classical' is the ordinary
    Yukawa -(A/r) e^{-mu_re r} (mu_im = 0), 'cosine' is
    -(A/r) cos(mu_im r) e^{-mu_re r} and 'sine' +(A/r) sin(mu_im r) e^{-mu_re r}.
    The screening must satisfy 0 <= mu_im <= mu_re.
    """

    strength: float
    mu_re: float = 0.0
    mu_im: float = 0.0
    variant: str = "classical"

    def __post_init__(self):
        _require_finite(self, "strength", "mu_re", "mu_im")
        if self.strength <= 0:
            raise ValueError("Yukawa strength must be > 0")
        if self.mu_re < 0 or self.mu_im < 0:
            raise ValueError("screening parameters must be >= 0")
        if self.mu_im > self.mu_re:
            raise ValueError(
                "screening requires mu_im <= mu_re, got mu_im = %r > mu_re = %r"
                % (self.mu_im, self.mu_re)
            )
        if self.variant not in ("classical", "cosine", "sine"):
            raise ValueError("variant must be classical, cosine or sine")
        if self.variant == "classical" and self.mu_im != 0:
            raise ValueError("classical variant requires mu_im = 0")


@dataclass(frozen=True)
class KratzerParams:
    """Kratzer potential -coulomb/r + inverse_square/(2 r^2)."""

    coulomb: float
    inverse_square: float

    def __post_init__(self):
        _require_finite(self, "coulomb", "inverse_square")
        if self.inverse_square <= 0:
            raise ValueError("inverse_square must be > 0")


@dataclass(frozen=True)
class MorseParams:
    """Generalized Morse depth*(e^{-2w(r/r_eq-1)} - 2 beta e^{-w(r/r_eq-1)})."""

    depth: float
    r_eq: float
    width: float
    beta: float

    def __post_init__(self):
        _require_finite(self, "depth", "r_eq", "width", "beta")
        if self.r_eq <= 0:
            raise ValueError("r_eq must be > 0")
        if self.width <= 0:
            raise ValueError("width must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


# ---------------------------------------------------------------------------
# shared kernels


def _connection_matrix(N, nu, sigma):
    """C[n, j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n for j <= n, in longdouble.

    Built along sub-diagonals from the exact ratio
    C[n, j-1] = C[n, j] * (j+nu) (sigma-1) / (n-j+1),
    seeded by the diagonal C[n, n] = sigma^{-n}.
    """
    dtype = np.longdouble
    u = dtype(sigma) - 1
    C = np.zeros((N, N), dtype)
    n = np.arange(N)
    C[n, n] = np.cumprod(np.r_[np.ones(1, dtype), np.full(N - 1, dtype(1) / dtype(sigma))])
    for d in range(1, N):
        rows = np.arange(d, N)
        C[rows, rows - d] = C[rows, rows - d + 1] * ((rows - d + nu + 1) * u / d)
    return C


def _moment_norms(N, nu):
    """h_j = Gamma(j+nu+1)/j! via the exact cumulative ratio product, in longdouble."""
    j = np.arange(N - 1)
    ratios = ((j + nu + 1) / (j + 1)).astype(np.longdouble)
    return np.cumprod(np.r_[np.ones(1, np.longdouble) * math.gamma(nu + 1), ratios])


def _log_norms(N, nu):
    """log(a_n / sqrt(lam)) = (log n! - log Gamma(n+nu+1)) / 2."""
    n = np.arange(N)
    return 0.5 * (gammaln(n + 1.0) - gammaln(n + nu + 1.0))


def _norm_outer(basis):
    """Matrix of products a_n a_m, evaluated in log space."""
    loga = _log_norms(basis.size, basis.nu)
    return basis.lam * np.exp(loga[:, None] + loga[None, :])


# ---------------------------------------------------------------------------
# Yukawa

# Gauss nodes beyond the basis size: the rule integrates the degree-2N-2
# polynomial part exactly and spends the margin on the oscillating factor
_GAUSS_MARGIN = 64


def _yukawa_real_matrix(p, basis):
    """-(A/r) e^{-mu_re r} by the closed form at real sigma = 1 + mu_re/lam."""
    N, nu = basis.size, basis.nu
    sigma = 1.0 + p.mu_re / basis.lam
    C = _connection_matrix(N, nu, sigma)
    J = _lower_gram(C, _moment_norms(N, nu)) * np.longdouble(sigma) ** (-(nu + 1))
    return _symmetrize((-p.strength * _norm_outer(basis) * J).astype(float))


def _yukawa_gauss_matrix(p, basis):
    """Cosine or sine well at mu_im > 0 as the Gauss product (Q*f) @ Q.T.

    V_nm = int x^nu e^{-s x} p_n p_m f dx with p_n the orthonormal Laguerre
    functions (sign of L_n^nu), s = 1 + mu_re/lam and f = x V(x/lam),
    taken on the rule for x^nu e^{-x} scaled to the weight x^nu e^{-s x}.
    Q_ni = sqrt(w_i) p_n(x_i) comes from the orthonormal three-term
    recurrence in longdouble; Q Q^T is the Gram matrix of e^{-(s-1) x} <= 1,
    so no term of the float64 product exceeds the scale of the result.
    """
    N, nu, lam = basis.size, basis.nu, basis.lam
    s = np.longdouble(1.0 + p.mu_re / lam)
    rule = gauss_laguerre_rule(N + _GAUSS_MARGIN, nu)
    x = rule.nodes / s
    k = np.arange(N + 1, dtype=np.longdouble)
    off = np.sqrt(k * (k + nu))  # off[n] = sqrt(n (n+nu)), the Jacobi off-diagonal
    Q = np.empty((N, rule.order))
    prev = np.zeros_like(x)
    cur = np.exp(0.5 * (rule.log_weights - (nu + 1) * np.log(s) - gammaln(nu + 1.0)))
    for n in range(N):
        Q[n] = cur
        # off[n+1] p_{n+1} = (2n+nu+1-x) p_n - off[n] p_{n-1}
        prev, cur = cur, ((2 * n + nu + 1 - x) * cur - off[n] * prev) / off[n + 1]
    phase = (p.mu_im / lam) * x
    f = np.sin(phase) if p.variant == "sine" else -np.cos(phase)
    Qf = Q * (p.strength * lam * f).astype(float)
    # scipy's BLAS rather than numpy's matmul: the pencil solve runs on
    # scipy's LAPACK, and alternating between the two libraries' BLAS thread
    # pools costs more than the product (about 7 ms per N=100 solve on two
    # cores).  The transposes are Fortran-ordered views, so nothing is copied.
    return _symmetrize(dgemm(1.0, Qf.T, Q.T, trans_a=1))


def yukawa_matrix(p, basis):
    """Real symmetric potential matrix for the chosen Yukawa variant.

    At mu_im = 0 the cosine well is the classical one and the sine well
    vanishes; both are then exact.
    """
    if p.mu_im == 0:
        if p.variant == "sine":
            return np.zeros((basis.size, basis.size))
        return _yukawa_real_matrix(p, basis)
    return _yukawa_gauss_matrix(p, basis)


# ---------------------------------------------------------------------------
# exponential kernel and Morse


def _exp_kernel(c, basis):
    """Extended-precision J1 integrals behind exp_matrix (no norm factors).

    The extra power of x from the 2D volume element is taken into the
    weight: J1 = sigma^{-(nu+2)} E P E^T, where P is the moment sum at
    nu+1 and E the bidiagonal map L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1},
    applied as differences of adjacent rows, then of adjacent columns.
    """
    N, nu = basis.size, basis.nu
    sigma = 1.0 + c / basis.lam
    C = _connection_matrix(N, nu + 1, sigma)
    # symmetrize first: the differences read the upper triangle too
    P = _symmetrize(_lower_gram(C, _moment_norms(N, nu + 1)))
    P[1:] -= P[:-1]
    P[:, 1:] -= P[:, :-1]
    return P * np.longdouble(sigma) ** (-(nu + 2))


def exp_matrix(c, basis):
    """Full matrix of <phi_n| e^{-c r} |phi_m>."""
    if c < 0:
        raise ValueError("exp_matrix requires c >= 0")
    J1 = _exp_kernel(c, basis)
    return _symmetrize((_norm_outer(basis) / basis.lam * J1).astype(float))


def morse_matrix(p, basis):
    """Generalized Morse potential matrix.

    Composed directly from the two exponential kernels of the potential,
    depth e^{2w} exp(-2w r/r_eq) - 2 beta depth e^{w} exp(-w r/r_eq),
    so the relative sign of the two wells cannot be misassembled.
    """
    w = p.width
    # combine the two kernels before dropping precision: near-threshold
    # elements arise from cancellation between the two wells
    J = np.longdouble(p.depth) * np.exp(np.longdouble(2 * w)) * _exp_kernel(2 * w / p.r_eq, basis)
    J -= 2 * np.longdouble(p.beta * p.depth) * np.exp(np.longdouble(w)) * _exp_kernel(w / p.r_eq, basis)
    return _symmetrize((_norm_outer(basis) / basis.lam * J).astype(float))


# ---------------------------------------------------------------------------
# Kratzer


def kratzer_matrix(p, basis):
    """Kratzer potential matrix; requires |ell| >= 1.

    The Coulomb part is exactly diagonal (constant -coulomb lam) by the
    x^nu-weight orthogonality.  The inverse-square part has the closed form
    V2_nm = (lam B / 2) a_n a_m Gamma(min(n,m)+nu+1) / (nu min(n,m)!),
    obtained by telescoping L_n^nu into lower-index polynomials; it
    diverges for nu = 0, which is rejected.
    """
    nu = basis.nu
    if nu == 0:
        raise ValueError(
            "Kratzer elements require |ell| >= 1: the 1/r^2 integral diverges at nu = 0"
        )
    N = basis.size
    loga = _log_norms(N, nu)
    # a_m^2 = lam m!/Gamma(m+nu+1), so for m <= n the element is
    # (lam^2 B / 2 nu) a_n/a_m: one exp per lower-triangle entry
    V2 = np.exp(loga[:, None] - loga[None, :], out=np.zeros((N, N)),
                where=np.tri(N, dtype=bool))
    V2 *= basis.lam ** 2 * p.inverse_square / (2.0 * nu)
    return _symmetrize(V2) - p.coulomb * basis.lam * np.eye(N)


# ---------------------------------------------------------------------------
# radial forms for the quadrature oracle


def radial_function(p):
    """The radial potential r -> V(r) solved for the given parameters."""
    if isinstance(p, YukawaParams):
        A, mr, mi = p.strength, p.mu_re, p.mu_im
        if p.variant == "sine":
            return lambda r: A * np.sin(mi * r) * np.exp(-mr * r) / r
        if p.variant == "cosine":
            return lambda r: -A * np.cos(mi * r) * np.exp(-mr * r) / r
        return lambda r: -A * np.exp(-mr * r) / r
    if isinstance(p, KratzerParams):
        a, b = p.coulomb, p.inverse_square
        return lambda r: -a / r + b / (2.0 * r * r)
    if isinstance(p, MorseParams):
        d, r0, w, beta = p.depth, p.r_eq, p.width, p.beta
        return lambda r: d * (
            np.exp(-2 * w * (r / r0 - 1)) - 2 * beta * np.exp(-w * (r / r0 - 1))
        )
    raise TypeError("unknown potential parameters: %r" % (p,))


def oracle_weight_nu(p, basis):
    """Quadrature weight exponent matched to the potential's singularity.

    The 1/r factor common to the Coulomb-type potentials is absorbed by the
    volume-element power, but the Kratzer 1/r^2 term leaves a 1/x factor in
    the integrand; lowering the weight exponent by one absorbs it and makes
    the oracle integrand polynomial (hence exact).
    """
    if isinstance(p, KratzerParams):
        return basis.nu - 1.0
    return basis.nu
