"""Closed-form potential matrices in the Laguerre basis.

Three families have analytically closed elements here: the generalized
(complex-screened) Yukawa, the Kratzer potential and the generalized Morse
potential, plus the exponential kernel exp(-c r) they share.

All exponential-type elements reduce to integrals of the form

    J_nm = int_0^inf x^nu e^{-sigma x} L_n^nu(x) L_m^nu(x) dx,

which are evaluated through the argument-scaling identity

    L_n^nu(x) = sum_j binom(n+nu, n-j) sigma^{-n} (sigma-1)^{n-j} L_j^nu(sigma x)

so that J_nm = sigma^{-(nu+1)} sum_j C[n,j] C[m,j] h_j with
h_j = Gamma(j+nu+1)/j! and C[n,j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n.
For real sigma >= 1 every term is non-negative, so there is no cancellation
and the evaluation stays accurate for large n, m and large screening, where
the textbook hypergeometric form loses all precision.  For complex sigma the
powers (sigma-1)^{n-j} rotate and the terms do cancel: for the cosine
Yukawa at sigma = 1 + (delta + i delta)/lam, sum|terms| / |Re J| reaches
7.7e24 at N=400, and the large-N elements lose accuracy there.
The connection coefficients and the moment norms are built by exact ratio
recurrences (no gamma-function round-off) in extended precision: real
longdouble when sigma is real, complex only when it is not.

C is lower triangular, so the product (C*h) @ C.T is taken in column blocks
over the nonzero prefix of C only (_lower_gram, which also serves the dense
Laguerre table of the quadrature oracle): the lower triangle is
bit-identical to the full product at about a sixth of its multiply-adds.
The exponential kernel weighs its moments with one more power of x; it is
written J1 = sigma^{-(nu+2)} E P E^T, with P the same moment sum at nu+1 and
E the bidiagonal map L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1}, so it also needs
only one triangular product.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .basis import overlap_matrix

__all__ = [
    "YukawaParams",
    "KratzerParams",
    "MorseParams",
    "yukawa_element",
    "yukawa_matrix",
    "exp_element",
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
    """Screened Coulomb -(strength/r) e^{-mu r} with mu = mu_re + i mu_im.

    variant selects the real potential actually solved: 'classical' is the
    ordinary Yukawa (mu_im = 0), 'cosine' and 'sine' are the real and
    imaginary parts of the complex-screened form.
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
        if self.variant not in ("classical", "cosine", "sine"):
            raise ValueError("variant must be classical, cosine or sine")
        if self.variant == "classical" and self.mu_im != 0:
            raise ValueError("classical variant requires mu_im = 0")

    @property
    def mu(self):
        return complex(self.mu_re, self.mu_im)


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

# block width of _lower_gram: wide enough that the Python loop is cheap,
# narrow enough that few zeros are multiplied inside the diagonal blocks
_GRAM_BLOCK = 32


def _connection_matrix(N, nu, sigma, dtype):
    """C[n, j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n for j <= n.

    Built along sub-diagonals from the exact ratio
    C[n, j-1] = C[n, j] * (j+nu) (sigma-1) / (n-j+1),
    seeded by the diagonal C[n, n] = sigma^{-n}.
    """
    u = dtype(sigma) - 1
    C = np.zeros((N, N), dtype)
    n = np.arange(N)
    C[n, n] = np.cumprod(np.r_[np.ones(1, dtype), np.full(N - 1, dtype(1) / dtype(sigma))])
    for d in range(1, N):
        rows = np.arange(d, N)
        C[rows, rows - d] = C[rows, rows - d + 1] * ((rows - d + nu + 1) * u / d)
    return C


def _connection_row(n, nu, sigma, length, dtype):
    """Single row C[n, 0:length] of the connection matrix."""
    u = dtype(sigma) - 1
    row = np.zeros(length, dtype)
    c = dtype(1) / dtype(sigma) ** n
    if n < length:
        row[n] = c
    for j in range(n, 0, -1):
        c = c * ((j + nu) * u / (n - j + 1))
        if j - 1 < length:
            row[j - 1] = c
    return row


def _moment_norms(N, nu, dtype=np.longdouble):
    """h_j = Gamma(j+nu+1)/j! via the exact cumulative ratio product."""
    j = np.arange(N - 1)
    ratios = ((j + nu + 1) / (j + 1)).astype(dtype)
    return np.cumprod(np.r_[np.ones(1, dtype) * math.gamma(nu + 1), ratios])


def _log_norms(N, nu):
    """log(a_n / sqrt(lam)) = (log n! - log Gamma(n+nu+1)) / 2."""
    n = np.arange(N)
    return 0.5 * (gammaln(n + 1.0) - gammaln(n + nu + 1.0))


def _norm_outer(basis):
    """Matrix of products a_n a_m, evaluated in log space."""
    loga = _log_norms(basis.size, basis.nu)
    return basis.lam * np.exp(loga[:, None] + loga[None, :])


def _symmetrize(M):
    """Make the matrix exactly symmetric (lower triangle authoritative)."""
    return np.tril(M) + np.tril(M, -1).T


def _lower_gram(C, w):
    """Lower block triangle of (C*w) @ C.T.

    Column block K is (C*w)[k0:, :e] @ C[k0:k1, :e].T, where e is one past
    the last nonzero column of rows k0:k1 of C: k1 for a lower-triangular C,
    every column for a dense one.  The columns it leaves out hold exact
    zeros, and the unblocked extended-precision matmul sums over columns in
    order, so every entry on or below the diagonal is bit-identical to the
    full product; for a triangular C that takes about a sixth of its
    multiply-adds.  The diagonal blocks also carry upper entries; the
    blocks above them are zero.
    """
    N = C.shape[0]
    Cw = C * w
    J = np.zeros((N, N), Cw.dtype)
    for k0 in range(0, N, _GRAM_BLOCK):
        k1 = min(k0 + _GRAM_BLOCK, N)
        nonzero = np.flatnonzero(C[k0:k1].any(axis=0))
        e = nonzero[-1] + 1 if nonzero.size else 0
        J[k0:, k0:k1] = Cw[k0:, :e] @ C[k0:k1, :e].T
    return J


# ---------------------------------------------------------------------------
# Yukawa


def _check_sigma(sigma):
    if sigma.real <= 0.5:
        raise ValueError(
            "element integral diverges: Re(sigma) = %r <= 1/2" % (sigma.real,)
        )


def _yukawa_complex_matrix(p, basis):
    """Symmetric complex matrix of -(A/r) e^{-mu r}.

    At mu_im = 0 it is built in real extended precision; its imaginary
    part is then exactly zero.
    """
    N, nu = basis.size, basis.nu
    sigma = 1.0 + p.mu / basis.lam
    _check_sigma(sigma)
    if p.mu_im == 0:
        sigma, dtype = sigma.real, np.longdouble
    else:
        dtype = np.clongdouble
    C = _connection_matrix(N, nu, sigma, dtype)
    J = _lower_gram(C, _moment_norms(N, nu)) * dtype(sigma) ** (-(nu + 1))
    return _symmetrize((-p.strength * _norm_outer(basis) * J).astype(complex))


def yukawa_element(p, basis, n, m):
    """Complex element <phi_n| -(A/r) e^{-mu r} |phi_m>.

    For real screening the sum has non-negative terms and is uniformly
    stable, including the degenerate limit mu -> 0 where it reduces
    continuously to the Coulomb value -A lam delta_nm.
    """
    if not (0 <= n < basis.size and 0 <= m < basis.size):
        raise ValueError("element indices must satisfy 0 <= n, m < basis.size")
    nu = basis.nu
    sigma = 1.0 + p.mu / basis.lam
    _check_sigma(sigma)
    length = min(n, m) + 1
    rn = _connection_row(n, nu, sigma, length, np.clongdouble)
    rm = _connection_row(m, nu, sigma, length, np.clongdouble)
    h = _moment_norms(length, nu)
    J = np.sum(rn * rm * h) * np.clongdouble(sigma) ** (-(nu + 1))
    return complex(-p.strength * basis.norm_coeff(n) * basis.norm_coeff(m) * J)


def yukawa_matrix(p, basis):
    """Real symmetric potential matrix for the chosen Yukawa variant."""
    Vc = _yukawa_complex_matrix(p, basis)
    return (Vc.imag if p.variant == "sine" else Vc.real).copy()


# ---------------------------------------------------------------------------
# exponential kernel and Morse


def exp_element(c, basis, n, m):
    """Element <phi_n| e^{-c r} |phi_m> for c >= 0 (overlap element at c=0)."""
    if c < 0:
        raise ValueError("exp_element requires c >= 0")
    if not (0 <= n < basis.size and 0 <= m < basis.size):
        raise ValueError("element indices must satisfy 0 <= n, m < basis.size")
    M = exp_matrix(c, basis.with_size(max(n, m) + 1))
    return float(M[n, m])


def _exp_kernel(c, basis):
    """Extended-precision J1 integrals behind exp_matrix (no norm factors).

    The extra power of x from the 2D volume element is taken into the
    weight: J1 = sigma^{-(nu+2)} E P E^T, where P is the moment sum at
    nu+1 and E the bidiagonal map L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1},
    applied as differences of adjacent rows, then of adjacent columns.
    """
    N, nu = basis.size, basis.nu
    sigma = 1.0 + c / basis.lam
    C = _connection_matrix(N, nu + 1, sigma, np.longdouble)
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
