"""Potential matrices in the Laguerre basis.

Three families are covered: the screened Coulomb (Yukawa) potential with
its cosine- and sine-screened variants, the Kratzer potential and the
generalized Morse potential, plus the exponential kernel exp(-c r) they
share.  Each family's parameter class is a Potential that supplies its
matrix, radial form and oracle weight, so no other module branches on it.

The classical Yukawa and the exponential kernel reduce to integrals of the
form

    J_nm = int_0^inf x^nu e^{-sigma x} L_n^nu(x) L_m^nu(x) dx

at real sigma = 1 + c/lam >= 1, evaluated through the argument-scaling
identity

    L_n^nu(x) = sum_j binom(n+nu, n-j) sigma^{-n} (sigma-1)^{n-j} L_j^nu(sigma x)

so that J_nm = sigma^{-(nu+1)} sum_j C[n,j] C[m,j] h_j with
h_j = Gamma(j+nu+1)/j! and C[n,j] = binom(n+nu, n-j) (sigma-1)^{n-j} / sigma^n.
The basis norms a_n a_m = lam / sqrt(h_n h_m) fold into the normalized
connection matrix C^[n,j] = sigma^{-(nu+1)/2} C[n,j] sqrt(h_j/h_n), lower
triangular and non-negative with sum_j C^[n,j]^2 <= 1 (the diagonal of the
Gram matrix of e^{-(sigma-1) x} <= 1), and the classical Yukawa is
V = -A lam C^ C^T.  Every term of that product is non-negative, so even in
float64 each element has a relative error of at most about N eps (Higham,
Accuracy and Stability of Numerical Algorithms, sec. 4.2), for large n, m
and large screening alike, where the textbook hypergeometric form loses
all precision.  That contract is elementwise (1e-14 for every element
above 1e-200), so the classical well keeps entries of C^ far below the
exponential kernel's floor (below): C^ is floored at 2^-730 and scaled by
2^219 (exactly), and the dsyrk alpha is -A lam 2^-438.  Every kept entry is
then at least 2^-511, so every product the dsyrk forms is a normal float64
(one that underflows costs about three times a normal one).  Rows of C^
have norm <= 1, so the dropped entries move an element by at most
2 sqrt(N) 2^-730 A lam, below 1e-217 A lam.

The exponential kernel weighs its moments with one more power of x.  With
L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1} it is the Gram matrix K = B B^T of
B = L_S C^' (_exp_factor), where C^' is the normalized connection matrix
at nu+1 and L_S the closed-form bidiagonal factor of the overlap
S = L_S L_S^T (at sigma = 1, C^' = I and the kernel is S); no
gamma-function norms enter.  B has
entries of both signs, so the kernel K = B B^T is accurate to about N eps
relative to sqrt(K_nn K_mm), not elementwise (normwise; Higham, sec. 4.2).
That contract leaves room for a floor: C^' is built with its entries
below 2^-511 zeroed, L_S (basis._overlap_factor) is applied in float64, and
the entries of B below 2^-511 are zeroed again, for a row's two terms can
cancel.  Every product of two kept entries is then at least 2^-1022, a
normal float64, and dsyrk forms no product that underflows.  Zeroing an entry
of C^' moves B by at most 2 sqrt(N+nu+1) 2^-511 (a row of L_S), and one of
B by 2^-511; rows of B have norm sqrt(K_nn), so K_nm moves by at most
(2 sqrt(N+nu+1) + 1) 2^-511 sqrt(N) (sqrt(K_nn) + sqrt(K_mm)).  At N = 400
on Table 3's kernels (smallest K_nn 0.037; 0.45 for the ell = 1 well) that
is about 1e-150 of sqrt(K_nn K_mm).  Morse is one Gram product over the
factors of its two kernels.

C^ is built in float64 from its closed form, whose three O(N) factors are
running products taken in longdouble as mantissas and exponents
(_normalized_connection).  Extended precision is used only there and in
the Gauss table the cosine and sine wells build once per rule and size;
every O(N^2) and O(N^3) step is float64, and no kernel forms a product
below the normal float64 range.  Every Gram product is quadrature._gram.

The Kratzer inverse-square matrix is rank one below the diagonal,
(lam^2 B / 2 nu) a_n/a_m for m <= n: one float64 outer product of two
vectors built by the ratio recurrence a_n/a_{n-1} = sqrt(n/(n+nu)) in
longdouble, with no gamma functions and no per-element exp.  H0(nu) holds
nu^2/(8 r^2) where the well has (ell^2 + B)/(2 r^2), so the kernel enters
with the excess B + ell^2 - nu^2/4 in place of B: B itself at the paper's
nu = 2|ell|, and nothing at the natural nu = 2 sqrt(ell^2 + B), where the
Kratzer matrix is the constant diagonal -coulomb lam and the pencil
H0 + V is tridiagonal (diagonal()).

The cosine and sine wells -(A/r) cos(mu_im r) e^{-mu_re r} and
+(A/r) sin(mu_im r) e^{-mu_re r} have no such cancellation-free form: the
same sum at complex sigma loses every digit at large N.  They are assembled
by Gauss quadrature instead, the quadrature (Jacobi-matrix) form of the
potential used in the J-matrix method (Heller & Yamani, Phys. Rev. A 9,
1201 (1974)), with the two factors of the well split between two exact
forms.  The real-sigma C^ at sigma = s = 1 + mu_re/lam carries the
exponent: p_n(y/s) = s^{(nu+1)/2} sum_j C^[n,j] p_j(y).  The Gauss rule for
x^nu e^{-x} carries only the oscillation, so the Gauss sum over the weight
x^nu e^{-s x} is V = P diag(f) P^T with P = C^ Q1, Q1 the rule's
orthonormal Laguerre table (quadrature._rule_table, built once per rule
and size) and f the oscillating factor at the nodes divided by s.  P is
one in-place dtrmm on a copy of the table whose columns are in the sign
order of f and scaled by 2^219 sqrt(|f|/(A lam)), and V is the signed Gram
pair on P with alpha +-A lam 2^-438.  C^ and the table are floored at
2^-511, the table once when it is cached, so the dtrmm forms no subnormal
product, and P is floored at 2^-511 again, so the dsyrk pair forms none.
The rule is exact at degree 2N - 2, so Q1 Q1^T = I and the rows of C^ Q1
have the norms of C^'s, at most 1: rows of P have norm at most 2^219, no
term of the pair exceeds A lam, and zeroing P's entries below 2^-511
moves an element by at most
(2 sqrt(N + 64) 2^-730 + (N + 64) 2^-1460) A lam, below 1e-217 A lam.
The screening e^{-(s-1) x} leaves about
(mu_im/mu_re) 40/pi zeros of the oscillation where the integrand matters,
so one constant margin of nodes covers every mu_im <= mu_re; YukawaParams
rejects the rest.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrmm

from .basis import _overlap_factor
from .quadrature import _FLOOR, _FLOOR_EXP, _gram, _rule_table, _symmetrize, gauss_laguerre_rule

__all__ = [
    "Potential",
    "YukawaParams",
    "KratzerParams",
    "MorseParams",
    "yukawa_matrix",
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


class Potential:
    """A family's parameters: matrix(basis) is its real symmetric matrix in the
    basis, radial(r) the V(r) the quadrature oracle integrates and
    oracle_nu(basis) that oracle's weight_nu, by default the basis's nu.

    natural_nu(ell) is the basis index the solver drivers use when the
    basis leaves nu out; H0 of that index holds the well's whole 1/r^2 term.
    matrix(basis) is the well less the part of its 1/r^2 term that H0 of
    the basis's nu holds, so it equals the oracle's matrix of radial at the
    paper's nu = 2|ell|.  diagonal(basis) is the diagonal of matrix(basis)
    when that matrix is diagonal, else None.
    """

    def oracle_nu(self, basis):
        return basis.nu

    def natural_nu(self, ell):
        return 2.0 * abs(ell)

    def diagonal(self, basis):
        return None


def _require_paper_nu(basis):
    # H0 of any other index would hold a centrifugal term these wells lack
    if basis.nu != 2.0 * abs(basis.ell):
        raise ValueError("this potential needs the basis index nu = 2|ell| = %r, got nu = %r"
                         % (2.0 * abs(basis.ell), basis.nu))


@dataclass(frozen=True)
class YukawaParams(Potential):
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

    def matrix(self, basis):
        _require_paper_nu(basis)
        return yukawa_matrix(self, basis)

    def radial(self, r):
        A, mr, mi = self.strength, self.mu_re, self.mu_im
        if self.variant == "sine":
            return A * np.sin(mi * r) * np.exp(-mr * r) / r
        if self.variant == "cosine":
            return -A * np.cos(mi * r) * np.exp(-mr * r) / r
        return -A * np.exp(-mr * r) / r

    def with_screening(self, delta):
        """This well with the screening set to delta: both parts for the
        cosine and sine variants, mu_re only for the classical one."""
        mu_im = 0.0 if self.variant == "classical" else float(delta)
        return replace(self, mu_re=float(delta), mu_im=mu_im)


@dataclass(frozen=True)
class KratzerParams(Potential):
    """Kratzer potential -coulomb/r + inverse_square/(2 r^2)."""

    coulomb: float
    inverse_square: float

    def __post_init__(self):
        _require_finite(self, "coulomb", "inverse_square")
        if self.inverse_square <= 0:
            raise ValueError("inverse_square must be > 0")

    def matrix(self, basis):
        return kratzer_matrix(self, basis)

    def radial(self, r):
        a, b = self.coulomb, self.inverse_square
        return -a / r + b / (2.0 * r * r)

    def oracle_nu(self, basis):
        # the volume-element power absorbs a 1/r, but 1/r^2 leaves a 1/x factor in
        # the integrand; one power less of weight makes it polynomial (hence exact)
        return basis.nu - 1.0

    def natural_nu(self, ell):
        return 2.0 * math.sqrt(ell * ell + self.inverse_square)

    def excess(self, basis):
        """B + ell^2 - nu^2/4, the coefficient of the 1/(2 r^2) term that H0 of
        the basis leaves to the matrix: exactly B at nu = 2|ell| and exactly 0
        at the natural nu."""
        if basis.nu == self.natural_nu(basis.ell):
            return 0.0
        return self.inverse_square + (basis.ell ** 2 - basis.nu ** 2 / 4)

    def diagonal(self, basis):
        if self.excess(basis) != 0:
            return None
        return np.full(basis.size, -self.coulomb * basis.lam)


@dataclass(frozen=True)
class MorseParams(Potential):
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

    def matrix(self, basis):
        _require_paper_nu(basis)
        return morse_matrix(self, basis)

    def radial(self, r):
        d, r0, w, beta = self.depth, self.r_eq, self.width, self.beta
        return d * (np.exp(-2 * w * (r / r0 - 1)) - 2 * beta * np.exp(-w * (r / r0 - 1)))


# ---------------------------------------------------------------------------
# shared kernels


# factors a running product takes before its mantissas are renormalized: a
# product of this many mantissas >= 1/2 is a normal number in any longdouble
_RUN = 512
# rows of C^T an O(N^2) pass works on at once: at N = 800 a tile is 800 KiB
_TILE = 128


def _running_products(X):
    """The cumulative products along each row of the non-negative longdouble
    X, as float64 mantissas in [1/2, 1) (0 for a zero product) and float64
    exponents.

    The mantissas of X are multiplied in longdouble, renormalized every
    _RUN factors, and the exponents summed, so no partial product leaves the
    range and each mantissa takes one rounding, in the cast.
    """
    m, e = np.frexp(X)
    e = np.cumsum(e, axis=1, dtype=float)
    carry = 0.0
    for i in range(0, m.shape[1], _RUN):
        run = m[:, i:i + _RUN]
        if i:
            run[:, 0] *= m[:, i - 1]
        np.cumprod(run, axis=1, out=run)
        run[...], d = np.frexp(run)
        d = d + carry
        e[:, i:i + _RUN] += d
        carry = d[:, -1:]
    return m.astype(float), e


def _upper_toeplitz(t, pad):
    """U[j, n] = t[n - j] for j <= n and pad below the diagonal: a strided
    view, unit stride along each row, of t with len(t) - 1 pads in front."""
    N = t.size
    buf = np.full(2 * N - 1, pad)
    buf[N - 1:] = t
    # the view's (j, n) entry is buf[N-1 - j + n]
    return np.ndarray((N, N), buf.dtype, buf, (N - 1) * buf.itemsize,
                      (-buf.itemsize, buf.itemsize))


def _normalized_connection(N, nu, sigma, shift=0):
    """2^shift C^, C^[n, j] = sigma^{-(nu+1)/2} C[n, j] sqrt(h_j/h_n) for
    j <= n, as a Fortran-ordered float64 array with every entry below
    _FLOOR zeroed.

    In closed form C^[n, j] = sigma^{-j-(nu+1)/2} (a_n/a_j) t_{n-j}, with
    a_n = prod_{i<=n} sqrt(i (i+nu)) and t_k = ((sigma-1)/sigma)^k / k!.  The
    row, column and Toeplitz factors are running products in longdouble
    (_running_products); the O(N^2) work is float64, in place in the output
    a tile of rows of C^T at a time: the sum of three exponents, one exp2,
    the product with three mantissas in [1/2, 1) and the floor.  Powers of
    two scale exactly, so the order of the products moves no bit.  The
    exponents are clamped first: below at 64 binades under the
    floor, for exp2 is slow far below the range and those entries are
    zeroed anyway, and above at 3 + shift, for C^ <= 1 and the mantissa
    product is at least 1/8, so only a zero mantissa (every t_k, k >= 1, at
    sigma = 1) meets a larger sum.  Each kept entry is within about five
    float64 roundings of the exact one.  The diagonal sigma^{-j-(nu+1)/2} is
    a cumulative product of 1/sigma in longdouble, cast once, so at sigma = 1
    it is exactly 2^shift.
    """
    s = np.longdouble(sigma)
    k = np.arange(1, N, dtype=np.longdouble)
    root = np.sqrt(k * (k + nu))
    # rows: a_n, sigma^{-j-(nu+1)/2} / a_j and t_k, each as its running product
    head = s ** (-(nu + 1) / 2)
    X = np.empty((3, N), np.longdouble)
    X[:, 0] = 1, head, 1
    X[0, 1:] = root
    X[1, 1:] = 1 / (s * root)
    X[2, 1:] = (s - 1) / s / k
    (m_row, m_col, m_t), (e_row, e_col, e_t) = _running_products(X)
    # C^T, one tile of rows at a time: each pass reads and writes with unit
    # stride, over the upper trapezoid only, in place in the output
    lo = _FLOOR_EXP - 64
    m_t, e_t = _upper_toeplitz(m_t, 0.0), _upper_toeplitz(e_t, lo)
    e_col = e_col + shift
    CT = np.zeros((N, N))
    for j0 in range(0, N, _TILE):
        j1 = min(j0 + _TILE, N)
        tile = CT[j0:j1, j0:]
        np.add(e_t[j0:j1, j0:], e_row[j0:], out=tile)
        tile += e_col[j0:j1, None]
        np.clip(tile, lo, 3 + shift, out=tile)
        np.exp2(tile, out=tile)
        tile *= m_t[j0:j1, j0:]
        tile *= m_row[j0:]
        tile *= m_col[j0:j1, None]
        np.copyto(tile, 0, where=tile < _FLOOR)
    diag = np.full(N, 1 / s)
    diag[0] = head
    diag = (np.cumprod(diag) * np.longdouble(2) ** shift).astype(float)
    diag[diag < _FLOOR] = 0
    np.fill_diagonal(CT, diag)
    return CT.T


# ---------------------------------------------------------------------------
# Yukawa

# Gauss nodes beyond the basis size: the rule integrates the degree-2N-2
# polynomial part exactly and spends the margin on the oscillating factor
_GAUSS_MARGIN = 64


# 2^_SHIFT scales the Gram factors of both Yukawa paths and 2^{-2 _SHIFT}
# their alpha, which keeps every product normal (module notes)
_SHIFT = 219


def _yukawa_real_matrix(p, basis):
    """-(A/r) e^{-mu_re r} = -A lam C^ C^T at real sigma = 1 + mu_re/lam.

    The factor is 2^_SHIFT C^ (exact) and the dsyrk alpha -A lam 2^{-2 _SHIFT},
    so every product it forms is a normal float64."""
    C = _normalized_connection(basis.size, basis.nu, 1.0 + p.mu_re / basis.lam, _SHIFT)
    return _gram([(-p.strength * basis.lam * 2.0 ** (-2 * _SHIFT), C)])


def _yukawa_gauss_matrix(p, basis):
    """Cosine or sine well at mu_im > 0 as V = P diag(f) P^T, P = C^ Q1
    (module notes), with f = A lam g and g = -cos or sin of mu_im y/(s lam).

    A kept entry of the floored table stays at least _FLOOR once scaled by
    2^_SHIFT sqrt|g| wherever |g| >= 2^{-2 _SHIFT}, so the dtrmm forms no
    subnormal product: g is 0 or cos or sin of a phase that no zero of
    theirs comes that close to, unless the phase itself is that small (a
    sine well at mu_im/lam near 1e-130).
    """
    N, nu, lam = basis.size, basis.nu, basis.lam
    s = 1.0 + p.mu_re / lam
    rule = gauss_laguerre_rule(N + _GAUSS_MARGIN, nu)
    phase = (p.mu_im / lam) * (rule.nodes / s)
    g = np.sin(phase) if p.variant == "sine" else -np.cos(phase)
    by_sign = np.argsort(g < 0, kind="stable")
    n_pos = int(np.count_nonzero(g >= 0))
    # the table's columns in sign order, each scaled: a C-ordered (nodes, N)
    # array, whose transpose is the Fortran-ordered operand dtrmm overwrites
    T = _rule_table(rule, N).T[by_sign]
    T *= (2.0 ** _SHIFT * np.sqrt(np.abs(g[by_sign]))).astype(float)[:, None]
    P = dtrmm(1.0, _normalized_connection(N, nu, s), T.T, lower=1, overwrite_b=1)
    np.copyto(P, 0, where=(P > -_FLOOR) & (P < _FLOOR))
    alpha = p.strength * lam * 2.0 ** (-2 * _SHIFT)
    return _gram(((alpha, P[:, :n_pos]), (-alpha, P[:, n_pos:])))


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


def _exp_factor(c, basis):
    """B with <phi_n| e^{-c r} |phi_m> = (B B^T)[n, m], float64 and
    Fortran-ordered.

    B = L_S C^', C^' the normalized connection matrix at nu+1 (floored at
    _FLOOR) and L_S the overlap's closed-form bidiagonal factor
    (basis._overlap_factor), applied in float64 in C^''s array.  B is floored
    again, since the two terms of a row can cancel.  Every product of two
    entries a dsyrk on B forms is then a normal float64.  c is a finite
    c >= 0 (the Morse wells' 2w/r_eq and w/r_eq).
    """
    N, nu = basis.size, basis.nu
    B = _normalized_connection(N, nu + 1, 1.0 + c / basis.lam)
    L0, L1 = _overlap_factor(N, nu)
    # B[n, j] = L0[n] C^'[n, j] + L1[n-1] C^'[n-1, j], in place on B^T one
    # tile of rows at a time; left of column j0 a tile of C^'^T is zero
    BT = B.T
    for j0 in range(0, N, _TILE):
        tile = BT[j0:j0 + _TILE, j0:]
        left = tile[:, :-1] * L1[j0:-1]
        tile *= L0[j0:]
        tile[:, 1:] += left
        np.copyto(tile, 0, where=np.abs(tile) < _FLOOR)
    return B


def morse_matrix(p, basis):
    """Generalized Morse potential matrix.

    Composed directly from the two exponential kernels of the potential,
    depth e^{2w} exp(-2w r/r_eq) - 2 beta depth e^{w} exp(-w r/r_eq),
    so the relative sign of the two wells cannot be misassembled: one
    Gram product over the two factors, built one at a time.  Both are
    floored at _FLOOR (_exp_factor), so no product falls below the normal
    float64 range, and the matrix is accurate to about N eps relative to the
    two wells' Gram scales, not elementwise.
    """
    w, r0 = p.width, p.r_eq
    return _gram((alpha, _exp_factor(c, basis)) for alpha, c in (
        (p.depth * np.exp(2 * w), 2 * w / r0), (-2 * p.beta * p.depth * np.exp(w), w / r0)))


# ---------------------------------------------------------------------------
# Kratzer

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def kratzer_matrix(p, basis):
    """Kratzer potential matrix, less the part of B/(2 r^2) that H0 of the basis holds.

    The Coulomb part is exactly diagonal (constant -coulomb lam) by the
    x^nu-weight orthogonality.  The inverse-square part, with the
    coefficient c = p.excess(basis) (B at the paper's nu = 2|ell|), has the
    closed form V2_nm = (lam c / 2) a_n a_m Gamma(min(n,m)+nu+1) / (nu min(n,m)!),
    obtained by telescoping L_n^nu into lower-index polynomials; it
    diverges for nu = 0, which is rejected unless c = 0.  At the natural
    nu, c = 0 and the matrix is the diagonal alone.

    Since a_m^2 = lam m!/Gamma(m+nu+1), the lower triangle (m <= n) is
    (lam^2 c / 2 nu) a_n/a_m, rank one: the outer product of g a and 1/a,
    with g = lam^2 c / 2 nu and a_n/a_0 = prod_{k<=n} sqrt(k/(k+nu)) taken in
    longdouble, about 2 ulp per element.  The diagonal is set directly to
    g - coulomb lam, so it is exactly zero where the two terms cancel.  When
    some entry of the outer product would leave the normal float64 range
    (at N = 800 and g near 1, from ell = 678 on), the product is formed in
    longdouble and only its lower triangle, which is at most |g|, is cast.
    """
    N, nu = basis.size, basis.nu
    c = p.excess(basis)
    if c == 0:
        return np.diag(p.diagonal(basis))
    if nu == 0:
        raise ValueError(
            "Kratzer elements at nu = 0 need |ell| >= 1 or the natural nu = 2 sqrt(ell^2 + B): "
            "the 1/r^2 integral diverges at nu = 0"
        )
    g = basis.lam ** 2 * c / (2.0 * nu)
    k = np.arange(1, N, dtype=np.longdouble)
    a = np.ones(N, dtype=np.longdouble)
    np.cumprod(np.sqrt(k / (k + nu)), out=a[1:])
    # a falls from a_0 = 1, so the outer product spans [|g| a_{N-1}, |g| / a_{N-1}]
    if abs(g) * a[-1] >= _TINY and abs(g) / a[-1] <= _HUGE:
        V = np.multiply.outer((g * a).astype(float), (1 / a).astype(float))
    else:
        # above the diagonal g a_n/a_m would overflow the cast to float64
        V = np.multiply.outer(g * a, 1 / a, out=np.zeros((N, N), np.longdouble),
                              where=np.tri(N, dtype=bool)).astype(float)
    V[np.diag_indices(N)] = g - p.coulomb * basis.lam
    return _symmetrize(V)


# ---------------------------------------------------------------------------
# function forms of the oracle's two methods


def radial_function(p):
    """The radial potential r -> V(r) solved for the given parameters."""
    return p.radial


def oracle_weight_nu(p, basis):
    """Quadrature weight exponent matched to the potential's singularity."""
    return p.oracle_nu(basis)
