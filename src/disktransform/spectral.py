"""Operator-norm estimation in the orthonormal disk-polynomial basis.

The conjugating transforms are only real-linear, so a complex coefficient
a = x + iy is split into (x, y) and an operator becomes a real matrix acting
on stacked (Re, Im) coordinates.  Every transform normed here sends a
function to a linear part plus a linear part of its conjugate, both real, so
the realified matrix is block diagonal: (T1 + T2) on the real block,
(T1 - T2) on the imaginary block.

Each angular sector's radial factors are Jacobi polynomials in |z|^2, so the
disk polynomials psi_k(|z|^2) |z|^|d| e^{i d theta} are an orthonormal basis
of the truncated input space.  On a sector the monomial rules of P and H are
radial forms in t = |z|^2 (multiplications, Volterra and Hardy integrals and
one rank-one functional), each of them one Jacobi polynomial by DLMF 18.9.
So estimate_norm evaluates every form at the Gauss-Legendre nodes alone, in
one recurrence for all sectors, and assembles the Galerkin blocks between
orthonormal bases directly in float64, with no Gram matrix and no rational
arithmetic.  The real and imaginary blocks of a coupled sector pair are
mirrors, so one block per pair is checked: estimate_norm takes P's largest
singular value over the blocks, and _isometry_defect H's max |B^T B - I|.

The two transcendental norm equations (solved by specfun's bracketed Newton
walk, which also finds the Bessel zeros) and the exact weighted Hardy-type
ratio checks live here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .diskalg import DiskPolynomial, norm_sq
from .specfun import _gl_nodes, _newton_root, bessel_j
from .transforms import TransformKind, cauchy_P

__all__ = [
    "MAX_TOTAL_DEGREE",
    "NormEstimate",
    "estimate_norm",
    "solve_alpha",
    "solve_delta",
    "restricted_Z",
    "hardy_ratio",
    "extremal_phi0_ratio",
]


# Largest truncation degree: (D + 3)//2 = 81 nodes is as far as _gl_nodes'
# weights are verified, and the assembly's memory grows as D^3.
MAX_TOTAL_DEGREE = 160

# Largest accepted residual ||B v - s u|| of a winning singular triple, and
# largest accepted |f(root)| of the two norm equations.
_SVD_RESIDUAL_TOL = 1e-10
_ROOT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class NormEstimate:
    """A Galerkin value and the residual of its singular triple (see
    _top_singular: a nonzero value is a double singular value)."""
    value: float
    residual: float

    def __post_init__(self):
        if self.value < 0 or self.residual < 0:
            raise ValueError("value and residual must be >= 0")


def _top_singular(blocks) -> NormEstimate:
    """Largest singular value over float blocks, one direct SVD each.

    Every block B stands for itself and its mirror R B C, where R and C are
    diagonal matrices of signs (see _blocks).  Both are orthogonal, so the
    mirror has exactly B's singular values and the top one is double: a
    nonzero estimate is degenerate by construction.  A block whose Frobenius
    norm, which bounds its largest singular value, is no more than the best
    so far cannot win and is not decomposed; every other block gets one SVD
    with vectors.  The residual ||B v - s u|| of the winning singular triple,
    from that same decomposition, is reported and must not exceed
    _SVD_RESIDUAL_TOL.
    """
    best = residual = 0.0
    for B in blocks:
        if np.linalg.norm(B) <= best:
            continue
        U, S, Vt = np.linalg.svd(B, full_matrices=False)
        if S[0] > best:
            best = float(S[0])
            residual = float(np.linalg.norm(B @ Vt[0] - S[0] * U[:, 0]))
    if residual > _SVD_RESIDUAL_TOL:
        raise RuntimeError(
            f"singular value residual {residual:.3e} exceeds {_SVD_RESIDUAL_TOL}")
    return NormEstimate(value=best, residual=residual)


def _jacobi(kmax: int, a: int, beta, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomials P_k^(a,beta)(x) for k = 0..kmax and a in {0, 1} at
    the points of a 1-D x, on a new last axis.  Three-term recurrence, DLMF
    18.9.1-2; P_1 is written out because the n = 0 step divides by a + beta,
    which is 0 for a = beta = 0.  kmax may be -1.

    beta is an int or a 1-D array of ints; an array runs all its weights in
    one recurrence on a new leading axis, from step coefficients tabulated
    once.  The factors A x + B of all steps are formed in one array pass, so
    a step is three elementwise operations, (A x + B) P_k - C P_{k-1}, each
    element rounded in the same order as in scalar arithmetic.
    """
    bt = np.asarray(beta)[..., None]  # on x's axis
    P1 = (a + 1.0) + 0.5 * (a + bt + 2) * (x - 1.0)
    out = np.empty(P1.shape + (kmax + 1,))
    out[..., :1] = P0 = 1.0  # slices: kmax = -1 leaves no column
    out[..., 1:2] = P1[..., None]
    # steps n = 1..kmax-1: numerators and denominators are integers, exact
    # in float64, so each quotient is rounded once, as in scalar arithmetic
    n = np.arange(1.0, kmax).reshape((-1,) + bt.ndim * (1,))
    nb = n + bt
    s = n + nb + a
    s1, s2 = s + 1.0, s + 2.0
    den = (n + 1.0) * (nb + a + 1.0) * s
    AxB = s * s1 * s2 / (den + den) * x + (a * a - bt * bt) * s1 / (den + den)
    for k, (AB, C) in enumerate(zip(AxB, (n + a) * nb * s2 / den), 2):
        P0, P1 = P1, AB * P1 - C * P0
        out[..., k] = P1
    return out


class _Radial:
    """Radial forms at the n Gauss-Legendre nodes t of [0, 1].

    Each form takes a 1-D array of sector weights beta and the first k
    orthonormal profiles g = psi_0..psi_{k-1} of each sector, with weight
    t^beta, and returns their values at the nodes as a (len(beta), n, k)
    array.  With x = 2t - 1 and psi_j = sqrt(2j+beta+1) P_j^(0,beta)(x),
    the derivative and Rodrigues-type identities of DLMF 18.9 turn every
    Volterra and Hardy integral of psi_j into one Jacobi polynomial at the
    same nodes, so no form samples an inner integral.  x is the Legendre
    node itself, where the weight belongs, not 2t - 1 rounded back from t.
    """

    def __init__(self, n: int):
        self.x, wx = _gl_nodes(n)
        self.t, self.w = 0.5 * (self.x + 1.0), 0.5 * wx

    @staticmethod
    def _norms(beta, k):  # sqrt(2j + beta + 1) for j < k, as (len(beta), 1, k)
        return np.sqrt(np.arange(1, 2 * k, 2) + beta[:, None, None])

    def value(self, beta, k):
        """g(t)"""
        return self._norms(beta, k) * _jacobi(k - 1, 0, beta, self.x)

    def tail(self, beta, k):
        """int_t^1 g(s) ds = (1 - t) sqrt(2j+beta+1)/(j+1) P_j^(1,beta-1)(x),
        beta >= 1"""
        out = _jacobi(k - 1, 1, beta - 1, self.x)
        out *= self._norms(beta, k) / np.arange(1, k + 1)
        out *= (1.0 - self.t)[:, None]
        return out

    def hardy(self, beta, k):
        """int_0^1 v^beta g(t v) dv = sqrt(2j+beta+1) (t - 1)/j
        P_{j-1}^(1,beta+1)(x), and 1/sqrt(beta + 1) for j = 0"""
        out = np.empty((len(beta), len(self.t), k))
        out[..., 0] = 1.0 / np.sqrt(beta + 1.0)[:, None]
        out[..., 1:] = _jacobi(k - 2, 1, beta + 1, self.x)
        out[..., 1:] *= self._norms(beta, k)[..., 1:] / np.arange(1, k)
        out[..., 1:] *= (self.t - 1.0)[:, None]
        return out

    def hardy_deriv(self, beta, k):
        """int_0^1 v^(beta+1) g'(t v) dv = sqrt(2j+beta+1) P_{j-1}^(0,beta+2)(x),
        and 0 for j = 0"""
        out = np.zeros((len(beta), len(self.t), k))
        out[..., 1:] = _jacobi(k - 2, 0, beta + 2, self.x)
        out[..., 1:] *= self._norms(beta, k)[..., 1:]
        return out


@dataclass(frozen=True)
class _Forms:
    """A transform's action on one angular sector d (beta = |d|) of profile
    g(t), t = |z|^2: the linear part sends sector d to sector d - shift with
    profile upper(F, d, k) for d >= 1 and lower(F, beta, k) for d <= 0, and
    for d <= 0 the antilinear part sends it to the constant
    anti(beta) int_0^1 s^beta conj(g) ds in sector 2 - d - shift.  upper
    and lower take an array of sectors or weights, as _Radial's forms do."""
    shift: int
    upper: Callable
    lower: Callable
    anti: Callable


def _H_upper(F: _Radial, d: np.ndarray, k: int):
    # t g - (d-1) int_t^1 g, but for d = 1 z^{-1} t g = zbar g: the profile
    # of sector -1 is g itself
    out = F.value(d, k)
    i = int(d[0] == 1)  # d ascends, so only d[0] can be 1
    out[i:] *= F.t[:, None]
    out[i:] -= (d[i:] - 1)[:, None, None] * F.tail(d[i:], k)
    return out


# The monomial rules of transforms.cauchy_P and transforms.beurling_H,
# rewritten on profiles in t = |z|^2.
_FORMS = {
    TransformKind.CauchyTransformP: _Forms(
        shift=1,
        upper=lambda F, d, k: -F.tail(d, k),
        lower=_Radial.hardy,
        anti=lambda beta: -1.0,
    ),
    TransformKind.BeurlingH: _Forms(
        shift=2,
        upper=_H_upper,
        lower=_Radial.hardy_deriv,
        anti=lambda beta: -(beta + 1.0),
    ),
}


def _blocks(kind: TransformKind, max_degree: int, d_set):
    """Realified Galerkin blocks of kind between orthonormal bases, in
    float64, on estimate_norm's truncation with D = max_degree; the
    ValueErrors estimate_norm documents are raised here.

    Input sector d carries psi_k for k <= (D - |d|)//2.  By _FORMS, sector 1
    stands alone and each d <= 0 couples with 2 - d through the output
    sector 2 - d - shift, which takes 2 - d's linear image and d's
    antilinear constant.  The real and imaginary coefficient blocks carry
    that constant with signs + and -: the minus block is R B C for the plus
    block B, with R = diag(I, -I) on the two output sectors and
    C = diag(I_a, -I_b) on the columns of d and 2 - d, so it has B's
    singular values (sector 1's two blocks are equal).  Only B is yielded,
    once for sector 1 and once per coupled pair by increasing |d|, for both
    blocks of the pair.  Each form is evaluated once, for every admitted
    sector it applies to.

    Rows sample each output sector e at n Gauss-Legendre nodes t_i in [0, 1]
    with weights sqrt(w_i t_i^|e|), so ||B c|| is the exact L2 norm of the
    image when q(t)^2 t^|e| has degree <= 2n - 1 for every image profile q.
    That degree is at most D + 1 for P (Volterra 2(k+1) + d - 1, Hardy
    2k + |d| + 1, constant |d| + 1) and D for H (t g - (d-1) int_t^1 g at
    2k + d, Hardy of g' at 2k + |d|, constant |d|), so n = (D + 3)//2
    suffices.
    """
    forms = _FORMS[kind]
    if not 0 <= max_degree <= MAX_TOTAL_DEGREE:
        raise ValueError(f"max_degree must be in [0, {MAX_TOTAL_DEGREE}]")
    D = max_degree
    size = {d: (D - abs(d)) // 2 + 1 for d in range(-D, D + 1)
            if d_set is None or d in d_set}
    if not size:
        raise ValueError("truncation admits no basis monomials")
    F = _Radial((D + 3) // 2)
    n = len(F.t)
    shift = forms.shift
    rows = np.sqrt(F.w * F.t ** np.arange(D + 3)[:, None])[:, :, None]  # by |e|

    def weighted(form, beta, e):
        """form for the ascending weights beta, times the rows of sectors e"""
        if not len(beta):
            return iter(())
        out = form(F, beta, (D - beta[0]) // 2 + 1)
        out *= rows[e]
        return iter(out)

    # weights by ascending |d|: lo for the sectors d <= 0, hi for 2 - d >= 1
    lo = np.array([b for b in range(D + 1) if -b in size])
    hi = np.array([e for e in range(1, D + 1) if e in size])
    lower = weighted(forms.lower, lo, lo + shift)
    upper = weighted(forms.upper, hi, abs(hi - shift))
    if 1 in size:
        yield next(upper)[:, :size[1]]
    for d in range(0, -D - 1, -1):
        a, b = size.get(d, 0), size.get(2 - d, 0)
        if not a + b:
            continue
        B = np.zeros((2 * n, a + b))
        if a:
            B[:n, :a] = next(lower)[:, :a]
            # int_0^1 s^beta g(s) ds = <g, psi_0> / psi_0 with the constant
            # psi_0 = sqrt(beta + 1): exact by orthogonality, where
            # quadrature would leave rounding noise in the zeros
            B[n:, 0] = rows[2 - d - shift, :, 0] * (forms.anti(-d) * (1.0 / math.sqrt(1 - d)))
        if b:
            B[n:, a:] = next(upper)[:, :b]
        yield B


def estimate_norm(max_degree: int, d_set=None) -> NormEstimate:
    """Galerkin lower bound for the L2 norm of P on the monomials z^m zbar^n
    with m + n <= max_degree and, when d_set is given, m - n in d_set;
    nondecreasing in max_degree.  Solved in the orthonormal disk-polynomial
    basis in float64 (see _blocks); max_degree outside [0, MAX_TOTAL_DEGREE]
    and a truncation that admits no basis monomial raise ValueError."""
    return _top_singular(_blocks(TransformKind.CauchyTransformP, max_degree, d_set))


def _isometry_defect(max_degree: int) -> float:
    """max |B^T B - I| over H's blocks at D = max_degree; a mirror R B C
    (see _blocks) has the Gram matrix C (B^T B) C, so it is covered too."""
    return max(float(np.abs(B.T @ B - np.eye(B.shape[1])).max())
               for B in _blocks(TransformKind.BeurlingH, max_degree, None))


def _check_residual(name: str, f: float) -> None:
    if abs(f) >= _ROOT_RESIDUAL_TOL:
        raise RuntimeError(f"{name} residual {abs(f):.3e} not below {_ROOT_RESIDUAL_TOL}")


def solve_alpha() -> float:
    """Root of 2 J0(2/x) - x J1(2/x) on [1.0, 1.2]: of the two floats
    across the sign change, the one with the smaller residual (bracketed
    Newton, see _newton_root), checked against _ROOT_RESIDUAL_TOL."""

    def fdf(x):
        y = 2 / x
        j0, j1 = bessel_j(0, y), bessel_j(1, y)
        # J0' = -J1 and J1' = J0 - J1/y (DLMF 10.6), with dy/dx = -2/x^2
        return 2 * j0 - x * j1, 4 * j1 / (x * x) + 2 * j0 / x - 2 * j1

    root = _newton_root(fdf, 1.0, 1.2)
    _check_residual("alpha", fdf(root)[0])
    return root


def solve_delta() -> float:
    """Root of J1(x) - x J0(x) on [2/1.2, 2.0], the image of solve_alpha's
    bracket under delta = 2/alpha: of the two floats across the sign
    change, the one with the smaller residual (bracketed Newton, see
    _newton_root), checked against _ROOT_RESIDUAL_TOL."""

    def fdf(x):
        b0, b1 = bessel_j(0, x), bessel_j(1, x)
        return b1 - x * b0, b1 * (x - 1 / x)

    root = _newton_root(fdf, 2 / 1.2, 2.0)
    _check_residual("delta", fdf(root)[0])
    return root


def restricted_Z(lam: float) -> float:
    """The two-component reduction's fixed-point map.

    With b = 2/sqrt(lam) and c = J0(b)/J1(b):
        X = 8 (1 + c^2 - sqrt(lam) c),  Y = -4 + 8/lam + 8 c^2 / lam,
    returns Z = X / Y.  Raises ZeroDivisionError when J1(b) or Y vanishes.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    b = 2 / math.sqrt(lam)
    j1v = bessel_j(1, b)
    if abs(j1v) < 1e-14:
        raise ZeroDivisionError("J1 vanishes at 2/sqrt(lam)")
    c = bessel_j(0, b) / j1v
    X = 8 * (1 + c * c - math.sqrt(lam) * c)
    Y = -4 + 8 / lam + 8 * c * c / lam
    if abs(Y) < 1e-14:
        raise ZeroDivisionError("denominator Y vanishes")
    return X / Y


def _square_int01(f: dict, w: int) -> Fraction:
    """Exact int_0^1 f(r)^2 r^w dr for f = sum c r^a (-log r)^j given as
    {(a, j): c}, term by term through int_0^1 r^a (-log r)^j dr =
    j!/(a+1)^{j+1}, a > -1."""
    return sum(ci * cj * Fraction(math.factorial(i + j), (a + b + w + 1) ** (i + j + 1))
               for (a, i), ci in f.items() for (b, j), cj in f.items())


def hardy_ratio(d: int, u) -> Fraction:
    """Exact ratio of the weighted Hardy-type quadratic forms for a radial
    polynomial profile u(rho) = sum_k u[k] rho^k with rational coefficients.

    d <= 0:  int_0^1 (int_0^r rho^{1-d} u)^2 r^{2d-1} dr / int_0^1 rho u^2
    d >= 1:  same with the inner integral taken from r to 1.

    The d >= 1 inner integral of rho^{-1} is -log r, so the inner integral
    is a sum of terms r^a (-log r)^j and the result is rational.
    """
    coeffs = [Fraction(c) for c in u]
    if not any(coeffs):
        raise ValueError("profile must not be identically zero")
    inner: dict = {}  # (power of r, power of -log r) -> coefficient
    for k, c in enumerate(coeffs):
        e = 1 - d + k  # the inner integrand's power of rho
        if d <= 0:
            terms = {(e + 1, 0): c / (e + 1)}
        elif e == -1:
            terms = {(0, 1): c}
        else:
            terms = {(0, 0): c / (e + 1), (e + 1, 0): -c / (e + 1)}
        for key, v in terms.items():
            inner[key] = inner.get(key, 0) + v
    profile = {(k, 0): c for k, c in enumerate(coeffs)}
    return _square_int01(inner, 2 * d - 1) / _square_int01(profile, 1)


def extremal_phi0_ratio(degree: int) -> float:
    """Rayleigh quotient of the truncated extremal density.

    The extremal density is f0(r) + f2(r) e^{2 i t} with f0, f2 multiples of
    the order-0 and order-2 Bessel functions of 2r/sqrt(lam0); truncating
    their (entire) power series at the given total degree yields a
    polynomial whose Rayleigh quotient approaches the norm root from below.
    Each float coefficient enters as its exact Fraction value, so both norms
    are exact and only the final quotient and square root round.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2 (both angular parts present)")
    alpha = solve_alpha()
    lam0 = alpha * alpha
    pref = 2.0 / (math.sqrt(lam0) * bessel_j(1, 2 / math.sqrt(lam0)))
    coeffs: dict = {}
    # order-0 series: sum_k (-1)^k (r^2/lam0)^k / (k!)^2 -> monomial (k, k)
    k = 0
    while 2 * k <= degree:
        c = pref * (-1) ** k / (math.factorial(k) ** 2 * lam0**k)
        coeffs[(k, k)] = Fraction(c)
        k += 1
    # order-2 series: sum_k (-1)^k r^{2k+2} / (k! (k+2)! lam0^{k+1}) * e^{2it}
    k = 0
    while 2 * k + 2 <= degree:
        c = pref * (-1) ** k / (math.factorial(k) * math.factorial(k + 2) * lam0 ** (k + 1))
        coeffs[(k + 2, k)] = Fraction(c)
        k += 1
    phi = DiskPolynomial(coeffs)
    return math.sqrt(norm_sq(cauchy_P(phi)) / norm_sq(phi))
