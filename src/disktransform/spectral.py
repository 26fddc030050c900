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
one rank-one functional), so estimate_norm evaluates them by Gauss-Legendre
quadrature and assembles the Galerkin blocks between orthonormal bases
directly in float64, one coupled sector pair at a time, with no Gram matrix
and no rational arithmetic.  The Galerkin value is the largest singular
value over the blocks.

Root-finders for the two transcendental norm equations and the exact
weighted Hardy-type ratio checks live here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .diskalg import DiskPolynomial, norm_sq
from .specfun import _gl_nodes, bessel_j, bessel_zero
from .transforms import TransformKind, cauchy_P

__all__ = [
    "TruncationSpec",
    "NormEstimate",
    "estimate_norm",
    "solve_alpha",
    "solve_delta",
    "restricted_Z",
    "hardy_ratio",
    "extremal_phi0_ratio",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Input space spanned by the monomials z^m zbar^n with m + n <=
    max_total_degree and, when d_set is given, angular degree m - n in it."""
    max_total_degree: int
    d_set: Optional[frozenset] = None

    def __post_init__(self):
        if self.max_total_degree < 0:
            raise ValueError("max_total_degree must be >= 0")
        if self.d_set is not None:
            object.__setattr__(self, "d_set", frozenset(self.d_set))


@dataclass(frozen=True)
class NormEstimate:
    value: float
    truncation: TruncationSpec
    residual: float
    degenerate: bool = False  # top singular value numerically multiple

    def __post_init__(self):
        if self.value < 0 or self.residual < 0:
            raise ValueError("value and residual must be >= 0")


def _top_singular(blocks, tol: float, truncation: TruncationSpec) -> NormEstimate:
    """Largest singular value over float blocks, one direct SVD each.

    The residual ||B v - s u|| of the winning singular triple is reported
    and must meet tol.  Among the two largest singular values of each block,
    the runner-up overall within 1e-10 of the winner marks the estimate
    degenerate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    top_two = []
    best = 0.0
    best_block = None
    for B in blocks:
        svals = np.linalg.svd(B, compute_uv=False) if B.any() else [0.0]
        top_two = sorted([*top_two, *map(float, svals[:2])], reverse=True)[:2]
        if svals[0] > best:
            best = float(svals[0])
            best_block = B

    residual = 0.0
    if best_block is not None:
        U, S, Vt = np.linalg.svd(best_block)
        residual = float(np.linalg.norm(best_block @ Vt[0] - S[0] * U[:, 0]))
        if residual > max(tol, 1e-10):
            raise RuntimeError(f"singular value residual {residual:.3e} exceeds tol")
    degenerate = len(top_two) == 2 and best > 0 and (best - top_two[1]) < 1e-10
    return NormEstimate(value=best, truncation=truncation, residual=residual,
                        degenerate=degenerate)


def _disk_polys(kmax: int, beta: int, t: np.ndarray, deriv: bool = False) -> np.ndarray:
    """Radial disk polynomials psi_k(t) = sqrt(2k+beta+1) P_k^(0,beta)(2t-1)
    for k = 0..kmax, stacked on a new last axis after t's shape, or with
    deriv their derivatives psi_k'(t).  They are orthonormal on [0, 1] under
    the weight t^beta, so the functions psi_k(|z|^2) |z|^|d| e^{i d theta}
    with beta = |d| are an orthonormal basis of sector d.  Jacobi three-term
    recurrence, DLMF 18.9.1 with alpha = 0, differentiated term by term for
    psi'; P_1 is written out because the n = 0 step divides by beta."""
    x = 2.0 * t - 1.0
    P = np.empty(t.shape + (kmax + 1,))
    dP = np.zeros_like(P) if deriv else None  # d/dx
    P[..., 0] = 1.0
    if kmax >= 1:
        P[..., 1] = 1.0 + 0.5 * (beta + 2) * (x - 1.0)
        if deriv:
            dP[..., 1] = 0.5 * (beta + 2)
    for n in range(1, kmax):
        s = 2 * n + beta
        a = (s + 1) * (s + 2) / (2 * (n + 1) * (n + beta + 1))
        b = -beta * beta * (s + 1) / (2 * (n + 1) * (n + beta + 1) * s)
        c = n * (n + beta) * (s + 2) / ((n + 1) * (n + beta + 1) * s)
        P[..., n + 1] = (a * x + b) * P[..., n] - c * P[..., n - 1]
        if deriv:
            dP[..., n + 1] = a * P[..., n] + (a * x + b) * dP[..., n] - c * dP[..., n - 1]
    scale = np.sqrt(2 * np.arange(kmax + 1) + beta + 1)
    return 2.0 * dP * scale if deriv else P * scale


class _Radial:
    """Radial forms at the n Gauss-Legendre nodes t of [0, 1].

    Each form takes the first k orthonormal profiles g = psi_0..psi_{k-1}
    of a sector with weight t^beta and returns an (n, k) array of values at
    the nodes, except moment, which returns k numbers.  The inner integrals
    in s and v use the same n-point rule.
    """

    def __init__(self, n: int):
        x, wx = _gl_nodes(n)
        self.t, self.w = 0.5 * (x + 1.0), 0.5 * wx

    def value(self, beta, k):
        """g(t)"""
        return _disk_polys(k - 1, beta, self.t)

    def tail(self, beta, k):
        """int_t^1 g(s) ds"""
        t, w = self.t, self.w
        psi = _disk_polys(k - 1, beta, t[:, None] + np.outer(1.0 - t, t))
        return (1.0 - t)[:, None] * np.einsum("j,ijk->ik", w, psi)

    def hardy(self, beta, k, gamma, deriv=False):
        """int_0^1 v^gamma g(t v) dv, or with g' for deriv"""
        t, w = self.t, self.w
        psi = _disk_polys(k - 1, beta, np.outer(t, t), deriv)
        return np.einsum("j,ijk->ik", w * t**gamma, psi)

    def moment(self, beta, k):
        """int_0^1 s^beta g(s) ds = <g, psi_0> / psi_0 with the constant
        psi_0 = sqrt(beta + 1), so 1/sqrt(beta + 1) for g = psi_0 and zero
        otherwise: exact by orthogonality, where quadrature would leave
        rounding noise in the zeros."""
        return np.eye(1, k)[0] / math.sqrt(beta + 1)


@dataclass(frozen=True)
class _Forms:
    """A transform's action on one angular sector d (beta = |d|) of profile
    g(t), t = |z|^2: the linear part sends sector d to sector d - shift with
    profile upper(F, d, k) for d >= 1 and lower(F, beta, k) for d <= 0, and
    for d <= 0 the antilinear part sends it to the constant
    anti(beta) int_0^1 s^beta conj(g) ds in sector 2 - d - shift."""
    shift: int
    upper: Callable
    lower: Callable
    anti: Callable


def _H_upper(F: _Radial, d: int, k: int):
    if d == 1:  # z^{-1} t g = zbar g: the profile of sector -1 is g itself
        return F.value(1, k)
    return F.t[:, None] * F.value(d, k) - (d - 1) * F.tail(d, k)


# The monomial rules of transforms.cauchy_P and transforms.beurling_H,
# rewritten on profiles in t = |z|^2 (cf. transforms.radial_P_gd).
_FORMS = {
    TransformKind.CauchyTransformP: _Forms(
        shift=1,
        upper=lambda F, d, k: -F.tail(d, k),
        lower=lambda F, beta, k: F.hardy(beta, k, beta),
        anti=lambda beta: -1.0,
    ),
    TransformKind.BeurlingH: _Forms(
        shift=2,
        upper=_H_upper,
        lower=lambda F, beta, k: F.hardy(beta, k, beta + 1, deriv=True),
        anti=lambda beta: -(beta + 1.0),
    ),
}


def _blocks(kind: TransformKind, trunc: TruncationSpec):
    """Realified Galerkin blocks of kind between orthonormal bases, in float64.

    Input sector d carries psi_k for k <= (D - |d|)//2.  By _FORMS, sector 1
    stands alone and each d <= 0 couples with 2 - d through the output
    sector 2 - d - shift, which takes 2 - d's linear image and d's
    antilinear constant; the real and imaginary coefficient blocks carry that
    constant with signs + and -.

    Rows sample each output sector e at n Gauss-Legendre nodes t_i in [0, 1]
    with weights sqrt(w_i t_i^|e|), so ||B c|| is the exact L2 norm of the
    image when q(t)^2 t^|e| has degree <= 2n - 1 for every image profile q.
    That degree is at most D + 1 for P (Volterra 2(k+1) + d - 1, Hardy
    2k + |d| + 1, constant |d| + 1) and D for H (t g - (d-1) int_t^1 g at
    2k + d, Hardy of g' at 2k + |d|, constant |d|), and the inner integrals
    in s and v have degree at most D, so n = (D + 3)//2 integrates every
    term exactly.
    """
    forms = _FORMS.get(kind)
    if forms is None:
        raise ValueError(f"no orthonormal-basis radial forms for {kind.name}")
    D = trunc.max_total_degree
    size = {d: (D - abs(d)) // 2 + 1 for d in range(-D, D + 1)
            if trunc.d_set is None or d in trunc.d_set}
    if not size:
        raise ValueError("truncation admits no basis monomials")
    F = _Radial((D + 3) // 2)
    n = len(F.t)

    def rows(e):
        return np.sqrt(F.w * F.t ** abs(e))[:, None]

    if 1 in size:
        B = rows(1 - forms.shift) * forms.upper(F, 1, size[1])
        yield B
        yield B
    for d in range(0, -D - 1, -1):
        a, b = size.get(d, 0), size.get(2 - d, 0)
        if not a + b:
            continue
        hi = rows(2 - d - forms.shift)
        B = np.zeros((2 * n, a + b))
        if a:
            B[:n, :a] = rows(d - forms.shift) * forms.lower(F, -d, a)
            anti = hi * (forms.anti(-d) * F.moment(-d, a))
        if b:
            B[n:, a:] = hi * forms.upper(F, 2 - d, b)
        for sign in (1.0, -1.0):
            if a:
                B[n:, :a] = sign * anti
            yield B.copy()


def estimate_norm(kind: TransformKind, trunc: TruncationSpec, tol: float) -> NormEstimate:
    """Galerkin lower bound for the L2 norm of P (CauchyTransformP) or H
    (BeurlingH) on the truncated basis; nondecreasing in max_total_degree.

    Solved in the orthonormal disk-polynomial basis in float64 (see
    _blocks).  Any other kind raises ValueError, as does a truncation that
    admits no basis monomial.
    """
    return _top_singular(_blocks(kind, trunc), tol, trunc)


def _bisect(f, a, b, max_iter=200):
    fa = f(a)
    fb = f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def solve_alpha(tol: float = 1e-12) -> float:
    """Root of 2 J0(2/x) - x J1(2/x) on [1.0, 1.2] (bisection to the last
    float, then a residual check against tol)."""

    def f(x):
        return 2 * bessel_j(0, 2 / x) - x * bessel_j(1, 2 / x)

    root = _bisect(f, 1.0, 1.2)
    if abs(f(root)) >= tol:
        raise RuntimeError(f"alpha residual {abs(f(root)):.3e} not below {tol:.1e}")
    return root


def solve_delta(tol: float = 1e-12) -> float:
    """Root of J1(x) - x J0(x) on (2/sqrt(3/2 + 2/j1^2), j0); the bracket
    endpoints are checked to straddle a sign change."""
    j0 = bessel_zero(0)
    j1 = bessel_zero(1)
    lo = 2 / math.sqrt(1.5 + 2 / j1**2)
    hi = j0

    def f(x):
        return bessel_j(1, x) - x * bessel_j(0, x)

    root = _bisect(f, lo, hi)
    if abs(f(root)) >= tol:
        raise RuntimeError(f"delta residual {abs(f(root)):.3e} not below {tol:.1e}")
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


def _int01_pow_log(a: int, j: int) -> Fraction:
    """Exact int_0^1 r^a (-log r)^j dr = j! / (a+1)^{j+1} for a > -1."""
    return Fraction(math.factorial(j), (a + 1) ** (j + 1))


def hardy_ratio(d: int, u) -> Fraction:
    """Exact ratio of the weighted Hardy-type quadratic forms for a radial
    polynomial profile u(rho) = sum_k u[k] rho^k with rational coefficients.

    d <= 0:  int_0^1 (int_0^r rho^{1-d} u)^2 r^{2d-1} dr / int_0^1 rho u^2
    d >= 1:  same with the inner integral taken from r to 1.

    The d >= 1 inner integral picks up a log term when some exponent
    1 - d + k hits -1; products of powers and logs integrate exactly via
    int_0^1 r^a (-log r)^j dr = j!/(a+1)^{j+1}, so the result is rational.
    """
    coeffs = [Fraction(c) for c in u]
    if not any(coeffs):
        raise ValueError("profile must not be identically zero")
    den = Fraction(0)
    for k, ck in enumerate(coeffs):
        for l, cl in enumerate(coeffs):
            den += ck * cl * Fraction(1, k + l + 2)

    num = Fraction(0)
    if d <= 0:
        # inner integral: sum_k u_k r^{2-d+k} / (2-d+k); squared, times r^{2d-1}
        for k, ck in enumerate(coeffs):
            for l, cl in enumerate(coeffs):
                # squared powers give r^{4-2d+k+l}; the weight r^{2d-1}
                # leaves r^{3+k+l}
                ek = 2 - d + k
                el = 2 - d + l
                num += ck * cl * Fraction(1, ek * el) * Fraction(1, 4 + k + l)
    else:
        # inner integral as (powers, log coefficient):
        #   exponent e = 1 - d + k; e != -1 -> (1 - r^{e+1})/(e+1); e == -1 -> -log r
        parts = []
        for k, ck in enumerate(coeffs):
            e = 1 - d + k
            if e == -1:
                parts.append((None, ck))
            else:
                parts.append(((e + 1, ck * Fraction(1, e + 1)), None))
        w = 2 * d - 1
        for pk, lk in parts:
            for pl, ll in parts:
                if pk is not None and pl is not None:
                    (e1, c1), (e2, c2) = pk, pl
                    # (c1 - c1 r^{e1})(c2 - c2 r^{e2}) r^w
                    num += c1 * c2 * (
                        _int01_pow_log(w, 0) - _int01_pow_log(w + e1, 0)
                        - _int01_pow_log(w + e2, 0) + _int01_pow_log(w + e1 + e2, 0)
                    )
                elif pk is not None and pl is None:
                    (e1, c1) = pk
                    # (c1 - c1 r^{e1}) * ll (-log r) * r^w
                    num += c1 * ll * (_int01_pow_log(w, 1) - _int01_pow_log(w + e1, 1))
                elif pk is None and pl is not None:
                    (e2, c2) = pl
                    num += lk * c2 * (_int01_pow_log(w, 1) - _int01_pow_log(w + e2, 1))
                else:
                    num += lk * ll * _int01_pow_log(w, 2)
    return num / den


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
