"""Closed-form integral transforms of disk polynomials.

Every operator acts per monomial a z^m zbar^n and returns a DiskPolynomial,
exactly.  Each monomial's images are added under their output keys as int
fields that are not reduced (_add_fields); each output coefficient is
brought to normal form once, at the end, and the keys keep the order in
which the rules first reach them.  t_hs sums its constant as int fields too
and adds it to the z^0 coefficient of cauchy_P's result.  Conventions (dA
normalized by 1/pi):

    cauchy_integral  C[f](z) = int f(w) / (w - z) dA(w)
    j0_op            J0[f](z) = int z f(w) / (1 - conj(w) z) dA(w)
    j0_star          J0*[f](z) = int conj(w) f(w) / (1 - conj(w) z) dA(w)
    cauchy_P         P[f] = -C[f] - J0[conj(f)]
    beurling_S       S[f](z) = -p.v. int f(w) / (z - w)^2 dA(w)
    bergman_B        B[f](z) = int f(w) / (1 - z conj(w))^2 dA(w)
    beurling_H       H[f] = S[f] - B[conj(f)]  (equals d/dz of P[f])
    t_hs             T[f] = P[f] + int (f(w)/(2w) - conj(f(w))/(2 conj(w))) dA

P solves d/dzbar u = f with boundary behavior Re u = 0 on |z| = 1; T is the
variant normalized to also have Im T[f](0) = 0.
"""
from __future__ import annotations

from enum import Enum

from .diskalg import DiskPolynomial, ExactScalar, _from_fields, _poly

__all__ = [
    "TransformKind",
    "apply_transform",
    "cauchy_integral",
    "j0_op",
    "j0_star",
    "cauchy_P",
    "beurling_S",
    "bergman_B",
    "beurling_H",
    "t_hs",
]


class TransformKind(Enum):
    CauchyIntegral = "CauchyIntegral"
    J0 = "J0"
    J0Star = "J0Star"
    CauchyTransformP = "CauchyTransformP"
    BeurlingS = "BeurlingS"
    BergmanB = "BergmanB"
    BeurlingH = "BeurlingH"
    HengartnerSchoberT = "HengartnerSchoberT"


def _add_fields(out: dict, key: tuple, a: int, b: int, d: int) -> None:
    """Adds (a + b i)/d, d > 0, to out[key] as int fields (a, b, d) that are
    not brought to normal form; a new key goes to the end of out."""
    f = out.get(key)
    if f is None:
        out[key] = a, b, d
    else:
        c, e, g = f
        out[key] = a * g + c * d, b * g + e * d, d * g


def cauchy_integral(phi: DiskPolynomial) -> DiskPolynomial:
    """C[a z^m zbar^n] = a (z^{m-n-1} - z^m zbar^{n+1}) / (n+1)   if m > n,
    -a z^m zbar^{n+1} / (n+1) otherwise."""
    out: dict = {}
    for (m, n), a in phi.items():
        x, y, q = a._a, a._b, a._d * (n + 1)
        if m - n >= 1:
            _add_fields(out, (m - n - 1, 0), x, y, q)
        _add_fields(out, (m, n + 1), -x, -y, q)
    return _from_fields(out)


def j0_op(phi: DiskPolynomial) -> DiskPolynomial:
    """J0[a z^m zbar^n] = a z^{m-n+1} / (m+1) if m >= n, else 0."""
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n:
            _add_fields(out, (m - n + 1, 0), a._a, a._b, a._d * (m + 1))
    return _from_fields(out)


def j0_star(phi: DiskPolynomial) -> DiskPolynomial:
    """Adjoint rule: J0*[a z^m zbar^n] = a z^{m-n-1} / (m+1) if m >= n+1, else 0.

    Derived by expanding the kernel 1/(1 - conj(w) z) in powers of conj(w) z
    and applying the monomial integral; validated against the quadrature
    oracle in the test suite before anything downstream relies on it.
    """
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n + 1:
            _add_fields(out, (m - n - 1, 0), a._a, a._b, a._d * (m + 1))
    return _from_fields(out)


def cauchy_P(phi: DiskPolynomial) -> DiskPolynomial:
    """P[a z^m zbar^n] per the closed monomial rule.

    m > n:   -a (z^{m-n-1} - z^m zbar^{n+1}) / (n+1)
    m <= n:   a z^m zbar^{n+1} / (n+1) - conj(a) z^{1+n-m} / (n+1)
    """
    out: dict = {}
    for (m, n), a in phi.items():
        x, y, q = a._a, a._b, a._d * (n + 1)
        if m - n >= 1:
            _add_fields(out, (m - n - 1, 0), -x, -y, q)
            _add_fields(out, (m, n + 1), x, y, q)
        else:
            _add_fields(out, (m, n + 1), x, y, q)
            _add_fields(out, (1 + n - m, 0), -x, y, q)
    return _from_fields(out)


def beurling_S(phi: DiskPolynomial) -> DiskPolynomial:
    """S[a z^m zbar^n]:

    m - n > 1:  (m/(n+1)) a z^{m-1} zbar^{n+1} - ((m-n-1)/(n+1)) a z^{m-n-2}
    m - n <= 1: (m/(n+1)) a z^{m-1} zbar^{n+1}
    """
    out: dict = {}
    for (m, n), a in phi.items():
        x, y, q = a._a, a._b, a._d * (n + 1)
        if m >= 1:
            _add_fields(out, (m - 1, n + 1), x * m, y * m, q)
        if m - n > 1:
            k = n + 1 - m
            _add_fields(out, (m - n - 2, 0), x * k, y * k, q)
    return _from_fields(out)


def bergman_B(phi: DiskPolynomial) -> DiskPolynomial:
    """Projection onto analytic polynomials:
    B[a z^p zbar^q] = ((p-q+1)/(p+1)) a z^{p-q} if p >= q, else 0."""
    out: dict = {}
    for (p, q), a in phi.items():
        if p >= q:
            k = p - q + 1
            _add_fields(out, (p - q, 0), a._a * k, a._b * k, a._d * (p + 1))
    return _from_fields(out)


def beurling_H(phi: DiskPolynomial) -> DiskPolynomial:
    """H[a z^m zbar^n]:

    m - n > 1:  (m/(n+1)) a z^{m-1} zbar^{n+1} - ((m-n-1)/(n+1)) a z^{m-n-2}
    m - n <= 1: (m/(n+1)) a z^{m-1} zbar^{n+1} - ((1-m+n)/(n+1)) conj(a) z^{n-m}
    """
    out: dict = {}
    for (m, n), a in phi.items():
        x, y, q = a._a, a._b, a._d * (n + 1)
        if m >= 1:
            _add_fields(out, (m - 1, n + 1), x * m, y * m, q)
        k = n + 1 - m
        if k < 0:
            _add_fields(out, (m - n - 2, 0), x * k, y * k, q)
        elif k > 0:
            _add_fields(out, (n - m, 0), -x * k, y * k, q)
    return _from_fields(out)


def t_hs(phi: DiskPolynomial) -> DiskPolynomial:
    """Boundary-normalized variant: T[f] = P[f] + c(f), where the constant

        c(f) = int (f(w)/(2w) - conj(f(w))/(2 conj(w))) dA(w)
             = sum over monomials with m = n+1 of (a - conj(a)) / (2m)

    is purely imaginary.  Re T[f] vanishes on |z| = 1 and Im T[f](0) = 0.
    The monomial value of c is derived (not tabulated) and is validated
    against the quadrature oracle in the tests.
    """
    out = dict(cauchy_P(phi).coeffs)
    y, g = 0, 1  # c(f) = i y / g
    for (m, n), a in phi.items():
        if m == n + 1:  # (a - conj(a)) / (2m) = i Im(a) / m
            d = a._d * m
            y, g = y * d + a._b * g, g * d
    if y:
        out[0, 0] = out.get((0, 0), 0) + ExactScalar(0, y).scaled(1, g)
    return _poly(out)


_DISPATCH = {
    TransformKind.CauchyIntegral: cauchy_integral,
    TransformKind.J0: j0_op,
    TransformKind.J0Star: j0_star,
    TransformKind.CauchyTransformP: cauchy_P,
    TransformKind.BeurlingS: beurling_S,
    TransformKind.BergmanB: bergman_B,
    TransformKind.BeurlingH: beurling_H,
    TransformKind.HengartnerSchoberT: t_hs,
}


def apply_transform(kind: TransformKind, phi: DiskPolynomial) -> DiskPolynomial:
    return _DISPATCH[kind](phi)
