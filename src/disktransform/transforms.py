"""Closed-form integral transforms of disk polynomials.

Every operator acts per monomial a z^m zbar^n and returns a DiskPolynomial,
exactly.  Conventions (dA normalized by 1/pi):

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
from fractions import Fraction

from .diskalg import AngularComponent, DiskPolynomial

__all__ = [
    "TransformKind",
    "apply_transform",
    "cauchy_integral",
    "j0_op",
    "j0_op_conj",
    "j0_star",
    "cauchy_P",
    "beurling_S",
    "bergman_B",
    "beurling_H",
    "radial_P_gd",
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


def _accumulate(out: dict, key: tuple, val) -> None:
    if key in out:
        out[key] = out[key] + val
    else:
        out[key] = val


def cauchy_integral(phi: DiskPolynomial) -> DiskPolynomial:
    """C[a z^m zbar^n] = a (z^{m-n-1} - z^m zbar^{n+1}) / (n+1)   if m > n,
    -a z^m zbar^{n+1} / (n+1) otherwise."""
    out: dict = {}
    for (m, n), a in phi.items():
        c = Fraction(1, n + 1)
        if m - n >= 1:
            _accumulate(out, (m - n - 1, 0), a * c)
            _accumulate(out, (m, n + 1), -(a * c))
        else:
            _accumulate(out, (m, n + 1), -(a * c))
    return DiskPolynomial(out)


def j0_op(phi: DiskPolynomial) -> DiskPolynomial:
    """J0[a z^m zbar^n] = a z^{m-n+1} / (m+1) if m >= n, else 0."""
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n:
            _accumulate(out, (m - n + 1, 0), a * Fraction(1, m + 1))
    return DiskPolynomial(out)


def j0_op_conj(g: AngularComponent) -> DiskPolynomial:
    """J0 applied to the conjugate of an angular component.

    Nonzero only for d <= 0: J0[conj(g_d)] = z^{1-d} sum_n conj(b_n)/(n+1).
    """
    out: dict = {}
    for n, b in g.b.items():
        m = n + g.d
        if m <= n:
            _accumulate(out, (1 + n - m, 0), b.conjugate() * Fraction(1, n + 1))
    return DiskPolynomial(out)


def j0_star(phi: DiskPolynomial) -> DiskPolynomial:
    """Adjoint rule: J0*[a z^m zbar^n] = a z^{m-n-1} / (m+1) if m >= n+1, else 0.

    Derived by expanding the kernel 1/(1 - conj(w) z) in powers of conj(w) z
    and applying the monomial integral; validated against the quadrature
    oracle in the test suite before anything downstream relies on it.
    """
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n + 1:
            _accumulate(out, (m - n - 1, 0), a * Fraction(1, m + 1))
    return DiskPolynomial(out)


def cauchy_P(phi: DiskPolynomial) -> DiskPolynomial:
    """P[a z^m zbar^n] per the closed monomial rule.

    m > n:   -a (z^{m-n-1} - z^m zbar^{n+1}) / (n+1)
    m <= n:   a z^m zbar^{n+1} / (n+1) - conj(a) z^{1+n-m} / (n+1)
    """
    out: dict = {}
    for (m, n), a in phi.items():
        c = Fraction(1, n + 1)
        if m - n >= 1:
            _accumulate(out, (m - n - 1, 0), -(a * c))
            _accumulate(out, (m, n + 1), a * c)
        else:
            _accumulate(out, (m, n + 1), a * c)
            _accumulate(out, (1 + n - m, 0), -(a.conjugate() * c))
    return DiskPolynomial(out)


def beurling_S(phi: DiskPolynomial) -> DiskPolynomial:
    """S[a z^m zbar^n]:

    m - n > 1:  (m/(n+1)) a z^{m-1} zbar^{n+1} - ((m-n-1)/(n+1)) a z^{m-n-2}
    m - n <= 1: (m/(n+1)) a z^{m-1} zbar^{n+1}
    """
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= 1:
            _accumulate(out, (m - 1, n + 1), a * Fraction(m, n + 1))
        if m - n > 1:
            _accumulate(out, (m - n - 2, 0), -(a * Fraction(m - n - 1, n + 1)))
    return DiskPolynomial(out)


def bergman_B(phi: DiskPolynomial) -> DiskPolynomial:
    """Projection onto analytic polynomials:
    B[a z^p zbar^q] = ((p-q+1)/(p+1)) a z^{p-q} if p >= q, else 0."""
    out: dict = {}
    for (p, q), a in phi.items():
        if p >= q:
            _accumulate(out, (p - q, 0), a * Fraction(p - q + 1, p + 1))
    return DiskPolynomial(out)


def beurling_H(phi: DiskPolynomial) -> DiskPolynomial:
    """H[a z^m zbar^n]:

    m - n > 1:  (m/(n+1)) a z^{m-1} zbar^{n+1} - ((m-n-1)/(n+1)) a z^{m-n-2}
    m - n <= 1: (m/(n+1)) a z^{m-1} zbar^{n+1} - ((1-m+n)/(n+1)) conj(a) z^{n-m}
    """
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= 1:
            _accumulate(out, (m - 1, n + 1), a * Fraction(m, n + 1))
        if m - n > 1:
            _accumulate(out, (m - n - 2, 0), -(a * Fraction(m - n - 1, n + 1)))
        elif 1 - m + n > 0:
            _accumulate(out, (n - m, 0), -(a.conjugate() * Fraction(1 - m + n, n + 1)))
    return DiskPolynomial(out)


def radial_P_gd(g: AngularComponent) -> DiskPolynomial:
    """P of a single angular component through its radial representation.

    d >= 1:  P[g_d](z) = -2 z^{d-1} int_{|z|}^1 rho^{1-d} f_d(rho) d rho
    d <= 0:  P[g_d](z) =  2 z^{d-1} int_0^{|z|} rho^{1-d} f_d d rho
                          - 2 z^{1-d} int_0^1 rho^{1-d} conj(f_d) d rho

    With f_d = sum_n b_n rho^{2n+d} both integrals are monomials in |z|^2,
    so the result is again a polynomial; this is an independent route to
    cauchy_P used for cross-assertion.
    """
    out: dict = {}
    d = g.d
    for n, b in g.b.items():
        c = Fraction(1, 2 * n + 2)  # int rho^{2n+1} = rho^{2n+2} / (2n+2)
        if d >= 1:
            # -2 z^{d-1} (1 - |z|^{2n+2}) c
            _accumulate(out, (d - 1, 0), -(b * (2 * c)))
            _accumulate(out, (n + d, n + 1), b * (2 * c))
        else:
            _accumulate(out, (n + d, n + 1), b * (2 * c))
            _accumulate(out, (1 - d, 0), -(b.conjugate() * (2 * c)))
    return DiskPolynomial(out)


def t_hs(phi: DiskPolynomial) -> DiskPolynomial:
    """Boundary-normalized variant: T[f] = P[f] + c(f), where the constant

        c(f) = int (f(w)/(2w) - conj(f(w))/(2 conj(w))) dA(w)
             = sum over monomials with m = n+1 of (a - conj(a)) / (2m)

    is purely imaginary.  Re T[f] vanishes on |z| = 1 and Im T[f](0) = 0.
    The monomial value of c is derived (not tabulated) and is validated
    against the quadrature oracle in the tests.
    """
    out = dict(cauchy_P(phi).coeffs)
    for (m, n), a in phi.items():
        if m == n + 1:
            corr = (a - a.conjugate()) * Fraction(1, 2 * m)
            _accumulate(out, (0, 0), corr)
    return DiskPolynomial(out)


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
