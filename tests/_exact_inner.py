"""All-pairs exact reference for the inner products of diskalg.

diskalg sums only the pairs of monomials with equal angular degree m - n.
This module sums over every pair with the monomial rule

    <z^m zbar^n, z^p zbar^q> = 1/(m+q+1)  if m + q == n + p, else 0,

in ExactScalar arithmetic throughout, so the two routes must give equal
rationals.
"""
from fractions import Fraction

from disktransform.diskalg import DiskPolynomial, ExactScalar


def mono_inner(m: int, n: int, p: int, q: int) -> Fraction:
    if m + q == n + p:
        return Fraction(1, m + q + 1)
    return Fraction(0)


def inner_product(phi: DiskPolynomial, psi: DiskPolynomial) -> ExactScalar:
    acc = ExactScalar(0)
    for (m, n), a in phi.items():
        for (p, q), c in psi.items():
            g = mono_inner(m, n, p, q)
            if g:
                acc = acc + a * c.conjugate() * g
    return acc


def norm_sq(phi: DiskPolynomial) -> Fraction:
    return inner_product(phi, phi).re

