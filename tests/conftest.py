import random
from fractions import Fraction

import pytest

from disktransform.diskalg import DiskPolynomial, ExactScalar


def rand_scalar(rng) -> ExactScalar:
    return ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def rand_poly(rng, max_total=6, terms=5) -> DiskPolynomial:
    """Random polynomial with exact rational coefficients, never zero."""
    acc = {}
    for _ in range(terms):
        m = rng.randint(0, max_total)
        n = rng.randint(0, max_total - m)
        c = rand_scalar(rng)
        acc[(m, n)] = acc.get((m, n), ExactScalar(0)) + c
    acc = {k: v for k, v in acc.items() if v != ExactScalar(0)}
    if not acc:
        acc[(0, 0)] = ExactScalar(1)
    return DiskPolynomial(acc)


def rand_component(rng, d, max_n=6, terms=3) -> DiskPolynomial:
    """Random polynomial of the one angular degree d (every monomial
    z^{n+d} zbar^n), never zero."""
    lo = max(0, -d)
    b = {}
    for _ in range(terms):
        n = rng.randint(lo, lo + max_n)
        b[n] = b.get(n, ExactScalar(0)) + rand_scalar(rng)
    b = {k: v for k, v in b.items() if v != ExactScalar(0)}
    if not b:
        b[lo] = ExactScalar(1)
    return DiskPolynomial({(n + d, n): a for n, a in b.items()})


def sectors(phi: DiskPolynomial) -> list[DiskPolynomial]:
    """The angular sectors of phi: its monomials grouped by degree m - n,
    in increasing degree."""
    out: dict[int, dict] = {}
    for (m, n), a in phi.items():
        out.setdefault(m - n, {})[(m, n)] = a
    return [DiskPolynomial(c) for _, c in sorted(out.items())]


@pytest.fixture
def rng():
    return random.Random(20260819)
