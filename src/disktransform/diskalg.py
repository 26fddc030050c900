"""Polynomial algebra in z and conj(z) on the unit disk.

A DiskPolynomial is a sparse map (m, n) -> a_{m,n} representing
sum a_{m,n} z^m zbar^n.  The L2 structure uses the normalized area measure
dA = (1/pi) dx dy, under which

    <z^m zbar^n, z^p zbar^q> = 1/(m+q+1)  if m + q == n + p, else 0.

Coefficients are ExactScalar (rational real and imaginary parts); int and
Fraction coefficients are promoted, and any other (float and complex
included) is rejected with TypeError.  So inner products and norms carry no
rounding error.  Instances are treated as immutable: no method mutates the
coefficient map after construction.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = [
    "ExactScalar",
    "DiskPolynomial",
    "AngularComponent",
    "decompose",
    "inner_product",
    "norm_sq",
    "angular_norm_sq",
    "evaluate",
    "d_dz",
    "d_dzbar",
    "conjugate",
    "to_tuples",
]


_HALF_WORD = 1 << (sys.hash_info.width - 1)  # hashes lie in [-_HALF_WORD, _HALF_WORD)


class ExactScalar:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction part is kept as it is: it is immutable and already exact
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    @staticmethod
    def _coerce(x) -> "ExactScalar | None":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.re * other, self.im * other)
        if isinstance(other, ExactScalar):
            return ExactScalar(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.re / other, self.im / other)
        if isinstance(other, ExactScalar):
            d = other.re * other.re + other.im * other.im
            return self * ExactScalar(other.re / d, -other.im / d)
        return NotImplemented

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def __eq__(self, other):
        """Exact against every number type: a float or complex compares by
        its exact binary value, so ExactScalar(Fraction(1, 3)) != 1/3.
        Equality is therefore transitive and agrees with __hash__."""
        if isinstance(other, (float, complex)):
            return self.re == other.real and self.im == other.imag
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        """Equal to the hash of the equal Fraction, int, float or complex.

        A non-real value combines the part hashes as CPython's complex hash
        does, wrapped to the signed machine word, so no part is converted to
        float and a part beyond the float range hashes too.  hash() itself
        takes a result of -1 to -2, as the complex hash does."""
        if not self.im:
            return hash(self.re)
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        return (h + _HALF_WORD) % (2 * _HALF_WORD) - _HALF_WORD

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


class DiskPolynomial:
    """Sparse polynomial in z and zbar; keys (m, n) with m, n >= 0, values
    nonzero ExactScalar."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        for (m, n), a in (coeffs or {}).items():
            if m < 0 or n < 0 or m != int(m) or n != int(n):
                raise ValueError(f"bad monomial key ({m}, {n})")
            e = ExactScalar._coerce(a)
            if e is None:
                raise TypeError(f"coefficient {a!r} of ({m}, {n}) is not "
                                "an ExactScalar, int or Fraction")
            if e:
                clean[(int(m), int(n))] = e
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("DiskPolynomial is immutable")

    def items(self):
        return self.coeffs.items()

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, DiskPolynomial):
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return DiskPolynomial(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] - v if k in out else -v
        return DiskPolynomial(out)

    def __neg__(self):
        return DiskPolynomial({k: -v for k, v in self.coeffs.items()})

    def __repr__(self):
        return f"DiskPolynomial({self.coeffs!r})"


@dataclass(frozen=True)
class AngularComponent:
    """Angular piece g_d(rho e^{i theta}) = f_d(rho) e^{i d theta}.

    b maps the radial index n (with n >= max(0, -d)) to the ExactScalar coefficient of
    rho^{2n+d}, i.e. the monomial z^{n+d} zbar^n of the ambient polynomial.
    """

    d: int
    b: dict

    def __post_init__(self):
        lo = max(0, -self.d)
        for n in self.b:
            if n < lo:
                raise ValueError(f"radial index {n} below {lo} for d={self.d}")

    def to_polynomial(self) -> DiskPolynomial:
        return DiskPolynomial({(n + self.d, n): a for n, a in self.b.items()})


def _sectors(phi: DiskPolynomial) -> dict[int, dict]:
    """Coefficients by angular degree: {d: {n: a}} for the monomial
    z^{n+d} zbar^n with coefficient a."""
    out: dict[int, dict] = {}
    for (m, n), a in phi.items():
        out.setdefault(m - n, {})[n] = a
    return out


def decompose(phi: DiskPolynomial) -> list[AngularComponent]:
    """Split into angular components, sorted by increasing d."""
    return [AngularComponent(d, b) for d, b in sorted(_sectors(phi).items())]


def _sector_norm_sq(d: int, b: dict) -> Fraction:
    """sum_{n,l} Re(b_n conj(b_l)) / (n+l+d+1) for one angular degree d.

    Each diagonal term is taken once and each off-diagonal pair once,
    doubled.  The sums run in integers: every part is scaled to the common
    denominator q of the parts, the terms are gathered by their divisor
    w = n+l+d+1, and one Fraction is formed at the end."""
    q = lcm(*(a.re.denominator for a in b.values()),
            *(a.im.denominator for a in b.values()))
    terms = [(n, a.re.numerator * (q // a.re.denominator),
              a.im.numerator * (q // a.im.denominator)) for n, a in b.items()]
    by_w: dict[int, int] = {}
    for i, (n, x, y) in enumerate(terms):
        w = 2 * n + d + 1
        by_w[w] = by_w.get(w, 0) + x * x + y * y
        for l, u, v in terms[i + 1:]:
            w = n + l + d + 1
            by_w[w] = by_w.get(w, 0) + 2 * (x * u + y * v)
    den = lcm(*by_w)
    return Fraction(sum(s * (den // w) for w, s in by_w.items()), den * q * q)


def inner_product(phi: DiskPolynomial, psi: DiskPolynomial) -> ExactScalar:
    """<phi, psi> = integral of phi * conj(psi) over the disk (normalized).

    Only monomials of equal angular degree d = m - n meet, since
    <z^{n+d} zbar^n, z^{l+d} zbar^l> = 1/(n+l+d+1) and distinct degrees are
    orthogonal; so the sum runs over the pairs within each degree."""
    theirs = _sectors(psi)
    re = im = Fraction(0)
    for d, b in _sectors(phi).items():
        c = theirs.get(d, {})
        for n, a in b.items():
            for l, e in c.items():
                w = n + l + d + 1
                re += (a.re * e.re + a.im * e.im) / w
                im += (a.im * e.re - a.re * e.im) / w
    return ExactScalar(re, im)


def norm_sq(phi: DiskPolynomial) -> Fraction:
    """Squared L2 norm, exact: the sum of the angular_norm_sq of its
    angular components."""
    return sum((_sector_norm_sq(d, b) for d, b in _sectors(phi).items()), Fraction(0))


def angular_norm_sq(g: AngularComponent) -> Fraction:
    """Closed radial form: ||g_d||^2 = sum_{n,l} b_n conj(b_l) / (n+l+d+1)."""
    return _sector_norm_sq(g.d, g.b)


def evaluate(phi: DiskPolynomial, z):
    """Evaluate at a point (or ndarray) with |z| <= 1.

    On an array, each coefficient is converted to complex once and the
    powers z^k and conj(z)^k are tabulated by repeated multiplication up to
    the largest exponents.  The oracle makes one such call per refinement
    step: on both rules of the initial panel, then on both rules of all
    four children of each split."""
    if not hasattr(z, "shape"):
        total = 0j
        zb = complex(z).conjugate()
        for (m, n), a in phi.items():
            total = total + complex(a) * z**m * zb**n
        return total
    import numpy as np

    total = np.zeros_like(z, dtype=complex)
    if not phi:
        return total
    zp = [np.ones_like(z, dtype=complex)]
    zbp = [zp[0]]
    zb = np.conj(z)
    for _ in range(max(m for m, _ in phi.coeffs)):
        zp.append(zp[-1] * z)
    for _ in range(max(n for _, n in phi.coeffs)):
        zbp.append(zbp[-1] * zb)
    for (m, n), a in phi.items():
        total = total + complex(a) * zp[m] * zbp[n]
    return total


def d_dz(phi: DiskPolynomial) -> DiskPolynomial:
    """Formal derivative in z (zbar treated as an independent variable)."""
    out = {}
    for (m, n), a in phi.items():
        if m >= 1:
            out[(m - 1, n)] = a * m
    return DiskPolynomial(out)


def d_dzbar(phi: DiskPolynomial) -> DiskPolynomial:
    out = {}
    for (m, n), a in phi.items():
        if n >= 1:
            out[(m, n - 1)] = a * n
    return DiskPolynomial(out)


def conjugate(phi: DiskPolynomial) -> DiskPolynomial:
    """Pointwise complex conjugate: (m, n) -> (n, m) with conjugated coefficients."""
    return DiskPolynomial({(n, m): a.conjugate() for (m, n), a in phi.items()})


def to_tuples(phi: DiskPolynomial) -> list[tuple[int, int, float, float]]:
    """Serialize as (m, n, re, im) rows of floats, sorted by (m, n)."""
    rows = []
    for (m, n), a in sorted(phi.items()):
        c = complex(a)
        rows.append((m, n, c.real, c.imag))
    return rows

