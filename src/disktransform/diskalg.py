"""Polynomial algebra in z and conj(z) on the unit disk.

A DiskPolynomial is a sparse map (m, n) -> a_{m,n} representing
sum a_{m,n} z^m zbar^n.  The L2 structure uses the normalized area measure
dA = (1/pi) dx dy, under which

    <z^m zbar^n, z^p zbar^q> = 1/(m+q+1)  if m + q == n + p, else 0.

Coefficients are either python complex (float mode) or ExactScalar
(rational real and imaginary parts, exact mode).  The two modes never mix
inside one polynomial.  Instances are treated as immutable: no method
mutates the coefficient map after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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
    "from_tuples",
]


class ExactScalar:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

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
        """Exact against ExactScalar, Fraction and int; rounded through
        complex against float and complex.  So it is not transitive:
        ExactScalar(Fraction(1, 3)) equals both Fraction(1, 3) and 1/3, which
        differ, and its hash (through complex) agrees with the float's only.
        The rounded comparison is what lets an exact polynomial compare equal
        to its float copy (to_tuples / from_tuples)."""
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) == complex(other)
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # through complex, as __eq__ compares with float and complex
        return hash(complex(self))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


Coefficient = Union[complex, ExactScalar]


def _conj_coeff(a: Coefficient) -> Coefficient:
    return a.conjugate()


def _is_zero(a: Coefficient) -> bool:
    if isinstance(a, ExactScalar):
        return not bool(a)
    return a == 0


class DiskPolynomial:
    """Sparse polynomial in z and zbar; keys (m, n) with m, n >= 0."""

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        exact = None
        for (m, n), a in (coeffs or {}).items():
            if m < 0 or n < 0 or m != int(m) or n != int(n):
                raise ValueError(f"bad monomial key ({m}, {n})")
            is_ex = isinstance(a, ExactScalar)
            if not is_ex and isinstance(a, (int, Fraction)):
                a = ExactScalar(a)
                is_ex = True
            if exact is None:
                exact = is_ex
            elif exact != is_ex:
                raise TypeError("mixed exact and float coefficients")
            if not is_ex:
                a = complex(a)
            if not _is_zero(a):
                clean[(int(m), int(n))] = a
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "exact", bool(exact) if clean else (exact if exact is not None else False))

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

    def scale(self, c: Coefficient) -> "DiskPolynomial":
        return DiskPolynomial({k: v * c for k, v in self.coeffs.items()})

    def degree(self) -> int:
        return max((m + n for (m, n) in self.coeffs), default=0)

    def __repr__(self):
        return f"DiskPolynomial({self.coeffs!r})"


@dataclass(frozen=True)
class AngularComponent:
    """Angular piece g_d(rho e^{i theta}) = f_d(rho) e^{i d theta}.

    b maps the radial index n (with n >= max(0, -d)) to the coefficient of
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


def decompose(phi: DiskPolynomial) -> list[AngularComponent]:
    """Split into angular components, sorted by increasing d."""
    buckets: dict[int, dict] = {}
    for (m, n), a in phi.items():
        buckets.setdefault(m - n, {})[n] = a
    return [AngularComponent(d, b) for d, b in sorted(buckets.items())]


def _mono_inner(m: int, n: int, p: int, q: int) -> Fraction:
    if m + q == n + p:
        return Fraction(1, m + q + 1)
    return Fraction(0)


def inner_product(phi: DiskPolynomial, psi: DiskPolynomial):
    """<phi, psi> = integral of phi * conj(psi) over the disk (normalized).

    Exact mode returns an ExactScalar, float mode a complex.
    """
    exact = phi.exact and psi.exact
    acc = ExactScalar(0) if exact else 0j
    for (m, n), a in phi.items():
        for (p, q), c in psi.items():
            g = _mono_inner(m, n, p, q)
            if g:
                if exact:
                    acc = acc + a * _conj_coeff(c) * g
                else:
                    acc = acc + complex(a) * complex(c).conjugate() * float(g)
    return acc


def norm_sq(phi: DiskPolynomial):
    """Squared L2 norm; Fraction in exact mode, float otherwise."""
    v = inner_product(phi, phi)
    if isinstance(v, ExactScalar):
        return v.re
    return v.real


def angular_norm_sq(g: AngularComponent):
    """Closed radial form: ||g_d||^2 = sum_{n,l} b_n conj(b_l) / (n+l+d+1)."""
    exact = all(isinstance(a, ExactScalar) for a in g.b.values()) and bool(g.b)
    acc = ExactScalar(0) if exact else 0j
    for n, a in g.b.items():
        for l, c in g.b.items():
            w = Fraction(1, n + l + g.d + 1)
            if exact:
                acc = acc + a * _conj_coeff(c) * w
            else:
                acc = acc + complex(a) * complex(c).conjugate() * float(w)
    if isinstance(acc, ExactScalar):
        return acc.re
    return acc.real


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
    return DiskPolynomial({(n, m): _conj_coeff(a) for (m, n), a in phi.items()})


def to_tuples(phi: DiskPolynomial) -> list[tuple[int, int, float, float]]:
    """Serialize as (m, n, re, im) rows, sorted by (m, n)."""
    rows = []
    for (m, n), a in sorted(phi.items()):
        c = complex(a)
        rows.append((m, n, c.real, c.imag))
    return rows


def from_tuples(rows: Iterable) -> DiskPolynomial:
    out = {}
    for m, n, re, im in rows:
        key = (int(m), int(n))
        prev = out.get(key, 0j)
        out[key] = prev + complex(re, im)
    return DiskPolynomial(out)
