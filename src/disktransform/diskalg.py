"""Polynomial algebra in z and conj(z) on the unit disk.

A DiskPolynomial is a sparse map (m, n) -> a_{m,n} representing
sum a_{m,n} z^m zbar^n.  The L2 structure uses the normalized area measure
dA = (1/pi) dx dy, under which

    <z^m zbar^n, z^p zbar^q> = 1/(m+q+1)  if m + q == n + p, else 0.

Coefficients are ExactScalar (rational real and imaginary parts); int and
Fraction coefficients are promoted, and any other (float and complex
included) is rejected with TypeError.  So norms carry no rounding error.
Instances are treated as immutable: no method mutates the coefficient map
after construction.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "ExactScalar",
    "DiskPolynomial",
    "norm_sq",
    "evaluate",
    "d_dz",
    "d_dzbar",
    "conjugate",
    "to_tuples",
]


_HALF_WORD = 1 << (sys.hash_info.width - 1)  # hashes lie in [-_HALF_WORD, _HALF_WORD)


class ExactScalar:
    """Complex number with exact rational real and imaginary parts.

    Stored as (a + b i) / d over Python ints, with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields and the arithmetic
    builds no Fraction.  re and im are read-only Fraction views."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            x = re if type(re) is Fraction else Fraction(re)
            y = im if type(im) is Fraction else Fraction(im)
            # each part is in lowest terms, so over the lcm of the two
            # denominators the three fields have no common factor
            p, q = x.denominator, y.denominator
            d = lcm(p, q)
            a, b = x.numerator * (d // p), y.numerator * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def scaled(self, p: int, q: int) -> "ExactScalar":
        """(p/q) * self for ints p and q, without building a Fraction."""
        if q <= 0:
            if not q:
                raise ZeroDivisionError(f"ExactScalar scaled by {p}/0")
            p, q = -p, -q
        return _reduced(self._a * p, self._b * p, self._d * q)

    def __add__(self, other):
        o = _fields(other)
        return NotImplemented if o is None else _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _fields(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, -o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = _fields(other)
        return NotImplemented if o is None else _sum(*o, -self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _fields(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _fields(other)
        if o is None:
            return NotImplemented
        # x / y = x conj(y) / |y|^2
        c, e, f = o
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("ExactScalar division by zero")
        a, b = self._a, self._b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __neg__(self):
        return _exact(-self._a, -self._b, self._d)

    def conjugate(self) -> "ExactScalar":
        return _exact(self._a, -self._b, self._d)

    def __eq__(self, other):
        """Exact against every number type: a float or complex compares by
        its exact binary value, so ExactScalar(Fraction(1, 3)) != 1/3.
        Equality is therefore transitive and agrees with __hash__."""
        if isinstance(other, (float, complex)):
            return self.re == other.real and self.im == other.imag
        o = _fields(other)
        return NotImplemented if o is None else (self._a, self._b, self._d) == o

    def __hash__(self):
        """Equal to the hash of the equal Fraction, int, float or complex.

        A non-real value combines the part hashes as CPython's complex hash
        does, wrapped to the signed machine word, so no part is converted to
        float and a part beyond the float range hashes too.  hash() itself
        takes a result of -1 to -2, as the complex hash does."""
        if not self._b:
            return hash(self.re)
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        return (h + _HALF_WORD) % (2 * _HALF_WORD) - _HALF_WORD

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


_set_a, _set_b, _set_d = (s.__set__ for s in (ExactScalar._a, ExactScalar._b, ExactScalar._d))
_new = object.__new__


def _exact(a: int, b: int, d: int) -> ExactScalar:
    """The ExactScalar (a + b i)/d, whose fields are already in normal form."""
    s = _new(ExactScalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a: int, b: int, d: int) -> ExactScalar:
    """The ExactScalar (a + b i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        return _exact(a // g, b // g, d // g)
    return _exact(a, b, d)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> ExactScalar:
    """(a + b i)/d + (c + e i)/f in normal form."""
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _fields(x) -> tuple[int, int, int] | None:
    """The normal-form fields (a, b, d) of an ExactScalar, int or Fraction;
    None for any other type, float and complex included."""
    if isinstance(x, ExactScalar):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


class DiskPolynomial:
    """Sparse polynomial in z and zbar; keys (m, n) with m, n >= 0, values
    nonzero ExactScalar.  The constructor checks every key and coefficient;
    results built in the package skip the checks (_poly)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        for (m, n), a in (coeffs or {}).items():
            if type(m) is not int or type(n) is not int or m < 0 or n < 0:
                if m < 0 or n < 0 or m != int(m) or n != int(n):
                    raise ValueError(f"bad monomial key ({m}, {n})")
                m, n = int(m), int(n)
            if not isinstance(a, ExactScalar):
                if not isinstance(a, (int, Fraction)):
                    raise TypeError(f"coefficient {a!r} of ({m}, {n}) is not "
                                    "an ExactScalar, int or Fraction")
                a = ExactScalar(a)
            if a:
                clean[(m, n)] = a
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
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, DiskPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return _poly(out)

    def __sub__(self, other):
        if not isinstance(other, DiskPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] - v if k in out else -v
        return _poly(out)

    def __neg__(self):
        return _poly({k: -v for k, v in self.coeffs.items()})

    def __repr__(self):
        return f"DiskPolynomial({self.coeffs!r})"


_set_coeffs = DiskPolynomial.coeffs.__set__


def _poly(coeffs: dict) -> DiskPolynomial:
    """The DiskPolynomial of coeffs without __init__'s checks, for results
    built in this package: its keys are pairs of ints >= 0 and its values
    ExactScalar.  Zero values are dropped; the rest keep their order."""
    p = _new(DiskPolynomial)
    _set_coeffs(p, {k: a for k, a in coeffs.items() if a})
    return p


def _from_fields(acc: dict) -> DiskPolynomial:
    """The DiskPolynomial of acc, which maps keys to int fields (a, b, d),
    d > 0, of values (a + b i)/d not in normal form; each nonzero value is
    brought to normal form once."""
    return _poly({k: _reduced(a, b, d) for k, (a, b, d) in acc.items() if a or b})


def norm_sq(phi: DiskPolynomial) -> Fraction:
    """Squared L2 norm, exact: over the angular degrees d, which are
    orthogonal, the sum of sum_{n,l} Re(b_n conj(b_l)) / (n+l+d+1), where
    b_n is the coefficient of z^{n+d} zbar^n.

    Each diagonal term is taken once and each off-diagonal pair once,
    doubled.  The sums run in integers: every coefficient is scaled to the
    common denominator q, the terms are gathered by their divisor
    w = n+l+d+1, and one Fraction is formed at the end."""
    q = lcm(*(a._d for a in phi.coeffs.values()))
    sectors: dict[int, list] = {}  # d -> [(n, x, y)] with x + y i = q b_n
    for (m, n), a in phi.coeffs.items():
        k = q // a._d
        sectors.setdefault(m - n, []).append((n, a._a * k, a._b * k))
    by_w: dict[int, int] = {}
    for d, terms in sectors.items():
        for i, (n, x, y) in enumerate(terms):
            w = 2 * n + d + 1
            by_w[w] = by_w.get(w, 0) + x * x + y * y
            for l, u, v in terms[i + 1:]:
                w = n + l + d + 1
                by_w[w] = by_w.get(w, 0) + 2 * (x * u + y * v)
    den = lcm(*by_w)
    num = sum(s * (den // w) for w, s in by_w.items())
    return Fraction(num, den * q * q)


# Most points per pass of evaluate's array path: 32 KB per complex temporary
_CHUNK = 2048


def evaluate(phi: DiskPolynomial, z):
    """Evaluate at a point (or ndarray) with |z| <= 1.

    An array is evaluated in complex128, a 0-d one or a numpy scalar as a
    (1,) array, returned as a 0-d array.  Its points are taken in flat C
    order, in contiguous chunks of at most 2048 and near-equal size, so no
    chunk holds one point unless z does: on one element numpy's in-place
    multiply rounds some products other than on longer arrays.  Per chunk,
    z^k and conj(z)^k are tabulated by repeated multiplication from z^1 = z
    up to the largest exponents the terms read, conj(z)^k only when some
    term has n > 0.  Each term a z^m conj(z)^n, a converted to complex
    once, is formed in one preallocated buffer in the operand order
    (a z^m) conj(z)^n, with no factor z^0 or conj(z)^0, and added into the
    result in place, in dict order; a constant term is added as a scalar.
    The chunks bound each temporary to 32 KB, reused from the heap: a table
    on a whole 16-panel oracle grid (7056 points) took 113 KB per power,
    which glibc handed back to the OS when freed at the top of the heap
    (its trim threshold is 128 KB), so the next call faulted its pages in
    again.  The oracle's exact rule for a polynomial in cauchy_eval and
    pv_beurling_eval makes one call on all its nodes (pv_beurling_eval one
    more, at z alone); its panels make one per refinement step, on the node
    grids of the starting panels and then of both halves of each
    bisection."""
    if not hasattr(z, "shape"):
        total = 0j
        zb = complex(z).conjugate()
        for (m, n), a in phi.items():
            total = total + complex(a) * z**m * zb**n
        return total
    import numpy as np

    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    if not phi:
        return out
    terms = [(m, n, complex(a)) for (m, n), a in phi.items()]
    m_max = max(m for m, _, _ in terms)
    n_max = max(n for _, n, _ in terms)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    k = -(-z.size // _CHUNK)
    cuts = [z.size * i // k for i in range(k + 1)]
    for i, j in zip(cuts, cuts[1:]):
        w, total = flat_z[i:j], flat_out[i:j]
        zp = [None, w]
        for _ in range(m_max - 1):
            zp.append(zp[-1] * w)
        zbp = [None, np.conj(w)] if n_max else [None]
        for _ in range(n_max - 1):
            zbp.append(zbp[-1] * zbp[1])
        term = np.empty_like(total)
        for m, n, a in terms:
            if m:
                np.multiply(a, zp[m], out=term)
            elif n:
                term.fill(a)  # times conj(z)^n in place, as the other terms
            else:
                np.add(total, a, out=total)
                continue
            if n:
                np.multiply(term, zbp[n], out=term)
            np.add(total, term, out=total)
    return out


def d_dz(phi: DiskPolynomial) -> DiskPolynomial:
    """Formal derivative in z (zbar treated as an independent variable)."""
    out = {}
    for (m, n), a in phi.items():
        if m >= 1:
            out[(m - 1, n)] = a * m
    return _poly(out)


def d_dzbar(phi: DiskPolynomial) -> DiskPolynomial:
    out = {}
    for (m, n), a in phi.items():
        if n >= 1:
            out[(m, n - 1)] = a * n
    return _poly(out)


def conjugate(phi: DiskPolynomial) -> DiskPolynomial:
    """Pointwise complex conjugate: (m, n) -> (n, m) with conjugated coefficients."""
    return _poly({(n, m): a.conjugate() for (m, n), a in phi.items()})


def to_tuples(phi: DiskPolynomial) -> list[tuple[int, int, float, float]]:
    """Serialize as (m, n, re, im) rows of floats, sorted by (m, n)."""
    rows = []
    for (m, n), a in sorted(phi.items()):
        c = complex(a)
        rows.append((m, n, c.real, c.imag))
    return rows

