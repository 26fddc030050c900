import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from disktransform.diskalg import (
    DiskPolynomial,
    ExactScalar,
    conjugate,
    d_dz,
    d_dzbar,
    evaluate,
    norm_sq,
    to_tuples,
)
from conftest import rand_poly, sectors
import _exact_inner as ref


def test_exact_scalar_field_ops():
    a = ExactScalar(Fraction(1, 2), Fraction(-1, 3))
    b = ExactScalar(Fraction(2), Fraction(1, 5))
    assert a + b == ExactScalar(Fraction(5, 2), Fraction(-2, 15))
    assert a - b == ExactScalar(Fraction(-3, 2), Fraction(-8, 15))
    # (1/2 - i/3)(2 + i/5) = 1 + 1/15 + i(1/10 - 2/3)
    assert a * b == ExactScalar(Fraction(16, 15), Fraction(-17, 30))
    assert (a / b) * b == a
    assert -a == ExactScalar(Fraction(-1, 2), Fraction(1, 3))
    assert a.conjugate() == ExactScalar(Fraction(1, 2), Fraction(1, 3))
    assert complex(a) == 0.5 - 1j / 3


def test_exact_scalar_int_coercion():
    a = ExactScalar(Fraction(1, 2))
    assert a + 1 == ExactScalar(Fraction(3, 2))
    assert 2 * a == ExactScalar(1)
    assert a * Fraction(4) == ExactScalar(2)


def test_exact_scalar_immutable():
    a = ExactScalar(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_exact_scalar_keeps_fraction_parts():
    f, g = Fraction(2, 7), Fraction(-5, 3)
    a = ExactScalar(f, g)
    assert a.re == f and a.im == g
    assert type(a.re) is Fraction and type(a.im) is Fraction
    assert (a._a, a._b, a._d) == (6, -35, 21)  # (2/7 - 5/3 i) = (6 - 35 i)/21
    assert a == ExactScalar(Fraction(f), Fraction(g)) == ExactScalar("2/7", "-5/3")
    b = ExactScalar(3)
    assert type(b.re) is Fraction and type(b.im) is Fraction and b.re == 3


def _general_mul(x: ExactScalar, k) -> ExactScalar:
    # the full complex product, with k promoted to an ExactScalar first
    k = k if isinstance(k, ExactScalar) else ExactScalar(k)
    return ExactScalar(x.re * k.re - x.im * k.im, x.re * k.im + x.im * k.re)


@pytest.mark.parametrize("k", [3, -4, 0, True, False, Fraction(2, 7), Fraction(-9, 4),
                               ExactScalar(Fraction(1, 3), -2)],
                         ids=repr)
def test_exact_scalar_mul_fast_paths(k):
    x = ExactScalar(Fraction(-3, 4), Fraction(5, 6))
    for got in (x * k, k * x):
        assert got == _general_mul(x, k)
        assert type(got) is ExactScalar
        assert type(got.re) is Fraction and type(got.im) is Fraction
        with pytest.raises(AttributeError):
            got.im = Fraction(0)
    assert x == ExactScalar(Fraction(-3, 4), Fraction(5, 6))


@pytest.mark.parametrize("k", [0.5, 2.0, 1j, 1 + 0j], ids=repr)
def test_exact_scalar_mul_rejects_inexact(k):
    x = ExactScalar(Fraction(1, 3), 1)
    assert x.__mul__(k) is NotImplemented
    assert x.__rmul__(k) is NotImplemented
    with pytest.raises(TypeError):
        x * k
    with pytest.raises(TypeError):
        k * x


def test_poly_promotes_int_and_fraction():
    p = DiskPolynomial({(1, 0): 2, (0, 1): Fraction(-1, 3)})
    assert p.coeffs == {(1, 0): ExactScalar(2), (0, 1): ExactScalar(Fraction(-1, 3))}
    assert all(type(a) is ExactScalar for _, a in p.items())


@pytest.mark.parametrize("coeff", [0.5, 1.0, 0.0, 1 + 0j, 0.5j])
def test_poly_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        DiskPolynomial({(1, 0): coeff})
    with pytest.raises(TypeError):
        DiskPolynomial({(0, 0): ExactScalar(1), (1, 0): coeff})


def test_poly_drops_zero_terms():
    p = DiskPolynomial({(1, 0): ExactScalar(1), (2, 2): ExactScalar(0)})
    assert len(p) == 1
    assert (2, 2) not in p.coeffs


def test_poly_arith():
    p = DiskPolynomial({(1, 0): ExactScalar(1)})
    q = DiskPolynomial({(1, 0): ExactScalar(-1), (0, 1): ExactScalar(2)})
    assert p + q == DiskPolynomial({(0, 1): ExactScalar(2)})
    assert p - p == DiskPolynomial({})
    assert -q == DiskPolynomial({(1, 0): ExactScalar(1), (0, 1): ExactScalar(-2)})


def test_poly_results_pass_the_checks(rng):
    """+, -, unary -, conjugate, d_dz and d_dzbar build their results
    without DiskPolynomial's checks; the results pass them, zeros dropped."""
    for _ in range(20):
        p, q = rand_poly(rng), rand_poly(rng)
        for out in (p + q, p - q, p - p, p + (-p), -p, conjugate(p), d_dz(p), d_dzbar(p)):
            checked = DiskPolynomial(dict(out.coeffs))
            assert checked == out and list(checked.coeffs) == list(out.coeffs)


@pytest.mark.parametrize("x", [1, Fraction(1, 2), ExactScalar(1, 2), 1 + 2j],
                         ids=["int", "Fraction", "ExactScalar", "complex"])
def test_poly_plus_scalar_is_a_type_error(x):
    p = DiskPolynomial({(1, 0): ExactScalar(1)})
    for op in (lambda: p + x, lambda: x + p, lambda: p - x, lambda: x - p):
        with pytest.raises(TypeError):
            op()


def test_mono_inner_orthogonality():
    # <z^m zbar^n, z^p zbar^q> = [m+q == n+p] / (m+q+1)
    zw = DiskPolynomial({(1, 0): ExactScalar(1)})
    wz = DiskPolynomial({(0, 1): ExactScalar(1)})
    assert ref.inner_product(zw, zw) == ExactScalar(Fraction(1, 2))
    assert ref.inner_product(zw, wz) == ExactScalar(0)
    p21 = DiskPolynomial({(2, 1): ExactScalar(1)})
    p10 = DiskPolynomial({(1, 0): ExactScalar(1)})
    assert ref.inner_product(p21, p10) == ExactScalar(Fraction(1, 3))


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(25):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert ref.inner_product(f, g) == ref.inner_product(g, f).conjugate()


def test_norm_sq_known_value():
    # zbar - z has norm_sq 1/2 + 1/2 = 1
    p = DiskPolynomial({(0, 1): ExactScalar(1), (1, 0): ExactScalar(-1)})
    assert norm_sq(p) == Fraction(1)


def test_angular_norms_sum_to_norm(rng):
    """Rotation-degree components are orthogonal, norms are additive."""
    for _ in range(20):
        phi = rand_poly(rng)
        total = sum(norm_sq(g) for g in sectors(phi))
        assert total == norm_sq(phi)


def test_evaluate_scalar_vs_array(rng):
    phi = rand_poly(rng)
    zs = np.array([0.1 + 0.2j, -0.5j, 0.7, 0.3 - 0.3j])
    arr = evaluate(phi, zs)
    for k, z in enumerate(zs):
        got = complex(evaluate(phi, complex(z)))
        assert abs(arr[k] - got) < 1e-14


def _evaluate_by_new_arrays(phi, z):
    """evaluate's array path as it was before it accumulated in place: a
    new array for every term and every partial sum."""
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


def _evaluate_with_unit_powers(phi, z):
    """evaluate's array path before it dropped the tables' z^0 = 1 and the
    factors it gave: every term is multiplied in place in one buffer, so
    on a single point numpy takes its in-place rounding there too."""
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
    term = np.empty_like(total)
    for (m, n), a in phi.items():
        np.multiply(complex(a), zp[m], out=term)
        np.multiply(term, zbp[n], out=term)
        np.add(total, term, out=total)
    return total


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_evaluate_in_place_matches_new_arrays():
    # the in-place accumulation keeps the operand order, so on arrays every
    # value, signed zeros included, is the one a new array per term gave,
    # across the 2048-point chunk boundaries and on a view or a
    # Fortran-ordered array alike.  On one point numpy's in-place multiply
    # rounds some complex products other than on longer arrays, and its
    # scalar arithmetic, which the references take on a 0-d z, other than
    # both: a 0-d z or numpy scalar is evaluated as a (1,) array, with the
    # bits the in-place body with unit powers gives there
    rng = random.Random("evaluate-in-place")
    gen = np.random.default_rng(7)
    shapes = [(), (3, 21, 21), (4, 21, 1), (17,), (2047,), (2048,), (2049,), (6149,),
              (16, 21, 21)]
    layouts = [(shape, lambda a: a) for shape in shapes] + [
        ((16, 21, 42), lambda a: a[:, 1:, ::2]),  # a non-contiguous view
        ((16, 21, 21), np.asfortranarray),
    ]
    kinds = [
        lambda: rand_poly(rng, max_total=12, terms=8),  # mixed
        lambda: DiskPolynomial({(rng.randint(1, 12), 0): ExactScalar(Fraction(rng.randint(1, 9), 7))}),
        lambda: DiskPolynomial({(0, rng.randint(1, 12)): ExactScalar(Fraction(rng.randint(1, 9), 7),
                                                                     Fraction(-rng.randint(1, 9), 5))}),
        lambda: DiskPolynomial({(0, 0): ExactScalar(Fraction(-5, 3), 2)}),
        lambda: DiskPolynomial({}),
    ]
    checked = 0
    for shape, layout in layouts:
        re, im = gen.uniform(-1, 1, shape), gen.uniform(-1, 1, shape)
        for z in map(layout, (re + 1j * im, re, np.zeros(shape) * -1.0)):
            for kind in kinds:
                for _ in range(6):
                    phi = kind()
                    got = evaluate(phi, z)
                    if shape:
                        assert _same_bits(got, _evaluate_by_new_arrays(phi, z)), (phi, z.dtype, shape)
                    else:
                        one = _evaluate_with_unit_powers(phi, z.reshape(1))
                        assert _same_bits(evaluate(phi, z.reshape(1)), one), (phi, z)
                        assert _same_bits(got, one.reshape(())), (phi, z)
                        assert _same_bits(evaluate(phi, z[()]), one.reshape(())), (phi, z)
                    checked += 1
    assert checked == 11 * 3 * 5 * 6


def test_evaluate_peak_memory_is_chunked():
    # a degree-8 polynomial on a 16-panel oracle grid (7056 points): its
    # power tables on the whole grid would peak near 2 MB, its chunks of at
    # most 2048 points hold each temporary to 32 KB
    phi = DiskPolynomial({(8, 0): ExactScalar(1), (0, 8): ExactScalar(0, 1),
                          (4, 4): ExactScalar(Fraction(1, 3)), (5, 2): ExactScalar(-2)})
    gen = np.random.default_rng(8)
    z = gen.uniform(0, 1, (16, 21, 1)) * np.exp(1j * gen.uniform(0, 2 * math.pi, (16, 1, 21)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(phi, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 2**20, peak - before


def test_evaluate_honors_conjugate_powers():
    phi = DiskPolynomial({(1, 2): ExactScalar(1)})
    z = 0.3 + 0.4j
    assert abs(complex(evaluate(phi, z)) - z * z.conjugate() ** 2) < 1e-15


def test_derivatives():
    # d/dz (z^2 zbar) = 2 z zbar ; d/dzbar (z^2 zbar) = z^2
    phi = DiskPolynomial({(2, 1): ExactScalar(1)})
    assert d_dz(phi) == DiskPolynomial({(1, 1): ExactScalar(2)})
    assert d_dzbar(phi) == DiskPolynomial({(2, 0): ExactScalar(1)})
    assert d_dz(DiskPolynomial({(0, 3): ExactScalar(1)})) == DiskPolynomial({})


def test_conjugate_involution(rng):
    for _ in range(10):
        phi = rand_poly(rng)
        assert conjugate(conjugate(phi)) == phi
    phi = DiskPolynomial({(2, 0): ExactScalar(0, 1)})
    assert conjugate(phi) == DiskPolynomial({(0, 2): ExactScalar(0, -1)})


def test_exact_scalar_hash_agrees_with_eq():
    assert hash(ExactScalar(1)) == hash(1)
    assert ExactScalar(Fraction(1, 2)) == 0.5
    assert {0.5: "x"}[ExactScalar(Fraction(1, 2))] == "x"
    assert {1j: "y"}[ExactScalar(0, 1)] == "y"
    assert len({ExactScalar(3), 3, 3.0}) == 1
    # exact against floats, so equality is transitive
    third = ExactScalar(Fraction(1, 3))
    assert third == Fraction(1, 3) and Fraction(1, 3) != 1 / 3
    assert third != 1 / 3 and 1 / 3 != third
    assert hash(third) == hash(Fraction(1, 3))
    assert ExactScalar(Fraction(1, 3), 1) != complex(1 / 3, 1)
    assert ExactScalar(Fraction(1, 4), -2) == complex(0.25, -2)
    assert hash(ExactScalar(Fraction(1, 4), -2)) == hash(complex(0.25, -2))


def test_exact_scalar_hash_matches_complex():
    # CPython's complex hash, including its wrap to the machine word and
    # its -1 -> -2 rule, wherever the value is a float complex
    assert hash(complex(-1000004, 1)) == -2
    values = [(Fraction(1, 4), -2), (0, 1), (-1000004, 1), (0, 2 ** 60),
              (2 ** 60, -(2 ** 61)), (Fraction(-3, 8), Fraction(1, 1024))]
    for re, im in values:
        assert hash(ExactScalar(re, im)) == hash(complex(re, im))


def test_exact_scalar_hash_beyond_float_range():
    big = ExactScalar(10 ** 400, 1)
    assert hash(big) == hash(ExactScalar(Fraction(10 ** 401, 10), 1))
    assert {big: "x"}[ExactScalar(10 ** 400, 1)] == "x"
    # built from the part hashes: R has the hash of 5, so R + i hashes as 5 + i
    R = sys.hash_info.modulus * 10 ** 390 + 5
    assert hash(R) == 5
    assert hash(ExactScalar(R, 1)) == hash(complex(5, 1))
    assert hash(ExactScalar(1, Fraction(1, R))) == hash(ExactScalar(1, Fraction(1, 5)))


def _random_part(rng) -> Fraction:
    """Zero, small rationals, dyadic rationals (exact as floats), and parts
    with denominators up to 1e12 or numerators beyond the float range."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 2:
        return Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** rng.randint(0, 30))
    if kind == 3:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
    if kind == 4:
        return Fraction(rng.choice((-1, 1)) * rng.randint(10 ** 309, 10 ** 400),
                        rng.randint(1, 10 ** 12))
    return Fraction(rng.randint(-50, 50))


def _pair_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pair_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _check_exact(got, pair):
    assert type(got) is ExactScalar
    assert (got.re, got.im) == pair
    assert type(got.re) is Fraction and type(got.im) is Fraction
    # normal form: equal values have equal fields
    assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1


def _float_pair(pair):
    try:
        return float(pair[0]), float(pair[1])
    except OverflowError:
        return None


def test_exact_scalar_matches_fraction_pair_reference():
    rng = random.Random(20240613)
    values = [(Fraction(0), Fraction(0))] + [(_random_part(rng), _random_part(rng))
                                             for _ in range(299)]
    for re, im in values:
        x = ExactScalar(re, im)
        xp = (re, im)
        _check_exact(x, xp)
        _check_exact(-x, (-re, -im))
        _check_exact(x.conjugate(), (re, -im))
        assert bool(x) == bool(re or im)
        assert (x == re) == (im == 0) and (x == ExactScalar(re, im))
        if im == 0:
            assert hash(x) == hash(re)
            if re.denominator == 1:
                assert x == int(re) and hash(x) == hash(int(re))
        floats = _float_pair(xp)
        if floats is None:
            with pytest.raises(OverflowError):
                complex(x)
        else:
            assert complex(x) == complex(*floats)
            exact = Fraction(floats[0]) == re and Fraction(floats[1]) == im
            assert (x == complex(*floats)) == exact
            if exact:
                assert hash(x) == hash(complex(*floats))
        # operands: another value, an int and a Fraction
        yp = rng.choice(values)
        k = rng.choice((0, 1, -1, rng.randint(-10 ** 15, 10 ** 15)))
        f = _random_part(rng)
        for other, op in ((ExactScalar(*yp), yp), (k, (Fraction(k), Fraction(0))),
                          (f, (f, Fraction(0)))):
            _check_exact(x + other, (re + op[0], im + op[1]))
            _check_exact(other + x, (re + op[0], im + op[1]))
            _check_exact(x - other, (re - op[0], im - op[1]))
            _check_exact(other - x, (op[0] - re, op[1] - im))
            _check_exact(x * other, _pair_mul(xp, op))
            _check_exact(other * x, _pair_mul(xp, op))
            if op == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    x / other
            else:
                _check_exact(x / other, _pair_div(xp, op))
            assert (x == other) == (xp == op)
            assert (x == other) <= (hash(x) == hash(other))
        p, q = rng.randint(-30, 30), rng.choice((-1, 1)) * rng.randint(1, 30)
        _check_exact(x.scaled(p, q), (re * p / q, im * p / q))
        with pytest.raises(ZeroDivisionError):
            x.scaled(p, 0)
        for zero in (0, Fraction(0), ExactScalar(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero


def _inner_cases(rng) -> list[DiskPolynomial]:
    """The zero polynomial, then in turn: single monomials; mixed angular
    degrees; one degree with coefficient pairs whose products cancel
    (b, -b, i b, -i b); differences of overlapping polynomials, where shared
    coefficients cancel to zero; and parts with large coprime denominators."""
    def scalar(hi=9):
        return ExactScalar(Fraction(rng.randint(-hi, hi), rng.randint(1, hi)),
                           Fraction(rng.randint(-hi, hi), rng.randint(1, hi)))

    polys = [DiskPolynomial({})]
    for i in range(330):
        kind = i % 5
        if kind == 0:
            polys.append(DiskPolynomial({(rng.randint(0, 9), rng.randint(0, 9)): scalar()}))
        elif kind == 1:
            polys.append(rand_poly(rng, max_total=10, terms=8))
        elif kind == 2:
            d = rng.randint(-4, 4)
            lo = max(0, -d)
            coeffs = {}
            for _ in range(3):
                b = scalar()
                n, l = rng.sample(range(lo, lo + 6), 2)
                coeffs[(n + d, n)] = b
                coeffs[(l + d, l)] = b * rng.choice([-1, ExactScalar(0, 1), ExactScalar(0, -1)])
            polys.append(DiskPolynomial(coeffs))
        elif kind == 3:
            f = rand_poly(rng, max_total=6, terms=6)
            g = DiskPolynomial({k: a for k, a in f.items() if rng.random() < 0.7})
            polys.append(f - g if i % 10 == 3 else f - (g + rand_poly(rng, max_total=6, terms=2)))
        else:
            polys.append(DiskPolynomial({k: scalar(10 ** 12) for k in
                                         rand_poly(rng, max_total=8, terms=6).coeffs}))
    return polys


def test_inner_products_match_all_pairs_reference(rng):
    """Bucketed by angular degree, norm_sq gives the rationals of the
    all-pairs loop, on whole polynomials and on each angular sector."""
    polys = _inner_cases(rng)
    assert len(polys) >= 300
    assert sum(len(p) == 0 for p in polys) >= 2  # cancellation leaves zero too
    assert sum(len(sectors(p)) >= 3 for p in polys) >= 60
    for phi in polys:
        n2 = norm_sq(phi)
        assert type(n2) is Fraction and n2 == ref.norm_sq(phi)
        for g in sectors(phi):
            a2 = norm_sq(g)
            assert type(a2) is Fraction and a2 == ref.norm_sq(g)


def test_tuples_round_trip(rng):
    phi = rand_poly(rng)
    rows = to_tuples(phi)
    assert rows == sorted(rows)
    assert [(m, n) for m, n, _, _ in rows] == sorted(phi.coeffs)
    for m, n, re, im in rows:
        a = phi.coeffs[(m, n)]
        assert (re, im) == (float(a.re), float(a.im))
