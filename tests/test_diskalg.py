import random
from fractions import Fraction

import numpy as np
import pytest

from disktransform.diskalg import (
    AngularComponent,
    DiskPolynomial,
    ExactScalar,
    angular_norm_sq,
    conjugate,
    d_dz,
    d_dzbar,
    decompose,
    evaluate,
    from_tuples,
    inner_product,
    norm_sq,
    to_tuples,
)
from conftest import rand_poly


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
    assert p.scale(ExactScalar(0, 1)) == DiskPolynomial({(1, 0): ExactScalar(0, 1)})
    assert q.degree() == 1


def test_mono_inner_orthogonality():
    # <z^m zbar^n, z^p zbar^q> = [m+q == n+p] / (m+q+1)
    zw = DiskPolynomial({(1, 0): ExactScalar(1)})
    wz = DiskPolynomial({(0, 1): ExactScalar(1)})
    assert inner_product(zw, zw) == ExactScalar(Fraction(1, 2))
    assert inner_product(zw, wz) == ExactScalar(0)
    p21 = DiskPolynomial({(2, 1): ExactScalar(1)})
    p10 = DiskPolynomial({(1, 0): ExactScalar(1)})
    assert inner_product(p21, p10) == ExactScalar(Fraction(1, 3))


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(25):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert inner_product(f, g) == inner_product(g, f).conjugate()


def test_norm_sq_known_value():
    # zbar - z has norm_sq 1/2 + 1/2 = 1
    p = DiskPolynomial({(0, 1): ExactScalar(1), (1, 0): ExactScalar(-1)})
    assert norm_sq(p) == Fraction(1)


def test_decompose_recompose(rng):
    for _ in range(20):
        phi = rand_poly(rng)
        parts = decompose(phi)
        ds = [g.d for g in parts]
        assert ds == sorted(set(ds))
        total = DiskPolynomial({})
        for g in parts:
            total = total + g.to_polynomial()
        assert total == phi


def test_angular_component_validation():
    with pytest.raises(ValueError):
        AngularComponent(-2, {0: ExactScalar(1)})  # needs n >= 2
    g = AngularComponent(-2, {2: ExactScalar(1)})
    assert g.to_polynomial() == DiskPolynomial({(0, 2): ExactScalar(1)})


def test_angular_norms_sum_to_norm(rng):
    """Rotation-degree components are orthogonal, norms are additive."""
    for _ in range(20):
        phi = rand_poly(rng)
        total = sum(angular_norm_sq(g) for g in decompose(phi))
        assert total == norm_sq(phi)


def test_evaluate_scalar_vs_array(rng):
    phi = rand_poly(rng)
    zs = np.array([0.1 + 0.2j, -0.5j, 0.7, 0.3 - 0.3j])
    arr = evaluate(phi, zs)
    for k, z in enumerate(zs):
        got = complex(evaluate(phi, complex(z)))
        assert abs(arr[k] - got) < 1e-14


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


def test_tuples_round_trip(rng):
    phi = rand_poly(rng)
    rows = to_tuples(phi)
    assert rows == sorted(rows)
    assert from_tuples(rows) == phi


def test_float_mode_inner_product():
    # float coefficients take the numeric path but same formula
    p = DiskPolynomial({(1, 0): 1.0 + 0j})
    assert abs(complex(inner_product(p, p)) - 0.5) < 1e-15
    assert abs(float(norm_sq(p)) - 0.5) < 1e-15
