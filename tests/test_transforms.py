"""Exact checks for the closed-form operators.

Every expected polynomial below was either taken from the per-monomial
formulas instantiated by hand or cross-validated against the quadrature
oracle (see test_oracle.py for the numeric side of the dual route).
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from disktransform.diskalg import (
    DiskPolynomial,
    ExactScalar,
    conjugate,
    d_dz,
    evaluate,
    norm_sq,
)
from disktransform.oracle import quad_disk
from disktransform.transforms import (
    TransformKind,
    apply_transform,
    bergman_B,
    beurling_H,
    beurling_S,
    cauchy_P,
    cauchy_integral,
    j0_op,
    j0_star,
    t_hs,
)
from conftest import rand_component, rand_poly
from _exact_inner import inner_product
import _transforms_ref

E1 = ExactScalar(1)


def P(d):
    return DiskPolynomial(d)


def mono(m, n, c=1):
    return P({(m, n): ExactScalar(c)})


# --- per-operator examples ------------------------------------------------

def test_cauchy_integral_examples():
    assert cauchy_integral(mono(0, 0)) == mono(0, 1, -1)                 # -zbar
    assert cauchy_integral(mono(1, 0)) == P({(0, 0): E1, (1, 1): -E1})   # 1 - z zbar
    assert cauchy_integral(mono(0, 1)) == P({(0, 2): ExactScalar(Fraction(-1, 2))})


def test_j0_conj_component_examples():
    # J0[conj(g_d)] = z^{1-d} sum_n conj(b_n)/(n+1), nonzero only for d <= 0
    assert j0_op(conjugate(mono(0, 0))) == mono(1, 0)
    g1 = P({(1, 0): E1, (3, 2): ExactScalar(3)})
    assert j0_op(conjugate(g1)) == P({})
    assert j0_op(conjugate(mono(0, 1))) == P({(2, 0): ExactScalar(Fraction(1, 2))})


def test_j0_star_examples():
    assert j0_star(mono(0, 0)) == P({})
    assert j0_star(mono(1, 0)) == P({(0, 0): ExactScalar(Fraction(1, 2))})
    assert j0_star(mono(2, 1)) == P({(0, 0): ExactScalar(Fraction(1, 3))})


def test_cauchy_P_examples():
    assert cauchy_P(mono(0, 0)) == P({(0, 1): E1, (1, 0): -E1})
    assert cauchy_P(mono(1, 0)) == P({(1, 1): E1, (0, 0): -E1})
    half = ExactScalar(Fraction(1, 2))
    assert cauchy_P(mono(0, 1)) == P({(0, 2): half, (2, 0): -half})


def test_radial_examples():
    """P on the sector z^d f(|z|^2), d >= 1, is -z^{d-1} int_{|z|^2}^1 f(t) dt;
    the values below are that integral worked by hand."""
    # d = 1, f = 1: -(1 - z zbar)
    assert cauchy_P(mono(1, 0)) == P({(1, 1): E1, (0, 0): -E1})
    # d = 2, f = 1: -z (1 - z zbar) = z^2 zbar - z
    assert cauchy_P(mono(2, 0)) == P({(2, 1): E1, (1, 0): -E1})
    # d = 2, f = t: -z (1 - |z|^4) / 2
    half = ExactScalar(Fraction(1, 2))
    assert cauchy_P(mono(3, 1)) == P({(3, 2): half, (1, 0): -half})


def test_beurling_S_examples():
    assert beurling_S(mono(0, 0)) == P({})
    assert beurling_S(mono(2, 0)) == P({(1, 1): ExactScalar(2), (0, 0): -E1})
    assert beurling_S(mono(0, 1)) == P({})


def test_bergman_B_examples():
    assert bergman_B(mono(0, 0)) == mono(0, 0)
    assert bergman_B(mono(1, 0)) == mono(1, 0)
    assert bergman_B(mono(0, 1)) == P({})
    assert bergman_B(mono(1, 1)) == P({(0, 0): ExactScalar(Fraction(1, 2))})


def test_beurling_H_examples():
    assert beurling_H(mono(0, 0)) == mono(0, 0, -1)
    half = ExactScalar(Fraction(1, 2))
    assert beurling_H(mono(1, 1)) == P({(0, 2): half, (0, 0): -half})
    assert beurling_H(mono(2, 0)) == P({(1, 1): ExactScalar(2), (0, 0): -E1})


def test_t_examples():
    assert t_hs(P({})) == P({})
    # real-coefficient w: the correction integral vanishes
    assert t_hs(mono(1, 0)) == cauchy_P(mono(1, 0))
    # imaginary coefficient: correction (a - conj a)/2 = i for a = i
    iw = P({(1, 0): ExactScalar(0, 1)})
    assert t_hs(iw) == cauchy_P(iw) + P({(0, 0): ExactScalar(0, 1)})


def test_t_correction_matches_oracle(rng):
    """The constant added by T equals the defining integral, numerically."""
    for _ in range(5):
        phi = rand_poly(rng, max_total=4)
        corr = t_hs(phi) - cauchy_P(phi)
        assert set(corr.coeffs) <= {(0, 0)}
        got = complex(evaluate(corr, 0.0))
        res = quad_disk(lambda w: (evaluate(phi, w) / (2 * w)
                                   - evaluate(conjugate(phi), w) / (2 * w.conjugate())),
                        1e-9)
        assert abs(got - res.value) < 1e-8
        assert got.real == 0.0  # purely imaginary constant


def test_apply_transform_dispatch():
    phi = mono(2, 0)
    assert apply_transform(TransformKind.BeurlingS, phi) == beurling_S(phi)
    assert apply_transform(TransformKind.CauchyTransformP, phi) == cauchy_P(phi)
    for kind in TransformKind:
        apply_transform(kind, phi)  # every member dispatches


# --- identities, exact over 500 random polynomials ------------------------

def test_identity_P_vs_C_and_J0():
    rng = random.Random(1)
    for _ in range(500):
        phi = rand_poly(rng)
        assert cauchy_P(phi) == -cauchy_integral(phi) - j0_op(conjugate(phi))


def test_identity_H_is_z_derivative_of_P():
    rng = random.Random(2)
    for _ in range(500):
        phi = rand_poly(rng)
        assert beurling_H(phi) == d_dz(cauchy_P(phi))


def test_P_equals_minus_C_on_analytic_components():
    rng = random.Random(3)
    for d in (1, 2, 3, 5):
        for _ in range(25):
            g = rand_component(rng, d)
            assert cauchy_P(g) == -cauchy_integral(g)


def test_H_isometry_exact():
    rng = random.Random(4)
    for _ in range(500):
        phi = rand_poly(rng, max_total=12)
        assert norm_sq(beurling_H(phi)) == norm_sq(phi)


def test_S_contraction_and_analytic_equality():
    rng = random.Random(5)
    for _ in range(100):
        phi = rand_poly(rng)
        assert norm_sq(beurling_S(phi)) <= norm_sq(phi)
    for _ in range(50):
        # analytic with phi(0) = 0: S preserves the norm
        phi = rand_poly(rng)
        analytic = DiskPolynomial({(m + 1, 0): c for (m, n), c in phi.items()})
        assert norm_sq(beurling_S(analytic)) == norm_sq(analytic)


def test_dbar_of_P_recovers_input():
    from disktransform.diskalg import d_dzbar
    rng = random.Random(6)
    for _ in range(200):
        phi = rand_poly(rng)
        assert d_dzbar(cauchy_P(phi)) == phi


def test_P_image_orthogonality():
    rng = random.Random(7)
    zero = ExactScalar(0)
    for d1 in range(-3, 5):
        for d2 in range(-3, 5):
            if d1 >= d2:
                continue
            g1 = cauchy_P(rand_component(rng, d1))
            g2 = cauchy_P(rand_component(rng, d2))
            ip = inner_product(g1, g2)
            if d1 + d2 != 2:
                assert ip == zero, (d1, d2)


def test_P_image_nonorthogonal_witness():
    # the coupled pair (d, 2-d): <P[w^d], P[conj(w)^(d-2)]> = 1/(d(d+1)(d-1))
    for d in (2, 3, 4):
        g1 = cauchy_P(mono(d, 0))
        g2 = cauchy_P(mono(0, d - 2))
        expect = ExactScalar(Fraction(1, d * (d + 1) * (d - 1)))
        assert inner_product(g1, g2) == expect


def test_H_image_orthogonality():
    rng = random.Random(8)
    zero = ExactScalar(0)
    for d1 in range(-3, 5):
        for d2 in range(d1 + 1, 5):
            h1 = beurling_H(rand_component(rng, d1))
            h2 = beurling_H(rand_component(rng, d2))
            assert inner_product(h1, h2) == zero, (d1, d2)


def test_j0_conj_norm_bound():
    # ||J0[conj g_d]||^2 <= ||g_d||^2 / 3 for d <= -1
    rng = random.Random(9)
    for d in (-1, -2, -3):
        for _ in range(50):
            g = rand_component(rng, d)
            lhs = norm_sq(j0_op(conjugate(g)))
            rhs = norm_sq(g)
            assert lhs * 3 <= rhs


def test_bergman_idempotent_fixes_analytic():
    rng = random.Random(10)
    for _ in range(100):
        phi = rand_poly(rng)
        proj = bergman_B(phi)
        assert bergman_B(proj) == proj
        assert all(n == 0 for (_, n) in proj.coeffs)


def test_t_boundary_real_part_vanishes():
    rng = random.Random(12)
    for _ in range(20):
        phi = rand_poly(rng)
        tphi = t_hs(phi)
        for k in range(64):
            th = 2 * math.pi * k / 64
            val = complex(evaluate(tphi, complex(math.cos(th), math.sin(th))))
            assert abs(val.real) < 1e-12


def test_t_imaginary_part_at_zero_real_coeffs():
    rng = random.Random(13)
    for _ in range(20):
        base = rand_poly(rng)
        phi = DiskPolynomial({k: ExactScalar(c.re) for k, c in base.items()
                              if c.re != 0})
        val = complex(evaluate(t_hs(phi), 0.0))
        assert val.imag == 0.0


def test_cross_term_bound_step2():
    # |2 Re<C[g_d], P[g_{2-d}]>| <= ||C[g_d]||^2 + ||P[g_{2-d}]||^2, exact
    rng = random.Random(14)
    for d in (-2, -1, 0, 1, 2, 3):
        for _ in range(25):
            a = cauchy_integral(rand_component(rng, d))
            b = cauchy_P(rand_component(rng, 2 - d))
            re2 = 2 * inner_product(a, b).re
            assert abs(re2) <= norm_sq(a) + norm_sq(b)


# --- the rules against the per-term reference -----------------------------

# pairs whose images cancel on one key: C and P at z^0 (and T with them),
# J0 at z, J0* at z^0, B at z^0, S at z^0 and H at z^0
CANCELLING = [{(1, 0): 1, (2, 1): -2}, {(0, 0): 1, (1, 1): -2},
              {(1, 0): 2, (2, 1): -3}, {(2, 0): 1, (3, 1): -2}]


def _rule_cases(rng) -> list[DiskPolynomial]:
    """Random polynomials of up to 30 terms, pairs that cancel in the image
    (times a complex unit, alone and inside a random polynomial), the zero
    polynomial and single z-bar powers, whose J0, J0* and B images are
    empty."""
    cases = [P({}), mono(0, 1), mono(0, 3, Fraction(-2, 7))]
    for c in (ExactScalar(1), ExactScalar(Fraction(2, 3), -1)):
        for pair in CANCELLING:
            cancel = P({k: c * v for k, v in pair.items()})
            cases += [cancel, rand_poly(rng) + cancel]
    cases += [rand_poly(rng, max_total=t, terms=k)
              for t, k in ((2, 3), (6, 5), (8, 12), (12, 30)) for _ in range(10)]
    return cases


def _fields(phi):
    return [(key, a._a, a._b, a._d) for key, a in phi.items()]


@pytest.mark.parametrize("kind", list(TransformKind))
def test_rules_match_per_term_reference(kind, rng):
    """Each rule gives the per-term reference's coefficients, in normal form
    (gcd 1, d > 0) and in the same key order, so evaluate reads the same
    bits; and its result, built without DiskPolynomial's checks, passes
    them."""
    z = np.array([0.3 + 0.4j, -0.7 + 0.1j, 0.05 - 0.9j, 0.999j, 0j])
    for phi in _rule_cases(rng):
        out, ref = apply_transform(kind, phi), _transforms_ref.RULES[kind](phi)
        assert _fields(out) == _fields(ref), (kind, phi)
        assert all(math.gcd(a._a, a._b, a._d) == 1 and a._d > 0 for _, a in out.items())
        assert DiskPolynomial(dict(out.coeffs)) == out
        assert evaluate(out, z).tobytes() == evaluate(ref, z).tobytes()
