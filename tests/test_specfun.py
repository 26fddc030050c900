import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from disktransform.specfun import (
    DomainError,
    SeriesConfig,
    bessel_j,
    bessel_zero,
    elliptic_e,
    elliptic_e_series,
    gamma,
    hyp2f1,
    pochhammer,
)

# First positive zeros of J_0..J_4, 4-decimal reference table.
J_ZEROS = [2.4048, 3.8317, 5.1356, 6.3802, 7.5883]


def test_gamma_integers():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0
    assert abs(gamma(10.0) - 362880.0) < 1e-6


def test_gamma_half_integers():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma(1.5) - math.sqrt(math.pi) / 2) < 1e-14
    assert abs(gamma(2.5) - 3 * math.sqrt(math.pi) / 4) < 1e-13


def test_gamma_recurrence():
    for x in (0.3, 0.77, 1.9, 3.25):
        assert abs(gamma(x + 1) - x * gamma(x)) < 1e-12 * abs(gamma(x + 1))


def test_gamma_pole():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-2.0)


def test_pochhammer():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert abs(pochhammer(0.5, 3) - 0.5 * 1.5 * 2.5) < 1e-15


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
def test_bessel_vs_scipy(nu):
    for x in np.linspace(0.0, 12.0, 49):
        ref = scipy.special.jv(nu, x)
        assert abs(bessel_j(nu, float(x)) - ref) < 5e-13


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(5, 0.0) == 0.0


def test_bessel_large_argument_cancellation():
    # recurrence in float loses digits past x ~ 8; the fixed-point path must not
    for x in (9.0, 15.0, 30.0):
        for nu in (0, 1, 6):
            assert abs(bessel_j(nu, x) - scipy.special.jv(nu, x)) < 1e-12


def _bessel_j_fraction(d, x, cfg=SeriesConfig()):
    """Integer-order series in exact rational arithmetic, with the stopping
    rule of the fixed-point path: the reference it must equal bit for bit."""
    xr = Fraction(x) / 2
    q = xr * xr
    term = xr**d / math.factorial(d)
    total = term
    bound = Fraction(cfg.abs_tol) / 100
    for k in range(1, cfg.max_terms):
        term *= -q / (k * (k + d))
        total += term
        if k > float(xr) and abs(term) < bound:
            return float(total)
    raise AssertionError("reference series did not converge")


def test_bessel_fixed_point_matches_rational_series():
    rng = random.Random(20)
    points = [(rng.randint(0, 21), 45.0 - 37.0 * rng.random()) for _ in range(300)]
    # values near the zeros are tiny, so their last bits are the hardest to hit
    points += [(d, bessel_zero(d)) for d in range(5, 21)]
    for d, x in points:
        assert bessel_j(d, x) == _bessel_j_fraction(d, x), (d, x)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 7.5, 20.5])
def test_bessel_half_integer_large_argument(alpha):
    for x in (9.0, 30.0, 40.0, 50.0):
        got = bessel_j(alpha, x)
        assert abs(got - scipy.special.jv(alpha, x)) < 1e-12
        assert abs(got - float(mpmath.besselj(alpha, x))) < 1e-12
        if alpha == 0.5:  # DLMF 10.49.3 closed form
            assert abs(got - math.sqrt(2 / (math.pi * x)) * math.sin(x)) < 1e-12


def test_bessel_fractional_order_large_argument_rejected():
    with pytest.raises(DomainError):
        bessel_j(1.3, 30.0)
    assert abs(bessel_j(1.3, 5.0) - scipy.special.jv(1.3, 5.0)) < 1e-12


@pytest.mark.parametrize("fn,args", [
    pytest.param(bessel_j, (0, math.inf), id="0-inf"),
    pytest.param(bessel_j, (0, math.nan), id="0-nan"),
    pytest.param(bessel_j, (math.nan, 3.0), id="nan-3.0"),
    pytest.param(hyp2f1, (math.nan, 0.5, 1.0, 0.5), id="hyp2f1-a-nan"),
    pytest.param(hyp2f1, (0.5, math.inf, 1.0, 0.5), id="hyp2f1-b-inf"),
    pytest.param(hyp2f1, (0.5, 0.5, math.nan, 0.5), id="hyp2f1-c-nan"),
    pytest.param(elliptic_e, (math.nan,), id="elliptic_e-nan"),
    pytest.param(elliptic_e, (math.inf,), id="elliptic_e-inf"),
    pytest.param(elliptic_e, (-math.inf,), id="elliptic_e-minus-inf"),
])
def test_bessel_non_finite_rejected(fn, args):
    # a NaN once ran a series or a quadrature through all its iterations
    # before failing, or never returned; the check must come before any
    # iteration.  The name predates the hyp2f1 and elliptic_e cases.
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        fn(*args)
    assert time.perf_counter() - t0 < 0.5


def test_bessel_zero_vs_scipy():
    for d in range(21):
        assert abs(bessel_zero(d) - scipy.special.jn_zeros(d, 1)[0]) < 1e-12


@pytest.mark.parametrize("d,ref", list(enumerate(J_ZEROS)))
def test_bessel_zero_table(d, ref):
    root = bessel_zero(d)
    assert abs(root - ref) < 5e-5
    assert abs(bessel_j(d, root)) < 1e-11


def test_bessel_zero_high_order():
    root = bessel_zero(20)
    assert abs(bessel_j(20, root)) < 1e-10
    assert root > 20  # j_nu > nu always


def test_bessel_zero_rejects():
    with pytest.raises(DomainError):
        bessel_zero(-1)
    with pytest.raises(DomainError):
        bessel_zero(21)


def test_hyp2f1_binomial_identity():
    # 2F1(a, b; b; x) = (1-x)^(-a)
    for a in (0.25, 1.0, 2.5):
        for x in (0.0, 0.3, 0.7, 0.8):
            assert abs(hyp2f1(a, 1.5, 1.5, x) - (1 - x) ** (-a)) < 1e-12
    assert abs(hyp2f1(0.7, 1.0, 1.0, 0.3) - 0.7 ** (-0.7)) < 1e-12


def test_hyp2f1_log_identity():
    # x * 2F1(1, 1; 2; x) = -log(1-x)
    for x in (0.1, 0.5, 0.9):
        assert abs(x * hyp2f1(1.0, 1.0, 2.0, x) + math.log1p(-x)) < 1e-12


def test_hyp2f1_gauss_point():
    """Value at x = 1 equals the gamma-quotient closed form."""
    a, b, c = 0.5, -0.5, 1.0
    ref = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
    assert abs(hyp2f1(a, b, c, 1.0) - ref) < 1e-10
    # q = 1 instance used by the p -> inf norm: 2F1(1/2, 1/2; 2; 1) = 8/pi - 2
    assert abs(2 * hyp2f1(0.5, -0.5, 1.0, 1.0) + hyp2f1(0.5, 0.5, 2.0, 1.0)
               - 8 / math.pi) < 1e-12


def test_hyp2f1_vs_scipy():
    for a, b, c in ((0.6, 0.6, 1.0), (0.95, -0.05, 1.0), (0.75, 0.75, 2.0)):
        for x in np.linspace(0, 0.95, 11):
            assert abs(hyp2f1(a, b, c, float(x)) - scipy.special.hyp2f1(a, b, c, x)) < 1e-11


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
def test_hyp2f1_phi_parameters_vs_scipy(q):
    ts = list(np.linspace(0.0, 1.0, 200)) + [1 - 10.0**-k for k in (2, 3, 4)]
    for a, b, c in ((q / 2, q / 2 - 1, 1.0), (q / 2, q / 2, 2.0)):
        for t in ts:
            ref = scipy.special.hyp2f1(a, b, c, t)
            assert abs(hyp2f1(a, b, c, float(t)) - ref) < 1e-11, (a, b, c, t)


def test_hyp2f1_divergent_at_one():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 1.5, 1.0)  # c - a - b < 0 diverges


def test_hyp2f1_outside_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.0, 1.2)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.0, -0.1)  # no continuation to negative x


def test_elliptic_e_endpoints():
    assert abs(elliptic_e(0.0) - math.pi / 2) < 1e-14
    assert abs(elliptic_e(1.0) - 1.0) < 1e-10


@pytest.mark.parametrize("m", [-8.0, -4.0, -1.0, -0.5, 0.3, 0.9, 0.99,
                               -1e12, -1e6, 1 - 1e-12])
def test_elliptic_e_vs_scipy(m):
    # parameter convention (not modulus): E(m) = int sqrt(1 - m sin^2)
    ref = scipy.special.ellipe(m)
    assert abs(elliptic_e(m) - ref) <= 1e-14 * ref


def test_elliptic_e_series_route():
    for m in (-0.8, -0.3, 0.2, 0.6):
        assert abs(elliptic_e_series(m) - elliptic_e(m)) < 1e-11


def test_elliptic_e_rejects_m_above_one():
    with pytest.raises(DomainError):
        elliptic_e(1.5)
