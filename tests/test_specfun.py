import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from disktransform import specfun
from disktransform.specfun import (
    ABS_TOL,
    MAX_TERMS,
    X_SWITCH,
    DomainError,
    SeriesError,
    _agm,
    bessel_j,
    bessel_zero,
    elliptic_e,
    gamma,
    hyp2f1,
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


def _bessel_j_fraction(d, x):
    """Integer-order series in exact rational arithmetic, with the stopping
    rule of the fixed-point path: the reference it must equal bit for bit."""
    xr = Fraction(x) / 2
    q = xr * xr
    term = xr**d / math.factorial(d)
    total = term
    bound = Fraction(ABS_TOL) / 100
    for k in range(1, MAX_TERMS):
        term *= -q / (k * (k + d))
        total += term
        if k > float(xr) and abs(term) < bound:
            return float(total)
    raise AssertionError("reference series did not converge")


def _elliptic_e_series(m):
    """E(m) = (pi/2) sum_k ((1/2)_k / k!)^2 m^k / (1 - 2k) for |m| < 1, a
    route to elliptic_e independent of its arithmetic-geometric mean."""
    total = coef = 1.0  # ((1/2)_k / k!)^2 at k = 0
    for k in range(1, MAX_TERMS):
        coef *= ((k - 0.5) / k) ** 2
        term = coef * m**k / (1 - 2 * k)
        total += term
        if abs(term) < ABS_TOL * (1.0 - abs(m)):
            return 0.5 * math.pi * total
    raise AssertionError("reference series did not converge")


def test_bessel_fixed_point_matches_rational_series():
    """The fixed-point J_n equals the rational series bit for bit, and the
    J_{n+1} summed in the same loop is within ABS_TOL/100 of 50-digit
    mpmath."""
    rng = random.Random(20)
    points = [(rng.randint(0, 21), 45.0 - 37.0 * rng.random()) for _ in range(300)]
    # values near the zeros are tiny, so their last bits are the hardest to hit
    points += [(d, bessel_zero(d)) for d in range(5, 21)]
    for d, x in points:
        jd, jd1 = specfun._bessel_j_fixed(d, x)
        assert bessel_j(d, x) == jd == _bessel_j_fraction(d, x), (d, x)
        with mpmath.workdps(50):
            assert abs(jd1 - mpmath.besselj(d + 1, x)) <= ABS_TOL / 100, (d, x)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 7.5, 20.5])
def test_bessel_half_integer_large_argument(alpha):
    """Half-integer orders take the float series up to x = 8, like any
    order, and are rejected beyond it: only integer orders have the
    fixed-point path."""
    for x in (1.0, 5.0, 8.0):
        got = bessel_j(alpha, x)
        assert abs(got - scipy.special.jv(alpha, x)) < 1e-12
        if alpha == 0.5:  # DLMF 10.49.3 closed form
            assert abs(got - math.sqrt(2 / (math.pi * x)) * math.sin(x)) < 1e-12
    for x in (8.5, 30.0):
        with pytest.raises(DomainError):
            bessel_j(alpha, x)


def test_bessel_fractional_order_large_argument_rejected():
    for alpha in (1.3, 2.5):
        with pytest.raises(DomainError):
            bessel_j(alpha, 30.0)
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
    pytest.param(gamma, (math.nan,), id="gamma-nan"),
    pytest.param(gamma, (math.inf,), id="gamma-inf"),
    pytest.param(gamma, (-math.inf,), id="gamma-minus-inf"),
])
def test_bessel_non_finite_rejected(fn, args):
    # a NaN once ran a series or a quadrature through all its iterations
    # before failing, or never returned; the check must come before any
    # iteration.  The name predates the other functions' cases.
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        fn(*args)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("fn,args", [
    pytest.param(bessel_zero, (2.5,), id="bessel_zero-2.5"),
])
def test_specfun_bad_arguments_rejected(fn, args):
    # without the check, bessel_zero(2.5) returns the zero of J_2.5
    with pytest.raises(DomainError):
        fn(*args)


def test_bessel_zero_work(monkeypatch):
    """The bracketed Newton walk from the closed-form bracket takes d = 0..20
    in 116 fixed-point evaluations, each summing J_d and J_{d+1} in one loop,
    and no bessel_j call, and a second pass gives the same zeros."""
    zeros = [bessel_zero(d) for d in range(21)]
    calls = {"bessel_j": 0, "_bessel_j_fixed": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(specfun, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(specfun, name, spy)
    assert [bessel_zero(d) for d in range(21)] == zeros
    assert calls == {"bessel_j": 0, "_bessel_j_fixed": 116}


def test_bessel_zero_bracket(monkeypatch):
    """bessel_zero hands _newton_root the Qu & Wong bracket for d >= 1 and
    (2, 3) for d = 0: it holds the first zero and not the second, and J_d
    changes sign across it."""
    brackets = []
    real = specfun._newton_root
    monkeypatch.setattr(specfun, "_newton_root",
                        lambda fdf, a, b: brackets.append((a, b)) or real(fdf, a, b))
    for d in range(21):
        bessel_zero(d)
    monkeypatch.undo()
    with mpmath.workdps(40):
        a1 = float(mpmath.airyaizero(1))  # the first zero of Airy Ai
    assert specfun._QW_C == -a1 / 2 ** (1 / 3)
    assert specfun._QW_E == 3 / 20 * a1**2 * 2 ** (1 / 3)
    assert brackets[0] == (2.0, 3.0)
    for d, (lo, hi) in enumerate(brackets):
        if d:
            assert lo == d + specfun._QW_C * d ** (1 / 3)
            assert hi == lo + specfun._QW_E * d ** (-1 / 3)
        first, second = scipy.special.jn_zeros(d, 2)
        assert lo < first < hi < second, d
        (j_lo, _), (j_hi, _) = specfun._bessel_j_fixed(d, lo), specfun._bessel_j_fixed(d, hi)
        assert (j_lo > 0) != (j_hi > 0), d


def test_bessel_zero_vs_scipy():
    for d in range(21):
        assert abs(bessel_zero(d) - scipy.special.jn_zeros(d, 1)[0]) < 1e-12


@pytest.mark.parametrize("d,ref", list(enumerate(J_ZEROS)))
def test_bessel_zero_table(d, ref):
    root = bessel_zero(d)
    assert abs(root - ref) < 5e-5
    assert abs(bessel_j(d, root)) < 1e-11


def test_bessel_zero_correctly_rounded():
    # the Newton polish reads J from the fixed-point series, so the root is
    # the float64 nearest the true zero, also below x = 8 (d <= 4)
    with mpmath.workdps(40):
        for d in range(21):
            assert bessel_zero(d) == float(mpmath.besseljzero(d, 1)), d


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


@pytest.mark.parametrize("a,b,c", [
    pytest.param(0.3, 0.7, 1.6, id="generic-s0.6"),
    pytest.param(1.25, -0.4, 2.3, id="generic-s1.45"),
    pytest.param(-0.35, 0.8, 0.9, id="generic-s0.45"),
    pytest.param(0.9, 0.8, 1.2, id="growing-s-0.5"),
    pytest.param(1.5, 1.25, 2.1, id="growing-s-0.65"),
    pytest.param(-3.0, 0.7, 1.4, id="terminating-a"),
    pytest.param(0.45, -2.0, 2.2, id="terminating-b"),
    pytest.param(2.5, 0.3, 0.5, id="terminating-c-a"),
])
def test_hyp2f1_connection_regime_vs_mpmath(a, b, c):
    # past x = 1 - 1e-6 the series would need more than MAX_TERMS terms, so
    # those values come from the 1 - x connection formula; for s = c - a - b
    # < 0 they grow like (1 - x)^s
    with mpmath.workdps(40):
        for x in (0.61, 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12):
            ref = mpmath.hyp2f1(a, b, c, x)
            assert abs(hyp2f1(a, b, c, x) / ref - 1) < 1e-14, x


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
def test_hyp2f1_continuous_at_switch(q):
    below, above = X_SWITCH, math.nextafter(X_SWITCH, 1.0)
    for a, b, c in ((q / 2, q / 2 - 1, 1.0), (q / 2, q / 2, 2.0)):
        lo, hi = hyp2f1(a, b, c, below), hyp2f1(a, b, c, above)
        assert abs(hi - lo) <= 1e-14 * abs(lo), (a, b, c)


def test_hyp2f1_cancelling_terms_fall_back_to_series(monkeypatch):
    # c - a - b = 1 + 1e-10: the connection terms cancel, so the series runs
    # and raises its typed error instead of returning a guess; a smaller
    # MAX_TERMS makes it give up quickly
    monkeypatch.setattr(specfun, "MAX_TERMS", 100_000)
    q = 1 + 1e-10
    with pytest.raises(SeriesError):
        hyp2f1(q / 2, q / 2 - 1, 1.0, 1 - 1e-8)
    # exactly integer c - a - b: Gamma(-1) is a pole, so the series again
    with pytest.raises(SeriesError):
        hyp2f1(0.5, -0.5, 1.0, 1 - 1e-8)
    assert abs(hyp2f1(0.5, -0.5, 1.0, 0.9) - 2 / math.pi * elliptic_e(0.9)) < 1e-15


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


@pytest.mark.parametrize("m", [0.0, 1e-8, 0.3, 0.6, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9,
                               1 - 1e-12])
def test_agm_k_vs_scipy(m):
    e, k = _agm(m, 1.0 - m)
    assert abs(k - scipy.special.ellipk(m)) <= 1e-14 * k
    assert e == elliptic_e(m)


def test_elliptic_e_series_route():
    for m in (-0.8, -0.3, 0.2, 0.6):
        assert abs(_elliptic_e_series(m) - elliptic_e(m)) < 1e-11


def test_elliptic_e_rejects_m_above_one():
    with pytest.raises(DomainError):
        elliptic_e(1.5)


# --- Gauss-Legendre rule -----------------------------------------------------

def _legendre_and_derivative(n, x):
    p0, p1 = 1, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / (1 - x * x)


@pytest.mark.parametrize("n", [8, 16, 41, 81])
def test_gl_nodes_vs_mpmath(n):
    """Nodes by Newton on P_n at 40 digits, weights 2 / ((1 - x^2) P_n'^2)."""
    x, w = specfun._gl_nodes(n)
    with mpmath.workdps(40):
        for xi, wi in zip(x, w):
            r = mpmath.mpf(float(xi))
            for _ in range(4):
                p, dp = _legendre_and_derivative(n, r)
                r -= p / dp
            dp = _legendre_and_derivative(n, r)[1]
            assert abs(xi - r) < 1e-15
            assert abs(wi / (2 / ((1 - r * r) * dp * dp)) - 1) < 1e-13
