"""Special-function kernel: gamma, Bessel J, Bessel zeros, Gauss
hypergeometric 2F1 on [0, 1], complete elliptic integral E.

Everything here is scalar real arithmetic, with no asymptotic expansions.
Bessel J sums its defining series.  For large argument that series loses
accuracy to cancellation in float64, so integer orders switch to
fixed-point integer summation of the same series, with a truncation error
below (terms + 1) * 2^-128 (see bessel_j).  2F1 sums its defining series
for x <= X_SWITCH = 0.6 and uses the 1 - x connection formula DLMF 15.8.4
above it, falling back to the series where the formula's two terms cancel
by more than CANCEL_MAX = 8 (c - a - b near an integer); on the profile
parameter sets the relative error against mpmath is below 1e-14 except
where a long series runs close to x = 1 (see hyp2f1).  E and K come from one
arithmetic-geometric mean loop (see elliptic_e and _agm), with no
quadrature.  gamma, bessel_j, hyp2f1 and elliptic_e raise
DomainError for non-finite input before any iteration.  Every root of the
package, the Bessel zeros here and alpha and delta in spectral, is found to
the last float by one bracketed Newton walk, _newton_root, started from a
bracket written in closed form; none is searched for.
"""
from __future__ import annotations

import functools
import math
import numbers

import numpy as np

__all__ = [
    "DomainError",
    "SeriesError",
    "gamma",
    "bessel_j",
    "bessel_zero",
    "hyp2f1",
    "elliptic_e",
]


class DomainError(ValueError):
    """Argument outside the supported domain (poles included)."""


class SeriesError(RuntimeError):
    """Series did not meet the tolerance within MAX_TERMS terms."""


# ABS_TOL bounds a series' truncation tail, not single terms
ABS_TOL = 1e-14
MAX_TERMS = 50_000_000


def gamma(x: float) -> float:
    """Gamma function on the real line, poles at 0, -1, -2, ... and
    non-finite x rejected."""
    if not math.isfinite(x):
        raise DomainError(f"gamma needs finite x, got {x}")
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"gamma({x}): {exc}") from exc


def _rgamma(x: float) -> float:
    # reciprocal gamma; zero at the poles, used for Gauss limit edge cases
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def bessel_j(alpha: float, x: float) -> float:
    """Bessel function of the first kind via the defining power series

        J_alpha(x) = sum_k (-1)^k / (Gamma(k+alpha+1) k!) (x/2)^(2k+alpha).

    alpha >= 0.  For x <= 8 the series is summed in float64.  For x > 8 the
    alternating terms near x ~ 25 exceed the result by ~1e7, more than
    float64 can absorb, so integer alpha switches to fixed-point integer
    summation of the same series (see _bessel_j_fixed; its truncation error
    is below (terms + 1) * 2^-128), the one bessel_zero reads at every x.
    The path serves callers that ask for x > 8: in the package only
    spectral.restricted_Z can, for lam < 1/16, and the ledger's arguments
    stay below 2.  Any other alpha with x > 8 raises DomainError, and so
    does a non-finite alpha or x.
    """
    if not (math.isfinite(alpha) and math.isfinite(x)):
        raise DomainError(f"bessel_j needs finite alpha and x, got ({alpha}, {x})")
    if alpha < 0:
        raise DomainError(f"bessel_j needs alpha >= 0, got {alpha}")
    if x < 0:
        raise DomainError(f"bessel_j needs x >= 0, got {x}")
    if x == 0:
        return 1.0 if alpha == 0 else 0.0
    if x > 8:
        if alpha != int(alpha):
            raise DomainError(f"bessel_j({alpha}, {x}): for x > 8 only integer orders "
                              "are supported")
        return _bessel_j_fixed(int(alpha), x)[0]
    half = 0.5 * x
    term = half**alpha / gamma(alpha + 1.0)
    total = term
    ratio_base = half * half
    for k in range(1, MAX_TERMS):
        term *= -ratio_base / (k * (k + alpha))
        total += term
        # past k ~ x/2 the term ratio is below ~0.6, so the tail is < 2|term|
        if k > half + 1 and abs(term) < 0.25 * ABS_TOL:
            return total
    raise SeriesError(f"bessel_j({alpha}, {x}) did not converge")


def _bessel_j_fixed(n: int, x: float) -> tuple[float, float]:
    """(J_n(x), J_{n+1}(x)) for integer n, both series summed in one loop in
    Python integers scaled by 2^P.

    x/2 = num / 2^sh exactly (x is a binary float).  Term k of J_n is term
    k-1 times num^2 / 2^(2 sh) / (k (k + n)), and term k of J_{n+1} is term
    k of J_n times num / 2^sh / (k + n + 1), each truncated toward zero.

    Each truncation errs by less than one unit 2^-P, and a unit dropped at
    term j of J_n reaches its term k multiplied by at most (x/2)^(2m) /
    (m!)^2, m = k - j, a term of I_0(x) <= e^x.  So J_n's summed error is
    below (terms + 1) e^x 2^-P, and P = 128 + ceil(x log2 e) makes it below
    (terms + 1) 2^-128.  Term k of J_{n+1} errs by below one unit plus
    (x/2) / (k + n + 1) times the error of J_n's term k, which is below
    I_1(x) <= sinh(x) units, so J_{n+1} has the same bound.  total / 2^P is
    correctly rounded int division.  The sum stops once k > x/2 and J_n's
    |term| < ABS_TOL/100; past k > x/2 the terms of J_{n+1} are below those
    of J_n and fall too, so its tail is below ABS_TOL/100 as well.
    """
    num, den = x.as_integer_ratio()
    sh = den.bit_length()  # den = 2^(sh-1), so x/2 = num / 2^sh
    prec = 128 + math.ceil(x * math.log2(math.e))  # guard bits + bits of e^x
    tn, td = ABS_TOL.as_integer_ratio()
    bound = (tn << prec) // (100 * td)
    a = (num**n << prec) // (math.factorial(n) << (n * sh))  # |term_0| 2^P
    b = a * num // (n + 1 << sh)
    total, total1 = a, b
    num2 = num * num
    half = 0.5 * x
    shift = 2 * sh
    for k in range(1, MAX_TERMS):
        a = a * num2 // (k * (k + n) << shift)
        b = a * num // (k + n + 1 << sh)
        if k & 1:
            total -= a
            total1 -= b
        else:
            total += a
            total1 += b
        if k > half and a < bound:
            scale = 1 << prec
            return total / scale, total1 / scale
    raise SeriesError(f"bessel_j({n}, {x}) fixed-point series did not converge")


def _newton_root(fdf, a, b):
    """The float next to the sign change of f on [a, b] where |f| is least.

    fdf(x) returns (f(x), f'(x)).  Newton steps run inside the bracket of
    the sign change, which each evaluation tightens; the first starts from
    the end with the smaller |f| (a on a tie), a step that leaves the
    bracket is replaced by the midpoint, and a step that rounds back onto
    its starting point is replaced by the adjacent float towards the other
    end.  The walk ends at two adjacent floats across the sign change, and
    the one with the smaller |f| is returned (a on a tie), as bisection to
    the last float would return it.  A point where f is exactly 0 is
    returned as it is.  ValueError when f(a) and f(b) have the same sign.
    """
    (fa, dfa), (fb, dfb) = fdf(a), fdf(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]")
    x, fx, dfx = (a, fa, dfa) if abs(fa) <= abs(fb) else (b, fb, dfb)
    for _ in range(200):  # a bound only: each step drops at least one float
        if math.nextafter(a, b) == b:
            break
        step = x - fx / dfx if dfx else math.nan
        if step == x:
            step = math.nextafter(x, b if x == a else a)
        elif not a < step < b:
            step = 0.5 * (a + b)
        x = step
        fx, dfx = fdf(x)
        if fx == 0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a if abs(fa) <= abs(fb) else b


# Qu & Wong (Trans. AMS 351, 1999): nu + C nu^(1/3) < j_{nu,1} < nu + C nu^(1/3)
# + E nu^(-1/3) for nu > 0, C = -a1 / 2^(1/3) and E = (3/20) a1^2 2^(1/3), where
# a1 = -2.338107410459767 is the first zero of Airy Ai
_QW_C = 1.8557570814892383
_QW_E = 1.0331503036492367


def bessel_zero(d: int) -> float:
    """Smallest positive root of J_d, for integer 0 <= d <= 20.

    The root starts from a closed-form bracket: the bounds of Qu & Wong
    (see _QW_C) for d >= 1, and (2, 3) for d = 0 (j_{0,1} = 2.4048...).
    The bracketed Newton walk of _newton_root, the one that also finds
    alpha and delta, takes it to the last float, with
    J_d' = (d/x) J_d - J_{d+1} (DLMF 10.6.2).  The walk evaluates J_d and
    J_{d+1} by the fixed-point series at every x, both from one loop of
    _bessel_j_fixed, whose J_{d+1} terms are J_d's times (x/2)/(k+d+1)
    (DLMF 10.2.2): below x = 8 the float64 series errs by about 1e-15 near
    the root, enough to move the zero of J_4 by 15 ulp.  With it the result
    equals the correctly rounded zero (40-digit mpmath) for every d.
    """
    if not (isinstance(d, numbers.Integral) and 0 <= d <= 20):
        raise DomainError(f"bessel_zero supports integer 0 <= d <= 20, got {d!r}")
    if d == 0:
        lo, hi = 2.0, 3.0
    else:
        lo = d + _QW_C * d ** (1 / 3)
        hi = lo + _QW_E * d ** (-1 / 3)

    def fdf(x):
        jd, jd1 = _bessel_j_fixed(d, x)
        return jd, d / x * jd - jd1

    return _newton_root(fdf, lo, hi)


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) on [0, 1], real and
    finite a, b, c, with c not a non-positive integer.

    Three regimes:

    - x = 1: the Gauss limit Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
      which requires c - a - b > 0.
    - X_SWITCH < x < 1: the 1 - x connection formula DLMF 15.8.4 (see
      _connection), two series in 1 - x < 1 - X_SWITCH plus Gamma factors.
      Where it is unusable (c - a - b an integer or near one, so that its
      two terms cancel by more than CANCEL_MAX, or a Gamma factor out of
      float range) the series below is summed instead, with its
      SeriesError when it needs more than MAX_TERMS terms.
    - 0 <= x <= X_SWITCH: the defining series sum_n (a)_n (b)_n / ((c)_n n!)
      x^n (see _series).

    Measured against 40-digit mpmath on the profile parameter sets
    (q/2, q/2 - 1; 1) and (q/2, q/2; 2), 84 values of q in [1, 2) and t up
    to 1 - 1e-12: the connection formula is within 6.8e-15 relative and the
    series within 2.3e-15 up to x = 0.99.  A series that falls back past
    x = 0.99 is long, and its error grows with its length (2.7e-14 at
    q = 1.977, x = 0.9999, the same as a plain series sum).
    """
    if not all(map(math.isfinite, (a, b, c))):
        raise DomainError(f"hyp2f1 needs finite a, b and c, got ({a}, {b}, {c})")
    if c <= 0 and c == math.floor(c):
        raise DomainError(f"hyp2f1 pole: c = {c} is a non-positive integer")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"hyp2f1 restricted to x in [0, 1], got {x}")
    if x == 1.0:
        if not (c - a - b > 0):
            raise DomainError(
                f"hyp2f1 at x = 1 needs c - a - b > 0, got {c - a - b}"
            )
        return gamma(c) * gamma(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
    if x == 0.0:
        return 1.0
    if x > X_SWITCH:
        value = _connection(a, b, c, x)
        if value is not None:
            return value
    return _series(a, b, c, x)


# x above X_SWITCH goes through the 1 - x connection formula; near 0.6 the
# series (about 60 terms) and the formula (two series of about 40 terms and
# seven Gamma values) cost about the same
X_SWITCH = 0.6
# the formula's two terms may cancel by at most this factor, which keeps
# its relative error below 1e-14 (6.8e-15 measured; 16 allowed 1.5e-14)
CANCEL_MAX = 8.0
# term indices summed in plain floats before the series switches to numpy
# chunks (a numpy chunk costs about as much as 100 loop terms)
_LOOP_N = tuple(map(float, range(128)))


def _connection(a: float, b: float, c: float, x: float) -> float | None:
    """2F1(a, b; c; x) by DLMF 15.8.4 with y = 1 - x:

        Gamma(c) Gamma(s) / (Gamma(c-a) Gamma(c-b)) 2F1(a, b; 1-s; y)
      + y^s Gamma(c) Gamma(-s) / (Gamma(a) Gamma(b)) 2F1(c-a, c-b; 1+s; y),

    s = c - a - b.  Returns None where the formula cannot be trusted: s an
    integer (Gamma(s) or Gamma(-s) at a pole), a factor out of float range,
    or the two terms cancelling by more than CANCEL_MAX.  Each term carries
    a relative error of a few ulps from its Gamma factors, so the sum is
    good to about CANCEL_MAX times that.  As s nears an integer n the two
    terms grow like 1/|s - n| while their sum stays bounded; for n >= 1
    they also carry a factor y^n, so the band where None is returned
    narrows as x nears 1, where the series costs most.  A non-positive
    integer a or b (or c - a, c - b) zeroes one term through _rgamma, and
    the other series terminates.
    """
    y = 1.0 - x
    s = c - a - b
    try:
        g = gamma(c)
        t1 = g * gamma(s) * _rgamma(c - a) * _rgamma(c - b) * _series(a, b, 1.0 - s, y)
        t2 = (g * gamma(-s) * _rgamma(a) * _rgamma(b) * y**s
              * _series(c - a, c - b, 1.0 + s, y))
    except (DomainError, OverflowError, ZeroDivisionError):
        return None
    total = t1 + t2
    if abs(t1) + abs(t2) <= CANCEL_MAX * abs(total) < math.inf:
        return total
    return None


def _series(a: float, b: float, c: float, x: float) -> float:
    """sum_n (a)_n (b)_n / ((c)_n n!) x^n for 0 <= x < 1, summed until the
    geometric tail bound |term| x / (1 - x) no longer changes the float
    sum, so the stopping rule controls the tail, not just the last term.

    The first len(_LOOP_N) terms are summed in a plain float loop, which
    stops at the first term that meets the bound; past them the terms come
    in numpy chunks that double in length.  Terminating cases (a or b a
    non-positive integer) fall out naturally: a ratio hits zero and the
    bound is exact from then on.
    """
    tail_factor = max(x / (1.0 - x), 1.0)
    # the geometric tail bound needs the term ratio at or below x, which
    # holds once n clears the parameter scale
    n_safe = 8 + 4 * (abs(a) + abs(b) + abs(c))
    total = term = 1.0
    for n in _LOOP_N:  # term n + 1 from term n
        term *= x * (a + n) * (b + n) / ((c + n) * (n + 1.0))
        total += term
        if n >= n_safe and total + term * tail_factor == total:
            return total
    n0 = chunk = len(_LOOP_N)
    while n0 < MAX_TERMS:
        n = np.arange(n0, n0 + chunk, dtype=float)
        ratios = x * (a + n) * (b + n) / ((c + n) * (n + 1.0))
        terms = term * np.cumprod(ratios)
        total += float(np.sum(terms))
        term = float(terms[-1])
        n0 += chunk
        if n0 > n_safe and total + term * tail_factor == total:
            return total
        if chunk < 1_048_576:
            chunk *= 2
    raise SeriesError(f"hyp2f1({a},{b};{c};{x}) did not converge in {MAX_TERMS} terms")


@functools.cache
def _gl_nodes(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]; cached, so the
    arrays are shared by every caller and made read-only.

    The nodes are numpy's (within 1e-16 of 40-digit mpmath up to n = 81).
    The weights are 2 / ((1 - x^2) P_n'(x)^2), with P_n and P_{n-1} from
    the three-term recurrence and P_n' = n (P_{n-1} - x P_n) / (1 - x^2):
    within 5.1e-14 relative for n <= 81 (verified no further), where numpy's
    own weights are off by up to 8.4e-14 at n = 18 and 1.2e-12 at n = 41."""
    x, _ = np.polynomial.legendre.leggauss(n)
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def elliptic_e(m: float) -> float:
    """Complete elliptic integral E(m) = int_0^{pi/2} sqrt(1 - m sin^2 t) dt
    for finite m <= 1.

    Arithmetic-geometric mean of 1 and sqrt(1 - m), DLMF 19.8.1 and 19.8.6.
    For m < 0 the imaginary-modulus transformation DLMF 19.7.5,
    E(m) = sqrt(1 - m) E(m'), maps to m' = -m / (1 - m) in (0, 1); its
    complement 1 - m' = 1 / (1 - m) is passed in directly, so nothing
    cancels as m' approaches 1.
    """
    if not -math.inf < m <= 1.0:
        raise DomainError(f"elliptic_e needs finite m <= 1, got {m}")
    if m == 1.0:
        return 1.0
    if m < 0.0:
        return math.sqrt(1.0 - m) * _agm(-m / (1.0 - m), 1.0 / (1.0 - m))[0]
    return _agm(m, 1.0 - m)[0]


def _agm(m: float, mc: float) -> tuple[float, float]:
    """(E(m), K(m)) for 0 <= m < 1, given mc = 1 - m, from one
    arithmetic-geometric mean loop: with a_0 = 1, g_0 = sqrt(mc) and
    c_0^2 = m, K = pi / (2 M) and E = K (1 - sum_n 2^(n-1) c_n^2), M the
    limit of a_n (DLMF 19.8.1, 19.8.6), and 1 - c_0^2 / 2 = (1 + mc) / 2.
    c_{n+1} = (a_n - g_n) / 2 is formed as c_n^2 / (4 a_{n+1}), which does
    not cancel.  The loop stops once c_n^2 <= 1e-30, when a_n - g_n =
    c_n^2 / (2 a_{n+1}), so a_n equals M to far below one ulp and the
    remaining terms of the sum are as small."""
    a, g = 1.0, math.sqrt(mc)
    c2, weight = m, 0.5
    rest = 0.5 * (1.0 + mc)
    while c2 > 1e-30:
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        c2 = (c2 / (4.0 * a)) ** 2
        weight *= 2.0
        rest -= weight * c2
    k = 0.5 * math.pi / a
    return k * rest, k

