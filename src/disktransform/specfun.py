"""Special-function kernel: gamma, Bessel J, Bessel zeros, Pochhammer,
Gauss hypergeometric 2F1 on [0, 1], complete elliptic integral E.

Everything here is scalar real arithmetic.  The Bessel and 2F1 evaluators
sum the defining series directly; no asymptotic expansions or analytic
continuation are involved.  For large argument the Bessel series loses
accuracy to cancellation in float64, so integer and half-integer orders
switch to fixed-point integer summation of the same series, with a
truncation error below (terms + 1) * 2^-128 (see bessel_j).  E comes from
the arithmetic-geometric mean (see elliptic_e), with no quadrature.
bessel_j, hyp2f1 and elliptic_e raise DomainError for non-finite input
before any iteration.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesConfig",
    "DomainError",
    "SeriesError",
    "gamma",
    "pochhammer",
    "bessel_j",
    "bessel_zero",
    "hyp2f1",
    "elliptic_e",
]


class DomainError(ValueError):
    """Argument outside the supported domain (poles included)."""


class SeriesError(RuntimeError):
    """Series did not meet the tolerance within max_terms."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for series evaluation.

    abs_tol is a bound on the truncation tail, not on single terms.
    """

    abs_tol: float = 1e-14
    max_terms: int = 50_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT = SeriesConfig()


def gamma(x: float) -> float:
    """Gamma function on the real line, poles at 0, -1, -2, ... rejected."""
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


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def bessel_j(alpha: float, x: float, config: SeriesConfig | None = None) -> float:
    """Bessel function of the first kind via the defining power series

        J_alpha(x) = sum_k (-1)^k / (Gamma(k+alpha+1) k!) (x/2)^(2k+alpha).

    alpha >= 0.  For x <= 8 the series is summed in float64.  For x > 8 the
    alternating terms near x ~ 25 exceed the result by ~1e7, which float64
    cannot absorb at the 1e-10 accuracy the zero finder needs, so integer
    and half-integer alpha switch to fixed-point integer summation of the
    same series (see _bessel_j_fixed; its truncation error is below
    (terms + 1) * 2^-128).  Any other alpha with x > 8 raises DomainError,
    and so does a non-finite alpha or x.
    """
    cfg = config or _DEFAULT
    if not (math.isfinite(alpha) and math.isfinite(x)):
        raise DomainError(f"bessel_j needs finite alpha and x, got ({alpha}, {x})")
    if alpha < 0:
        raise DomainError(f"bessel_j needs alpha >= 0, got {alpha}")
    if x < 0:
        raise DomainError(f"bessel_j needs x >= 0, got {x}")
    if x == 0:
        return 1.0 if alpha == 0 else 0.0
    if x > 8:
        if 2 * alpha != int(2 * alpha):
            raise DomainError(
                f"bessel_j({alpha}, {x}): for x > 8 only integer and "
                "half-integer orders are supported")
        return _bessel_j_fixed(alpha, x, cfg)
    half = 0.5 * x
    term = half**alpha / gamma(alpha + 1.0)
    total = term
    ratio_base = half * half
    for k in range(1, cfg.max_terms):
        term *= -ratio_base / (k * (k + alpha))
        total += term
        # past k ~ x/2 the term ratio is below ~0.6, so the tail is < 2|term|
        if k > half + 1 and abs(term) < 0.25 * cfg.abs_tol:
            return total
    raise SeriesError(f"bessel_j({alpha}, {x}) did not converge")


def _bessel_j_fixed(alpha: float, x: float, cfg: SeriesConfig) -> float:
    """J_alpha(x) for integer or half-integer alpha, the series summed in
    Python integers scaled by 2^P.

    x/2 = num / 2^sh exactly (x is a binary float).  Term k is term k-1
    times num^2 / 2^(2 sh) / (k (k + alpha)), truncated toward zero.  For
    alpha = n + 1/2, Gamma(k + alpha + 1) carries a factor sqrt(pi): the
    sum runs over J_alpha(x) / sqrt(x / (2 pi)) with term ratio
    -2 (x/2)^2 / (k (2k + 2n + 1)) and is scaled once at the end.

    Each truncation errs by less than one unit 2^-P, and a unit dropped at
    term j reaches term k multiplied by at most (x/2)^(2m) / (m!)^2,
    m = k - j, a term of I_0(x) <= e^x.  So the summed error is below
    (terms + 1) e^x 2^-P, and P = 128 + ceil(x log2 e) makes it below
    (terms + 1) 2^-128 (times sqrt(x / (2 pi)) for half-integer alpha).
    total / 2^P is correctly rounded int division.  The sum stops once
    k > x/2 and |term| < abs_tol/100.
    """
    n = int(alpha)
    half_order = alpha != n
    num, den = x.as_integer_ratio()
    sh = den.bit_length()  # den = 2^(sh-1), so x/2 = num / 2^sh
    prec = 128 + math.ceil(x * math.log2(math.e))  # guard bits + bits of e^x
    tn, td = cfg.abs_tol.as_integer_ratio()
    bound = (tn << prec) // (100 * td)
    if half_order:
        # Gamma(n + 3/2) = sqrt(pi) (2n+1)! / (2^(2n+1) n!)
        lead = (num**n << (prec + 2 * n + 1)) * math.factorial(n)
        lead_den = math.factorial(2 * n + 1)
        shift, step, offset = 2 * sh - 1, 2, 2 * n + 1
        scale = math.sqrt(0.5 * x / math.pi)
        bound //= math.isqrt(math.ceil(x)) + 1  # > scale: scaled term < abs_tol/100
    else:
        lead, lead_den = num**n << prec, math.factorial(n)
        shift, step, offset = 2 * sh, 1, n
        scale = 1.0
    a = lead // (lead_den << (n * sh))  # |term_0| 2^P
    total = a
    num2 = num * num
    half = 0.5 * x
    for k in range(1, cfg.max_terms):
        a = a * num2 // (k * (step * k + offset) << shift)
        total += -a if k & 1 else a
        if k > half and a < bound:
            return total / (1 << prec) * scale
    raise SeriesError(f"bessel_j({alpha}, {x}) fixed-point series did not converge")


def _bessel_j_prime(d: int, x: float) -> float:
    if d == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(d - 1, x) - bessel_j(d + 1, x))


def bessel_zero(d: int, tol: float = 1e-12) -> float:
    """Smallest positive root of J_d, for integer 0 <= d <= 20.

    Sign-change bracket scan (first zero sits above x = d), bisection to a
    safe interval, then Newton polish with J_d' = (J_{d-1} - J_{d+1}) / 2.
    """
    if not (0 <= d <= 20):
        raise DomainError(f"bessel_zero supports 0 <= d <= 20, got {d}")
    if not (tol > 0):
        raise DomainError("tol must be positive")
    a = d + 0.1
    fa = bessel_j(d, a)
    step = 0.5
    while True:
        b = a + step
        fb = bessel_j(d, b)
        if fa * fb <= 0:
            break
        a, fa = b, fb
    for _ in range(40):
        m = 0.5 * (a + b)
        fm = bessel_j(d, m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    for _ in range(60):
        dx = bessel_j(d, x) / _bessel_j_prime(d, x)
        x -= dx
        if abs(dx) < tol:
            break
    return x


def hyp2f1(a: float, b: float, c: float, x: float, config: SeriesConfig | None = None) -> float:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) x^n on [0, 1].

    At x = 1 the Gauss limit Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    is returned; it requires c - a - b > 0.  For x in [0, 1) the series is
    summed in numpy chunks with the geometric tail bound |term| x / (1 - x),
    so the stopping rule controls the tail, not just the last term.
    """
    cfg = config or _DEFAULT
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
    # terminating cases (a or b a non-positive integer) fall out naturally:
    # a ratio factor hits zero and the tail bound is exact from then on.
    total = 0.0
    term = 1.0  # term_0
    n0 = 0
    chunk = 64  # doubles each pass: small x stops after tens of terms
    tail_factor = x / (1.0 - x)
    # the geometric tail bound needs the term ratio at or below x, which
    # holds once n clears the parameter scale
    n_safe = 8 + 4 * (abs(a) + abs(b) + abs(c))
    while n0 < cfg.max_terms:
        n = np.arange(n0, n0 + chunk, dtype=float)
        ratios = x * (a + n) * (b + n) / ((c + n) * (n + 1.0))
        terms = term * np.cumprod(ratios)
        total += term + float(np.sum(terms[:-1]))
        term = float(terms[-1])
        n0 += chunk
        if n0 > n_safe and abs(term) * max(tail_factor, 1.0) < cfg.abs_tol:
            return total + term
        if chunk < 1_048_576:
            chunk *= 2
    raise SeriesError(f"hyp2f1({a},{b};{c};{x}) did not converge in {cfg.max_terms} terms")


@functools.cache
def _gl_nodes(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]; cached, so the
    arrays are shared by every caller and made read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
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
        return math.sqrt(1.0 - m) * _agm_e(-m / (1.0 - m), 1.0 / (1.0 - m))
    return _agm_e(m, 1.0 - m)


def _agm_e(m: float, mc: float) -> float:
    """E(m) for 0 <= m < 1, given mc = 1 - m: with a_0 = 1, g_0 = sqrt(mc)
    and c_0^2 = m, E = pi / (2 M) (1 - sum_n 2^(n-1) c_n^2), M the limit of
    a_n, and 1 - c_0^2 / 2 = (1 + mc) / 2.  c_{n+1} = (a_n - g_n) / 2 is
    formed as c_n^2 / (4 a_{n+1}), which does not cancel.  The loop stops
    once c_n^2 <= 1e-30, when a_n - g_n = c_n^2 / (2 a_{n+1}) and the
    remaining terms are far below one ulp of the result."""
    a, g = 1.0, math.sqrt(mc)
    c2, weight = m, 0.5
    rest = 0.5 * (1.0 + mc)
    while c2 > 1e-30:
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        c2 = (c2 / (4.0 * a)) ** 2
        weight *= 2.0
        rest -= weight * c2
    return 0.5 * math.pi / a * rest


def elliptic_e_series(m: float, config: SeriesConfig | None = None) -> float:
    """Series form E(m) = (pi/2) sum_k [ ((1/2)_k / k!)^2 m^k / (1 - 2k) ].

    Converges for |m| < 1; kept as an independent cross-check of the AGM
    route.
    """
    cfg = config or _DEFAULT
    if not (-1.0 < m < 1.0):
        raise DomainError(f"elliptic_e_series needs |m| < 1, got {m}")
    total = 1.0
    coef = 1.0  # ((1/2)_k / k!)^2 at k = 0
    for k in range(1, cfg.max_terms):
        coef *= ((k - 0.5) / k) ** 2
        term = coef * m**k / (1 - 2 * k)
        total += term
        if abs(term) < cfg.abs_tol * (1.0 - abs(m)):
            return 0.5 * math.pi * total
    raise SeriesError(f"elliptic_e_series({m}) did not converge")
