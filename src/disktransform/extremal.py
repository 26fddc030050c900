"""Endpoint norms of the conjugating solution operator.

Covers the closed form for the Lp -> Linf norm (p > 2) and its extremal
density, the monotone auxiliary function built from Gauss hypergeometric
values, the interpolation upper bound on Lp -> Lp, the L1 -> L1 integrals
(an elliptic-integral radial form at the origin and a 2-D quadrature scan
over points, whose argmax is reported but never asserted), and the density
showing the operator does not map L2 into bounded functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import DEFAULT_BUDGET, _about, _adaptive, cauchy_eval, quad_disk
from .specfun import X_SWITCH, _agm, elliptic_e, gamma, hyp2f1
from .spectral import solve_alpha

__all__ = [
    "ExponentPair",
    "phi_fn",
    "norm_p_to_inf",
    "monotonicity_scan",
    "extremal_ratio_pinf",
    "riesz_thorin_bound",
    "l1_at_zero",
    "l1_integrand_scan",
    "counterexample_p2",
]


@dataclass(frozen=True)
class ExponentPair:
    """p in (2, inf] with its conjugate q = p/(p-1) in [1, 2), derived from p."""
    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not (self.p > 2):
            raise ValueError("p must exceed 2 (p = inf allowed)")
        object.__setattr__(self, "q", 1.0 if math.isinf(self.p) else self.p / (self.p - 1))
        if not (1 <= self.q < 2):
            raise ValueError("conjugate exponent must lie in [1, 2)")


def phi_fn(q: float, t: float) -> float:
    """The radial comparison function

        (2/(2-q)) 2F1(q/2, q/2-1; 1; t) + 2F1(q/2, q/2; 2; t) t^{q/2}

    for q in [1, 2), t in [0, 1].  At t = 1 both series go through the
    Gauss closed form (their parameter margin 2 - q is positive).

    At q = 1 the margin is the integer 1, where hyp2f1 has no connection
    formula, so for X_SWITCH < t < 1 the two values come from the complete
    elliptic integrals E and K of one AGM loop: 2F1(1/2, -1/2; 1; m) =
    (2/pi) E(m) (DLMF 19.5.1) and, by a contiguous relation,
    2F1(1/2, 1/2; 2; m) = (4 / (pi m)) (E(m) - (1 - m) K(m)).  Below
    X_SWITCH that difference cancels as m -> 0, and the series is used.

    The function is nondecreasing on [0, 1] for every q in [1, 2).
    DLMF 15.5.1, d/dt F(a, b; c; t) = (ab/c) F(a+1, b+1; c+1; t), turns the
    first term's derivative into -(q/2) F(q/2+1, q/2; 2; t), and DLMF 15.5.3,
    d/dt [t^a F(a, b; c; t)] = a t^{a-1} F(a+1, b; c; t), turns the
    second's into (q/2) t^{q/2-1} F(q/2+1, q/2; 2; t).  Together

        phi'(t) = (q/2) 2F1(q/2+1, q/2; 2; t) (t^{q/2-1} - 1).

    The 2F1 has positive parameters, so every Taylor coefficient is
    positive and it is positive on [0, 1).  The last factor is >= 0 on
    (0, 1] because q/2 - 1 < 0.  _phi_monotone_q1 checks the identity
    exactly, term by term, at q = 1."""
    if not (1 <= q < 2):
        raise ValueError("q must lie in [1, 2)")
    if not (0 <= t <= 1):
        raise ValueError("t must lie in [0, 1]")
    if q == 1.0 and X_SWITCH < t < 1.0:
        e, k = _agm(t, 1.0 - t)
        return (4.0 * e + 4.0 * (e - (1.0 - t) * k) / math.sqrt(t)) / math.pi
    first = (2.0 / (2.0 - q)) * hyp2f1(q / 2, q / 2 - 1, 1.0, t)
    second = hyp2f1(q / 2, q / 2, 2.0, t) * t ** (q / 2)
    return first + second


def _taylor_2f1(a2: int, b2: int, c: int, order: int) -> list[tuple[int, int]]:
    """The Taylor coefficients of 2F1(a2/2, b2/2; c; x) at x^0 .. x^{order-1},
    as (numerator, denominator) int pairs, from the ratio of consecutive
    terms (a+n)(b+n) / ((c+n)(n+1)), so no Fraction is built."""
    num, den, out = 1, 1, []
    for n in range(order):
        out.append((num, den))
        num *= (a2 + 2 * n) * (b2 + 2 * n)
        den *= 4 * (c + n) * (n + 1)
    return out


def _phi_monotone_q1() -> bool:
    """phi_fn's derivative identity at q = 1, checked exactly for n < 40.

    In s = sqrt(t), phi = 2 A(s^2) + s B(s^2) with A = 2F1(1/2, -1/2; 1),
    B = 2F1(1/2, 1/2; 2), and the identity reads
    phi'(t) = (1/2) C(s^2) (1/s - 1) with C = 2F1(3/2, 1/2; 2).  Matching
    the coefficients of s^{2n-1} and s^{2n} gives (2n+1) B_n = C_n and
    4(n+1) A_{n+1} = -C_n; C_n > 0 is the positivity of C's series."""
    A = _taylor_2f1(1, -1, 1, 41)
    B = _taylor_2f1(1, 1, 2, 40)
    C = _taylor_2f1(3, 1, 2, 40)
    return all((2 * n + 1) * bn * cd == cn * bd
               and 4 * (n + 1) * an * cd == -cn * ad
               and cn * cd > 0
               for n, ((an, ad), (bn, bd), (cn, cd)) in enumerate(zip(A[1:], B, C)))


def norm_p_to_inf(p: float) -> float:
    """Closed-form Lp -> Linf operator norm, p > 2:
    2 (Gamma(2-q) / Gamma(2-q/2)^2)^{1/q}.  Rejects p <= 2, where the
    operator does not map into bounded functions."""
    pair = ExponentPair(p)
    q = pair.q
    return 2.0 * (gamma(2 - q) / gamma(2 - q / 2) ** 2) ** (1.0 / q)


def monotonicity_scan(q: float, grid_size: int) -> bool:
    """True iff the comparison function is nondecreasing across an evenly
    spaced grid on [0, 1] (slack 1e-10 for float noise)."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    prev = phi_fn(q, 0.0)
    for i in range(1, grid_size):
        cur = phi_fn(q, i / (grid_size - 1))
        if cur < prev - 1e-10:
            return False
        prev = cur
    return True


def _phi0_boundary(qp: float):
    """The extremal density i (1-w) / |1-w|^{1+qp}, vectorized."""

    def f(w):
        return 1j * (1 - w) / np.abs(1 - w) ** (1 + qp)

    return f


def extremal_ratio_pinf(p: float, z: complex, tol: float,
                        budget: int = DEFAULT_BUDGET) -> float:
    """|P[phi0](z)| / ||phi0||_p for the extremal density of the Lp -> Linf
    problem; approaches the closed-form norm as z -> 1 along the real axis.

    The numerator integrals are evaluated by quadrature only: the Cauchy
    kernel part in polar coordinates centered at z, the conjugated analytic
    kernel part as a smooth disk integral.  The denominator uses the closed
    form (Gamma(2-q)/Gamma(2-q/2)^2)^{1/p} (equal to 1 when p = inf)."""
    pair = ExponentPair(p)
    if abs(z) >= 1:
        raise ValueError("z must be interior")
    q = pair.q
    qp = 0.0 if math.isinf(p) else q / p
    phi0 = _phi0_boundary(qp)
    part_cauchy = cauchy_eval(phi0, z, tol, budget)

    def conj_kernel(w):
        return z * np.conj(phi0(w)) / (1 - np.conj(w) * z)

    part_analytic = quad_disk(conj_kernel, tol, budget)
    value = -part_cauchy.value - part_analytic.value
    denom = 1.0 if math.isinf(p) else (gamma(2 - q) / gamma(2 - q / 2) ** 2) ** (1.0 / p)
    return abs(value) / denom


def riesz_thorin_bound(p: float) -> float:
    """Interpolation upper bound alpha^{2/p} (8/pi)^{1-2/p} for p >= 2
    (endpoints: the L2 norm root at p = 2, 8/pi at p = inf)."""
    if not (p >= 2):
        raise ValueError("p must be >= 2")
    if math.isinf(p):
        return 8.0 / math.pi  # the weight of alpha is 0: no root to solve
    w = 2.0 / p
    return solve_alpha() ** w * (8.0 / math.pi) ** (1.0 - w)


def _l1_radial_integrand(r: float) -> float:
    """2 (1+r^2) E(m), m = 4r^2/(1+r^2)^2: the sum (1-r^2) E(-4r^2/(1-r^2)^2)
    + (1+r^2) E(m) of two terms that are equal by DLMF 19.7.5.  m is passed
    as 1 - ((1-r)(1+r)/(1+r^2))^2, which is at most 1 and does not cancel
    as r -> 1, where the integrand is 4 E(1) = 4."""
    up = 1.0 + r * r
    return 2.0 * up * elliptic_e(1.0 - ((1.0 - r) * (1.0 + r) / up) ** 2)


def l1_at_zero(tol: float, budget: int = DEFAULT_BUDGET) -> float:
    """The L1 -> L1 kernel integral at the origin via the radial
    elliptic-integral form: (2/pi) times the integral over r in [0, 1]."""

    f = np.vectorize(_l1_radial_integrand, otypes=[float])
    v, _, _ = _adaptive(f, [(0.0, 1.0)], tol, budget)
    return (2.0 / math.pi) * float(v)


def _l1_point(w: complex, tol: float, budget: int):
    def F(B, U, S):
        s = U * S
        zz = w + s * np.exp(1j * B)
        return np.abs(-np.exp(-1j * B) + s * zz / (1 - w.conjugate() * zz)) * S / math.pi

    res = _about(w, F, tol, budget)
    return (w, res.value.real, res.err_estimate)


def l1_integrand_scan(grid, tol: float, budget: int = DEFAULT_BUDGET):
    """F(w) = int |1/(w-z) + z/(1 - conj(w) z)| dA(z) for each grid point w.

    The 1/|w-z| singularity is removed by polar coordinates centered at w.
    Returns rows (w, F(w), err_estimate) in grid order; a point outside the
    open disk (NaN included) raises ValueError.  The caller may report the
    argmax; nothing about the supremum location is asserted here (the
    maximality of w = 0 is conjectural and is labelled as such by the
    CLI)."""
    return [_l1_point(complex(w), tol, budget) for w in grid]


def counterexample_p2(budget: int = DEFAULT_BUDGET) -> dict:
    """Evidence that the operator cannot act on L2 densities into bounded
    functions: the density w / (|w|^2 log(2/|w|)).

    Its squared L2 norm, 2 int_0^1 dr / (r log^2(2/r)), is evaluated in the
    variable t = log(2/r) (integrand 2/t^2 on [log 2, log(2/eps)]) plus the
    exact antiderivative tail 2/log(2/eps); the reference value is 2/log 2.
    The kernel integral at the origin diverges: the annulus integrals
    2 int_eps^1 dr / (r log(2/r)) grow without bound as eps decreases, shown
    across eps = 10^{-1} .. 10^{-8}.  Each increment between consecutive eps
    is integrated once, at tol 1e-10 / 8, and the annuli are its running
    sums, so each meets 1e-10 by its summed indicator."""
    eps_norm = 1e-8
    t_hi = math.log(2.0 / eps_norm)

    def f_sq(t):
        return 2.0 / (t * t)

    v, _, _ = _adaptive(f_sq, [(math.log(2.0), t_hi)], 1e-10, budget)
    norm_sq_numeric = float(v) + 2.0 / t_hi
    reference = 2.0 / math.log(2.0)

    def f_ann(t):
        return 2.0 / t

    annuli = []
    lo, av = math.log(2.0), 0.0
    for k in range(1, 9):
        eps = 10.0 ** (-k)
        hi = math.log(2.0 / eps)
        dv, _, _ = _adaptive(f_ann, [(lo, hi)], 1e-10 / 8, budget)
        lo, av = hi, av + float(dv)
        annuli.append((eps, av))

    values = [a for _, a in annuli]
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    return {
        "norm_sq": norm_sq_numeric,
        "norm_sq_reference": reference,
        "norm_sq_abs_err": abs(norm_sq_numeric - reference),
        "annulus_integrals": annuli,
        "strictly_increasing": all(d > 0 for d in diffs),
        "growth_differences": diffs,
    }
