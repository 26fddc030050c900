"""Adaptive quadrature over the unit disk.

Independent numerical route to the defining kernel integrals (Cauchy kernel,
analytic-projection kernels, principal-value Beurling kernel).  Everything in
transforms is cross-checked against this module, so nothing here may import
from transforms.

Machinery: one greedy refinement loop (_adaptive) for intervals and boxes.
It starts from a list of panels, measured in one integrand call: an angle
over a full turn starts as its four quarter-turns, since one panel over the
whole turn resolves no angular frequency above a few, and every other
interval starts whole.  A tol below the roundoff of that first sum raises
OracleBudgetError right after it.  Each step then bisects the worst panels,
as many as it takes to leave at most tol in the rest and as the budget
still pays for, and measures all their children in one integrand call; the
budget is a hard cap.  One rule serves both shapes: a panel is evaluated
once on the tensor grid of the 21-point Gauss-Kronrod rule in each axis (21
evaluations per interval, 441 per box, so 1764 for a full turn's four
starting boxes), whose nodes include those of the 10-point Gauss rule.  K21
in every axis gives the value, and dropping to G10 in one axis gives that
axis's error indicator, so every point is read; the grids of all the
panels of a call are contracted in two array passes, one axis at a time.
The indicator of the panel is their sum, and the panel is bisected across
the axis with the largest one, so an integrand already resolved in one
coordinate is refined in the other alone.  Panel bookkeeping uses an
insertion counter as the heap tie-break, and accumulation order is fixed,
so a run is reproducible bit for bit for a given configuration.

In the polar maps centred at z (cauchy_eval, pv_beurling_eval), the
integrand of a DiskPolynomial phi of degree D is a polynomial in the radial
variable U, of degree D for C and 2D - 1 for S, which the fixed
Gauss-Legendre rule exact at that degree integrates: D//2 + 1 or max(D, 1)
points.  What is left in beta is integrated exactly too, with no panels
and in one integrand call (_trapezoid), which raises OracleBudgetError for
a tol below the roundoff of its sum.  With s = U S, the beta integrand of
C is e^{-i beta}/pi sum_k a_k(beta) S(beta)^{k+1}/(k+1), where
a_k(beta + pi) = (-1)^k a_k(beta).  S(beta) and -S(beta + pi) are the two
roots of s^2 + 2cs - (1 - |z|^2) = 0, c = Re(e^{i beta} conj z), so the
integrand at beta plus that at beta + pi is symmetric in the two roots: a
polynomial in their sum -2c and product -(1 - |z|^2), that is a
trigonometric polynomial in beta of degree <= 2D + 2 with no square root
left, and S reduces the same way.  The N-point trapezoid rule with N even
sums exactly such antipodal pairs, so every even N >= 2D + 4 is exact.
Every other integrand, a callable that wraps a polynomial included, takes
the box panels above, 441 evaluations per box, from the four quarter-turns
in beta.

Integrands are either a DiskPolynomial or a callable w -> value that accepts
complex numpy arrays elementwise; w always has the full shape of the grid.
The internal integrands instead receive one node array per axis: f(x) of
shape (p, 21) for p intervals, and F(X, Y) of shapes (p, 21, 1) and
(p, 1, 21), which broadcast to the grids of p boxes, so a factor of one
coordinate is computed on 21 values per box; the result must broadcast to
(p, 21) or (p, 21, 21).
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .diskalg import DiskPolynomial, evaluate
from .specfun import _gl_nodes, hyp2f1

__all__ = [
    "DEFAULT_BUDGET",
    "OracleBudgetError",
    "QuadResult",
    "quad_disk",
    "cauchy_eval",
    "pv_beurling_eval",
    "angular_parseval_check",
]

DEFAULT_BUDGET = 2_000_000

# The (G10, K21) Gauss-Kronrod pair on [-1, 1] (Kronrod 1965; QUADPACK qk21):
# (node, K21 weight, G10 weight) for the 10 Gauss nodes, then (node, K21
# weight) for the 11 Kronrod nodes interleaved with them, which are the
# roots of the Stieltjes polynomial E_11.  K21 is exact to degree 31, G10 to
# degree 19.  Values to 17 significant digits, from 40-digit mpmath.
_GK21 = (
    (-0.97390652851717174, 0.032558162307964725, 0.066671344308688138),
    (-0.86506336668898454, 0.075039674810919957, 0.14945134915058059),
    (-0.67940956829902444, 0.10938715880229764, 0.21908636251598204),
    (-0.43339539412924721, 0.13470921731147334, 0.26926671930999635),
    (-0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.43339539412924721, 0.13470921731147334, 0.26926671930999635),
    (0.67940956829902444, 0.10938715880229764, 0.21908636251598204),
    (0.86506336668898454, 0.075039674810919957, 0.14945134915058059),
    (0.97390652851717174, 0.032558162307964725, 0.066671344308688138),
    (-0.99565716302580809, 0.011694638867371874),
    (-0.93015749135570824, 0.054755896574351995),
    (-0.7808177265864169, 0.093125454583697601),
    (-0.56275713466860466, 0.12349197626206584),
    (-0.2943928627014602, 0.14277593857706009),
    (0.0, 0.1494455540029169),
    (0.2943928627014602, 0.14277593857706009),
    (0.56275713466860466, 0.12349197626206584),
    (0.7808177265864169, 0.093125454583697601),
    (0.93015749135570824, 0.054755896574351995),
    (0.99565716302580809, 0.011694638867371874),
)
_X21, _W21 = np.array([row[:2] for row in _GK21]).T
_W10 = np.array([row[2] for row in _GK21 if len(row) == 3])
# K21 and G10 as the columns of one matrix, G10 zero at the Kronrod nodes
_W2 = np.stack([_W21, np.r_[_W10, np.zeros(_X21.size - _W10.size)]], axis=1)
# _W2 in complex, for complex grids: numpy would cast _W2 on every product
_W2C = _W2.astype(complex)


class OracleBudgetError(RuntimeError):
    """Evaluation budget exhausted before the tolerance was met, or a tol
    the exact rule cannot certify."""


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.err_estimate) or self.err_estimate < 0:
            raise ValueError("err_estimate must be finite and >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


def _as_fn(phi):
    if isinstance(phi, DiskPolynomial):
        return lambda w: evaluate(phi, w)
    if callable(phi):
        return phi
    raise TypeError("integrand must be a DiskPolynomial or a callable")


def _grid(F, boxes):
    """F on the node grids of a list of intervals (a, b) or boxes
    (ax, bx, ay, by), all in one call, and each panel's Jacobian.

    Per axis, a panel's nodes are the 21 Kronrod nodes of _GK21, the 10
    Gauss nodes first.  F gets one node array per axis, of shape (p, 21) for
    intervals and (p, 21, 1), (p, 1, 21) for boxes, which broadcast to the
    (p, 21, ..., 21) tensor grid, so a factor of one coordinate costs 21
    values per panel.  Returns the values on the full grid and, per panel,
    the product of its half-widths."""
    b = np.array(boxes, dtype=float)
    p, k, n = b.shape[0], b.shape[1] // 2, _X21.size
    lo, hi = b[:, 0::2], b[:, 1::2]
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, :, None] + half[:, :, None] * _X21  # (p, k, 21)
    grid = (p,) + (n,) * k
    vals = F(*[x[:, i].reshape((p,) + (1,) * i + (n,) + (1,) * (k - 1 - i))
               for i in range(k)])
    if vals.shape != grid:  # F constant along an axis may return fewer values
        vals = np.broadcast_to(vals, grid)
    return vals, half.prod(axis=1)


def _panels(vals, scale):
    """The rule on the grid values of p panels (see _grid): per panel its
    value by K21 in every axis, its error indicator, the sum over axes of
    the distance to G10 in that axis (times K21 in the others), and the
    axis of the largest term, the first one on a tie, as a list of
    (value, indicator, axis).

    Two array passes contract the grid with K21 and G10 at once: the last
    axis first, then x.  The rule matrix is _W2, or its complex copy _W2C
    on a complex grid, the product numpy forms after casting _W2 itself.
    Each panel's sums are small matrix products of its own, an interval's
    values taken as a (1, 21) row, so they do not depend on how many panels
    share the call."""
    w = _W2C if np.iscomplexobj(vals) else _W2
    if vals.ndim == 2:  # intervals
        r = scale[:, None] * (vals[:, None] @ w)[:, 0]  # r[:, i]: rule i
        v = r[:, 0]
        return list(zip(v.tolist(), np.abs(v - r[:, 1]).tolist(), [0] * len(v)))
    r = scale[:, None, None] * (w.T @ (vals @ w))  # r[:, i, j]: rule i in x, j in y
    v = r[:, 0, 0]
    ex, ey = np.abs(v - r[:, 1, 0]), np.abs(v - r[:, 0, 1])
    return list(zip(v.tolist(), (ex + ey).tolist(), (ey > ex).astype(int).tolist()))


def _roundoff_floor(vals, scale, tol):
    """eps times the K21 of |vals| summed over the panels (see _panels), the
    least rounding their summed value carries, or 0.0 where that cannot
    exceed tol.  The K21 weights are positive and sum to 2 per axis, so the
    floor is at most eps max|vals| sum(scale) 2^axes, and it is computed
    only for a tol below twice that bound: the factor 2 covers the rounding
    of both sums, which is of the order of 100 eps."""
    eps = np.finfo(float).eps
    a = np.abs(vals)
    if not tol < 2 * eps * a.max() * scale.sum() * 2 ** (vals.ndim - 1):
        return 0.0
    return eps * sum(v for v, _, _ in _panels(a, scale))


def _bisect(box, axis):
    """The two halves of an interval (a, b) or a box (ax, bx, ay, by), cut
    at the midpoint of one axis (0 for x, 1 for y)."""
    i = 2 * axis
    mid = 0.5 * (box[i] + box[i + 1])
    return box[:i + 1] + (mid,) + box[i + 2:], box[:i] + (mid,) + box[i + 1:]


# [0, 2 pi] as its four quarter-turns: one panel over a full turn resolves
# no angular frequency above a few, so a turn that starts whole is bisected
# twice before any panel is kept
_QUARTERS = [(q * math.pi / 2, (q + 1) * math.pi / 2) for q in range(4)]


def _adaptive(F, panels, tol, budget):
    """Greedy panel refinement until the summed error indicator is <= tol.

    panels is a list of starting intervals (a, b) or boxes (ax, bx, ay, by),
    all of one kind, and F takes one node array per axis (see _grid).  A
    panel costs 21 evaluations per axis, 21 ** (len(box) // 2) in all.
    Returns (value, err, evals).  The starting panels are measured in one
    call of F; a tol below eps times their summed K21 of |F|, the least
    rounding the sum carries (_roundoff_floor), raises OracleBudgetError
    right after it.
    Each step then pops the worst panels until the error left in the heap
    is <= tol or the budget cannot pay for another bisection, bisects each
    across the axis _panels names, and measures all the children in one
    call of F; a step that pops none raises OracleBudgetError, so evals
    never exceeds the budget.  The heap tie-break counter makes pop order,
    and hence the accumulated float sums, reproducible.  A non-finite
    integrand value makes the summed indicator non-finite, which raises
    ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cost = _X21.size ** (len(panels[0]) // 2)
    evals = len(panels) * cost
    if evals > budget:
        raise OracleBudgetError(
            f"initial panels alone need {evals} evaluations, budget is {budget}")
    vals, scale = _grid(F, panels)
    floor = _roundoff_floor(vals, scale, tol)
    children, rows = panels, _panels(vals, scale)
    heap, counter = [], 0
    total_v = total_e = 0.0
    while True:
        for child, (v, e, axis) in zip(children, rows):
            total_v += v
            total_e += e
            heapq.heappush(heap, (-e, counter, child, v, e, axis))
            counter += 1
        if not math.isfinite(total_e):
            raise ValueError("integrand is not finite on the integration region")
        if tol < floor:  # fixed by the first call, so it raises there
            raise OracleBudgetError(
                f"tol {tol:.3e} is below the roundoff {floor:.3e} of the initial panels")
        if total_e <= tol:
            return total_v, total_e, evals
        children = []
        while heap and not total_e <= tol and evals + 2 * cost <= budget:
            _, _, box, pv, pe, axis = heapq.heappop(heap)
            total_v -= pv
            total_e -= pe
            evals += 2 * cost
            children.extend(_bisect(box, axis))
        if not children:
            raise OracleBudgetError(
                f"needed more than {budget} evaluations (err {total_e:.3e} > tol {tol:.3e})"
            )
        rows = _panels(*_grid(F, children))


def quad_disk(f, tol: float, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Integral of f over the unit disk against normalized area measure.

    Polar panels (r, theta) on [0,1] x [0,2pi], which start as the four
    quarter-turns in theta; the r Jacobian divided by pi is folded into the
    integrand, on the radial nodes before the full grid is multiplied.

    Observed floor: the Bergman integrand phi(w) / (1 - z conj(w))^2 of a
    degree <= 8 polynomial at |z| = 0.999 reads an error near 1e-12 at any
    tol from 1e-8 down (3 of 24 seeded cases at tol 1e-12 read 1.2-1.8e-12),
    because 1 - z conj(w) cancels down to about 1e-3 and so amplifies the
    rounding of the float64 nodes and integrand.  It is roundoff, not
    truncation: the same panels in extended precision read about 1e-14.
    """
    fn = _as_fn(f)

    def F(R, T):
        return fn(R * np.exp(1j * T)) * (R / math.pi)

    v, e, ev = _adaptive(F, [(0.0, 1.0) + q for q in _QUARTERS], tol, budget)
    return QuadResult(complex(v), float(e), ev)


def _exit_radius(z: complex, beta):
    """Distance from interior point z to the unit circle along direction e^{i beta}."""
    c = (np.exp(1j * beta) * complex(z).conjugate()).real
    return -c + np.sqrt(c * c + 1.0 - abs(z) ** 2)


def _about(z: complex, F, tol: float, budget: int) -> QuadResult:
    """Integral of F(beta, U, S) over (beta, U) in [0, 2 pi] x [0, 1], for
    polar coordinates centred at an interior point z: S = S(beta) is the exit
    radius along e^{i beta}, and F maps U to a radius on [0, S] itself.  The
    region is refined in box panels, which start as the four quarter-turns
    in beta.  Rejects z outside the open disk (NaN included) before
    evaluating anything."""
    if not abs(z) < 1:
        raise ValueError(f"z must be interior, got {z}")

    def G(B, U):
        return F(B, U, _exit_radius(z, B))

    v, e, ev = _adaptive(G, [q + (0.0, 1.0) for q in _QUARTERS], tol, budget)
    return QuadResult(complex(v), float(e), ev)


def _trapezoid(z: complex, F, tol: float, budget: int, degree: int,
               u_degree: int) -> QuadResult:
    """_about's integral for an F built from a DiskPolynomial of the given
    degree D, which is a polynomial of degree u_degree in U.

    U takes the (u_degree//2 + 1)-point Gauss-Legendre rule, exact at that
    degree, and beta the periodic trapezoid rule, exact for every even
    N >= 2D + 4 (see the module docstring), so one integrand call settles
    it: on the 2N nodes beta_j = pi j / N, N = 2D + 4, it gives T_2N, and
    its even-index nodes give T_N.  The value is T_2N and its error
    estimate |T_2N - T_N|, floored at the roundoff of the sum; the two
    exact rules agree, so the estimate is the runtime check of that
    exactness.  An estimate above tol raises OracleBudgetError after the
    call, as does a budget below its 2N n_U evaluations before it (every
    beta node counts n_U), and a non-finite integrand raises ValueError.
    z outside the open disk (NaN included) and a tol that is not positive
    and finite are rejected before evaluating anything."""
    if not abs(z) < 1:
        raise ValueError(f"z must be interior, got {z}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    x, w = _gl_nodes(u_degree // 2 + 1)
    U, wu = 0.5 + 0.5 * x, 0.5 * w
    n = 2 * degree + 4
    evals = 2 * n * U.size
    if evals > budget:
        raise OracleBudgetError(
            f"initial {2 * n} nodes alone need {evals} evaluations, budget is {budget}")
    B = (math.pi / n * np.arange(2 * n))[:, None]
    vals = np.einsum("pj,j->p", F(B, U, _exit_radius(z, B)), wu)
    v = math.pi / n * vals.sum()
    # both rules are exact, so their difference reads roundoff alone and can
    # be 0; eps times the rule applied to |g|, the least rounding the sum
    # carries, keeps the estimate from claiming less (QUADPACK's floor is
    # 50 eps, which would refuse tol 1e-13 near the circle)
    floor = np.finfo(float).eps * math.pi / n * np.abs(vals).sum()
    if not math.isfinite(floor):
        raise ValueError("integrand is not finite on the integration region")
    e = max(abs(v - 2 * math.pi / n * vals[::2].sum()), floor)
    if e > tol:
        raise OracleBudgetError(
            f"exact rule on {2 * n} nodes reads err {e:.3e} > tol {tol:.3e}")
    return QuadResult(complex(v), float(e), evals)


def _degree(phi) -> int:
    """Total degree m + n of a DiskPolynomial (0 for the zero polynomial)."""
    return max((m + n for m, n in phi.coeffs), default=0)


def cauchy_eval(phi, z: complex, tol: float, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """int phi(w)/(w - z) dA(w) for |z| < 1.

    Polar coordinates centered at z: w = z + s e^{i beta} with s = U S in
    [0, S], S the exit radius; the Jacobian s cancels 1/|w - z| so the
    integrand is smooth.  For a DiskPolynomial of degree D it is a
    polynomial of degree D in U, and the sum of its beta integrand at
    antipodal directions is a trigonometric polynomial of degree <= 2D + 2,
    so fixed rules in U and beta integrate it exactly (see _trapezoid).
    A callable takes the box panels of _about.
    """
    fn = _as_fn(phi)

    def F(B, U, S):
        w = z + (U * S) * np.exp(1j * B)
        return fn(w) * np.exp(-1j * B) * S / math.pi

    if isinstance(phi, DiskPolynomial):
        d = _degree(phi)
        return _trapezoid(z, F, tol, budget, d, d)
    return _about(z, F, tol, budget)


def pv_beurling_eval(phi, z: complex, tol: float, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """-p.v. int phi(w)/(z - w)^2 dA(w) for |z| < 1, phi C^1.

    Subtract the constant phi(z): its principal value vanishes, because the
    angular factor e^{-2i beta} integrates to zero on every ring centered at
    z and the rays to the boundary cancel by the same symmetry (checked
    against the closed form S[1] = 0).  In polar coordinates centered at z,
    w = z + s e^{i beta}, the Jacobian s cancels one power of the kernel.
    The graded radial map s = S(beta) U^2, S the exit radius, has Jacobian
    2 S U, so one region (beta, U) in [0, 2 pi] x [0, 1] carries the bounded
    integrand (phi(z) - phi(w)) e^{-2i beta} 2 / (pi U), the leading minus
    sign included; the grading keeps it smooth in U even where phi is only
    C^1 at z (Duffy 1982).  For a DiskPolynomial of degree D, phi(z) - phi(w)
    is a polynomial in U^2 without constant term, so the integrand is a
    polynomial of degree 2D - 1 in U.  Over s in [0, S] the integrand is
    (phi(z) - phi(w)) e^{-2i beta}/(pi s), whose beta integrand sums at
    antipodal directions to a trigonometric polynomial of degree <= 2D + 2
    as C's does, so fixed rules in U and beta integrate it exactly (see
    _trapezoid).  A callable takes the box panels of _about.
    """
    fn = _as_fn(phi)

    @functools.cache
    def fz():
        # phi(z), on the first integrand call: z is checked by then
        return complex(fn(np.array([complex(z)]))[0])

    def F(B, U, S):
        w = z + (S * U * U) * np.exp(1j * B)
        return (fz() - fn(w)) * np.exp(-2j * B) * (2 / math.pi) / U

    if isinstance(phi, DiskPolynomial):
        d = _degree(phi)
        return _trapezoid(z, F, tol, budget, d, max(2 * d - 1, 0))
    return _about(z, F, tol, budget)


def angular_parseval_check(beta: float, r: float, tol: float = 1e-10,
                           budget: int = DEFAULT_BUDGET) -> tuple:
    """Mean of |1 - r e^{i theta}|^{-2 beta} over the circle, two ways.

    Left: 1-D adaptive quadrature in theta, from the four quarter-turns.
    Right: the Parseval sum sum_n (c_n r^n)^2 with c_n = (beta)_n / n!,
    which is 2F1(beta, beta; 1; r^2) (specfun.hyp2f1, whose SeriesError a
    series that does not converge raises).  Returns (lhs, rhs).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not (0 <= r < 1):
        raise ValueError("r must lie in [0, 1)")

    def f(T):
        return 1.0 / np.abs(1.0 - r * np.exp(1j * T)) ** (2 * beta) / (2 * math.pi)

    lhs, _, _ = _adaptive(f, _QUARTERS, tol, budget)
    return float(lhs), hyp2f1(beta, beta, 1.0, r * r)
