"""Adaptive quadrature over the unit disk.

Independent numerical route to the defining kernel integrals (Cauchy kernel,
analytic-projection kernels, principal-value Beurling kernel).  Everything in
transforms is cross-checked against this module, so nothing here may import
from transforms.

Machinery: tensor Gauss-Legendre panels (8 and 16 nodes per axis), greedy
refinement of the panel with the largest error indicator.  Each refinement
step makes one integrand call: both rules of the initial panel, and later
both rules of all four children of a split, are evaluated on one
concatenated point array.  Panel bookkeeping uses an insertion counter as
the heap tie-break, and accumulation order is fixed, so a run is
reproducible bit for bit for a given configuration.

Integrands are either a DiskPolynomial or a callable w -> value that accepts
complex numpy arrays elementwise.
"""
from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .diskalg import DiskPolynomial, evaluate
from .specfun import _gl_nodes

__all__ = [
    "DEFAULT_BUDGET",
    "OracleBudgetError",
    "QuadResult",
    "quad_disk",
    "cauchy_eval",
    "pv_beurling_eval",
    "lp_norm_numeric",
    "angular_parseval_check",
]

DEFAULT_BUDGET = 2_000_000
_NODES = 8  # per axis of a 2-D panel's coarse rule; the fine rule doubles it
_PANEL_EVALS = 5 * _NODES * _NODES


def thread_cap() -> int:
    """Parallelism cap from the DISKT_THREADS environment variable, clamped
    to [1, os.cpu_count()] so that a stray large value cannot start more
    workers than there are cores."""
    raw = os.environ.get("DISKT_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, min(k, os.cpu_count() or 1))


class OracleBudgetError(RuntimeError):
    """Evaluation budget exhausted before the tolerance was met."""


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


def _panels_2d(F, boxes):
    """Panels for a list of boxes (ax, bx, ay, by), all in one call of F:
    n x n vs 2n x 2n tensor Gauss-Legendre per box, n = _NODES.  Returns one
    (refined value, error indicator) pair per box, each bit for bit what
    the box would give alone."""
    ax, bx, ay, by = np.array(boxes).T[:, :, None]
    X = np.empty(len(boxes) * _PANEL_EVALS)
    Y = np.empty_like(X)
    rules = []
    start = 0
    for k in (_NODES, 2 * _NODES):
        x, w = _gl_nodes(k)
        xs = 0.5 * (ax + bx) + 0.5 * (bx - ax) * x
        ys = 0.5 * (ay + by) + 0.5 * (by - ay) * x
        stop = start + len(boxes) * k * k
        # the k x k grid of each box, box after box, x along the rows
        X[start:stop].reshape(-1, k, k)[...] = xs[:, :, None]
        Y[start:stop].reshape(-1, k, k)[...] = ys[:, None, :]
        rules.append((start, stop, k, w))
        start = stop
    vals = F(X, Y)
    coarse, fine = (np.einsum("i,j,pij->p", w, w, vals[lo:hi].reshape(-1, k, k))
                    for lo, hi, k, w in rules)
    out = []
    for (a, b, c, d), vc, vf in zip(boxes, coarse, fine):
        scale = 0.25 * (b - a) * (d - c)
        v = scale * vf
        out.append((v, abs(v - scale * vc)))
    return out


def _adaptive_2d(F, box, tol, budget, evals_used=0):
    """Greedy panel refinement until the summed error indicator is <= tol.

    Returns (value, err, evals).  Splits the worst panel into four, and the
    four children go through one integrand call (as do both rules of the
    initial panel); the heap tie-break counter makes pop order, and hence
    the accumulated float sums, reproducible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    evals = evals_used + _PANEL_EVALS
    [(v, e)] = _panels_2d(F, [box])
    if evals > budget:
        raise OracleBudgetError(
            f"initial panel alone needs {evals} evaluations, budget is {budget}")
    heap = [(-e, 0, tuple(box) + (v, e))]
    counter = 1
    total_v = v
    total_e = e
    while total_e > tol:
        if evals > budget:
            raise OracleBudgetError(
                f"needed more than {budget} evaluations (err {total_e:.3e} > tol {tol:.3e})"
            )
        _, _, (a, b, c, d, pv, pe) = heapq.heappop(heap)
        total_v -= pv
        total_e -= pe
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        boxes = ((a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d))
        for box2, (v2, e2) in zip(boxes, _panels_2d(F, boxes)):
            evals += _PANEL_EVALS
            total_v += v2
            total_e += e2
            heapq.heappush(heap, (-e2, counter, box2 + (v2, e2)))
            counter += 1
    return total_v, total_e, evals


def _adaptive_1d(f, a, b, tol, budget, n=12):
    if tol <= 0:
        raise ValueError("tol must be positive")

    def measure(lo, hi):
        out = []
        for k in (n, 2 * n):
            x, w = _gl_nodes(k)
            xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            out.append(0.5 * (hi - lo) * np.dot(w, f(xs)))
        return out[1], abs(out[1] - out[0]), 3 * n

    v, e, ne = measure(a, b)
    evals = ne
    if evals > budget:
        raise OracleBudgetError(
            f"initial panel alone needs {evals} evaluations, budget is {budget}")
    heap = [(-e, 0, (a, b, v, e))]
    counter = 1
    total_v, total_e = v, e
    while total_e > tol:
        if evals > budget:
            raise OracleBudgetError(f"1-D quadrature budget {budget} exhausted")
        _, _, (lo, hi, pv, pe) = heapq.heappop(heap)
        total_v -= pv
        total_e -= pe
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v2, e2, ne = measure(*seg)
            evals += ne
            total_v += v2
            total_e += e2
            heapq.heappush(heap, (-e2, counter, seg + (v2, e2)))
            counter += 1
    return total_v, total_e, evals


def quad_disk(f, tol: float, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Integral of f over the unit disk against normalized area measure.

    Polar panels (r, theta) on [0,1] x [0,2pi]; the r Jacobian divided by pi
    is folded into the integrand.
    """
    fn = _as_fn(f)

    def F(R, T):
        return fn(R * np.exp(1j * T)) * R / math.pi

    v, e, ev = _adaptive_2d(F, (0.0, 1.0, 0.0, 2 * math.pi), tol, budget)
    return QuadResult(complex(v), float(e), ev)


def _exit_radius(z: complex, beta):
    """Distance from interior point z to the unit circle along direction e^{i beta}."""
    c = (np.exp(1j * beta) * complex(z).conjugate()).real
    return -c + np.sqrt(c * c + 1.0 - abs(z) ** 2)


def cauchy_eval(phi, z: complex, tol: float, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """int phi(w)/(w - z) dA(w) for |z| < 1.

    Polar coordinates centered at z: w = z + s e^{i beta} with s in
    [0, exit radius]; the Jacobian s cancels 1/|w - z| so the integrand is
    smooth.  Inner variable scaled to [0, 1] per ray.
    """
    if abs(z) >= 1:
        raise ValueError("z must be interior")
    fn = _as_fn(phi)

    def F(B, U):
        S = _exit_radius(z, B)
        w = z + (U * S) * np.exp(1j * B)
        return fn(w) * np.exp(-1j * B) * S / math.pi

    v, e, ev = _adaptive_2d(F, (0.0, 2 * math.pi, 0.0, 1.0), tol, budget)
    return QuadResult(complex(v), float(e), ev)


def pv_beurling_eval(phi, z: complex, tol: float, budget: int = 4 * DEFAULT_BUDGET) -> QuadResult:
    """-p.v. int phi(w)/(z - w)^2 dA(w) for |z| < 1, phi C^1.

    Strategy: subtract the constant phi(z).  The principal value of the
    constant term vanishes (the angular factor e^{-2i beta} integrates to
    zero on every centered ring, and rays to the boundary contribute a
    beta-integral that cancels by the same symmetry, verified against the
    closed form S[1] = 0).  The remainder (phi(w) - phi(z))/(z - w)^2 is
    O(1/|w - z|): integrable, handled as a smooth main region
    s in [(1-|z|)/2, exit radius] plus dyadic rings shrinking to s = 0 whose
    values decay geometrically; the tail is extrapolated as one extra ring.
    """
    if abs(z) >= 1:
        raise ValueError("z must be interior")
    fn = _as_fn(phi)
    fz = complex(fn(np.array([complex(z)]))[0])
    eps0 = (1.0 - abs(z)) / 2.0

    def F_main(B, U):
        S = _exit_radius(z, B)
        s = eps0 + U * (S - eps0)
        w = z + s * np.exp(1j * B)
        return (fn(w) - fz) * np.exp(-2j * B) / s * (S - eps0) / math.pi

    total, err, evals = _adaptive_2d(F_main, (0.0, 2 * math.pi, 0.0, 1.0), tol / 2, budget)

    def F_ring(B, S):
        w = z + S * np.exp(1j * B)
        return (fn(w) - fz) * np.exp(-2j * B) / S / math.pi

    est = total
    hi = eps0
    converged = False
    for _ in range(60):
        lo = hi / 2.0
        rv, re_, evals = _adaptive_2d(F_ring, (0.0, 2 * math.pi, lo, hi), tol / 8, budget, evals)
        err += re_
        total += rv
        new_est = total + rv  # remaining rings sum to about one more ring
        if abs(new_est - est) < tol / 2:
            est = new_est
            converged = True
            break
        est = new_est
        hi = lo
    if not converged:
        raise OracleBudgetError("ring extrapolation did not stabilize")
    return QuadResult(complex(-est), float(err + abs(new_est - total)), evals)


def lp_norm_numeric(f, p: float, tol: float, budget: int = DEFAULT_BUDGET) -> float:
    """(int |f|^p dA)^{1/p} over the disk, p >= 1 finite."""
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError("p must be a finite real >= 1")
    fn = _as_fn(f)
    res = quad_disk(lambda w: np.abs(fn(w)) ** p, tol, budget)
    return res.value.real ** (1.0 / p)


def angular_parseval_check(beta: float, r: float, tol: float = 1e-10,
                           budget: int = DEFAULT_BUDGET) -> tuple:
    """Mean of |1 - r e^{i theta}|^{-2 beta} over the circle, two ways.

    Left: 1-D adaptive quadrature in theta.  Right: the series
    sum_n (c_n r^n)^2 with c_n = Gamma(n+beta)/(n! Gamma(beta)), built by the
    ratio recurrence c_{n+1} = c_n (n+beta)/(n+1).  Returns (lhs, rhs).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not (0 <= r < 1):
        raise ValueError("r must lie in [0, 1)")

    def f(T):
        return 1.0 / np.abs(1.0 - r * np.exp(1j * T)) ** (2 * beta) / (2 * math.pi)

    lhs, _, _ = _adaptive_1d(f, 0.0, 2 * math.pi, tol, budget)

    s = 0.0
    c = 1.0
    n = 0
    while True:
        term = (c * r**n) ** 2
        s += term
        if n > 8 and term < 1e-18 * max(1.0, s):
            break
        if n > 10_000_000:
            raise OracleBudgetError("series for the angular mean did not converge")
        c *= (n + beta) / (n + 1)
        n += 1
    return float(lhs), float(s)
