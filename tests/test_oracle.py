import cmath
import heapq
import inspect
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from disktransform import extremal, oracle
from disktransform.diskalg import DiskPolynomial, ExactScalar, evaluate
from disktransform.oracle import (
    OracleBudgetError,
    QuadResult,
    angular_parseval_check,
    cauchy_eval,
    pv_beurling_eval,
    quad_disk,
)
from disktransform.specfun import _gl_nodes
from disktransform.transforms import (
    bergman_B,
    beurling_S,
    cauchy_P,
    cauchy_integral,
    j0_op,
)
from conftest import rand_poly
from _lp_norm import lp_norm_numeric


def test_quadresult_contract():
    r = quad_disk(DiskPolynomial({(0, 0): ExactScalar(1)}), 1e-10)
    assert abs(r.value - 1.0) < 1e-12
    assert r.err_estimate >= 0 and math.isfinite(r.err_estimate)
    assert r.evaluations > 0


def test_quadresult_validation():
    with pytest.raises(ValueError):
        QuadResult(1.0, -1e-3, 10)
    with pytest.raises(ValueError):
        QuadResult(1.0, math.nan, 10)
    with pytest.raises(ValueError):
        QuadResult(1.0, 0.0, 0)


def test_disk_monomial_moments():
    # int z^p zbar^q dA/pi = [p == q]/(p+1)
    for p in range(7):
        for q in range(7):
            r = quad_disk(DiskPolynomial({(p, q): ExactScalar(1)}), 1e-10)
            expect = 1.0 / (p + 1) if p == q else 0.0
            assert abs(r.value - expect) < 1e-9, (p, q)


def test_quad_accepts_plain_callable():
    r = quad_disk(lambda w: np.abs(w) ** 2, 1e-10)
    assert abs(r.value - 0.5) < 1e-10


def test_quad_accepts_constant_callable():
    # a callable may return a scalar; the panel grid still takes its shape,
    # and the four quarter-turn panels settle it at once
    r = quad_disk(lambda w: 2.0, 1e-10)
    assert abs(r.value - 2.0) < 1e-12 and r.evaluations == 4 * 441


def test_quad_rejects_junk():
    with pytest.raises(TypeError):
        quad_disk("not integrable", 1e-8)


def test_budget_exhaustion_initial_panel():
    # budget smaller than the cost of a single panel
    with pytest.raises(OracleBudgetError):
        quad_disk(lambda w: np.abs(w), 1e-12, budget=100)


def test_budget_exhaustion_during_refinement():
    # cone singularity at an off-center point: algebraic convergence,
    # full resolution to 1e-14 costs ~65k evaluations
    f = lambda w: np.abs(w - 0.3)
    with pytest.raises(OracleBudgetError):
        quad_disk(f, 1e-14, budget=5000)


def test_cauchy_eval_matches_closed_form():
    rng = random.Random(42)
    for _ in range(20):
        phi = rand_poly(rng, max_total=5)
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        closed = complex(evaluate(cauchy_integral(phi), z))
        got = cauchy_eval(phi, z, 1e-8)
        assert abs(got.value - closed) < 1e-6


def test_cauchy_eval_center():
    phi = DiskPolynomial({(2, 0): ExactScalar(1)})
    closed = complex(evaluate(cauchy_integral(phi), 0.0))
    got = cauchy_eval(phi, 0.0, 1e-9)
    assert abs(got.value - closed) < 1e-8


def test_pv_matches_beurling_S():
    rng = random.Random(43)
    for _ in range(8):
        phi = rand_poly(rng, max_total=4)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        closed = complex(evaluate(beurling_S(phi), z))
        got = pv_beurling_eval(phi, z, 1e-6)
        assert abs(got.value - closed) < 2e-5, (phi, z)


def test_pv_graded_region_is_accurate():
    phi = DiskPolynomial({(2, 0): ExactScalar(1)})
    r1 = pv_beurling_eval(phi, 0.5 + 0.2j, 1e-7)
    closed = complex(evaluate(beurling_S(phi), 0.5 + 0.2j))
    assert abs(r1.value - closed) < 1e-12


def test_pv_c1_at_z_is_cheap_and_stable():
    # |w - z|^1.5 is only C^1 at z; the graded map s = S U^2 keeps the
    # integrand smooth there
    def phi(w):
        return np.abs(w - 0.2) ** 1.5

    fine = pv_beurling_eval(phi, 0.2, 1e-10)
    assert fine.evaluations <= 8000
    assert abs(fine.value - pv_beurling_eval(phi, 0.2, 1e-8).value) < 1e-12


def test_pv_entire_times_conj_matches_series():
    # exp(w) conj(w) = sum_k w^k conj(w) / k!; the tail past k = 30 is below 1e-33
    z = 0.3 + 0.4j
    series = DiskPolynomial({(k, 1): ExactScalar(Fraction(1, math.factorial(k)))
                             for k in range(31)})
    closed = complex(evaluate(beurling_S(series), z))
    got = pv_beurling_eval(lambda w: np.exp(w) * np.conj(w), z, 1e-10)
    assert abs(got.value - closed) <= 1e-13
    assert got.evaluations <= 30_000


def test_oracle_agreement_four_operators():
    """Closed forms vs defining-kernel quadrature for C, S, J0, B."""
    rng = random.Random(44)
    for _ in range(20):
        phi = rand_poly(rng, max_total=4)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))

        got = cauchy_eval(phi, z, 1e-8)
        assert abs(got.value - complex(evaluate(cauchy_integral(phi), z))) < 1e-6

        got = pv_beurling_eval(phi, z, 1e-7)
        assert abs(got.value - complex(evaluate(beurling_S(phi), z))) < 1e-6

        # J0 kernel: z/(1 - conj(w) z), regular for |z| < 1
        j = quad_disk(lambda w: evaluate(phi, w) * z / (1 - np.conjugate(w) * z),
                      1e-9)
        assert abs(j.value - complex(evaluate(j0_op(phi), z))) < 1e-6

        # Bergman kernel: 1/(1 - conj(w) z)^2
        proj = quad_disk(lambda w: evaluate(phi, w) / (1 - np.conjugate(w) * z) ** 2,
                         1e-9)
        assert abs(proj.value - complex(evaluate(bergman_B(phi), z))) < 1e-6


def test_determinism_bitwise():
    phi = DiskPolynomial({(2, 1): ExactScalar(1), (0, 1): ExactScalar(3)})
    a = cauchy_eval(phi, 0.3 + 0.1j, 1e-9)
    b = cauchy_eval(phi, 0.3 + 0.1j, 1e-9)
    assert (a.value, a.err_estimate, a.evaluations) == (b.value, b.err_estimate, b.evaluations)
    r1 = quad_disk(phi, 1e-10)
    r2 = quad_disk(phi, 1e-10)
    assert (r1.value, r1.err_estimate, r1.evaluations) == (r2.value, r2.err_estimate, r2.evaluations)


def test_lp_norm_examples():
    one = DiskPolynomial({(0, 0): ExactScalar(1)})
    assert abs(lp_norm_numeric(one, 2.0, 1e-10) - 1.0) < 1e-9
    p1 = cauchy_P(one)  # zbar - z, exact norm 1
    assert abs(lp_norm_numeric(p1, 2.0, 1e-10) - 1.0) < 1e-9


def test_lp_norm_boundary_singular_profile():
    # |1-w|^(-q) integrand with q = 4/3: integrable, matches the gamma form
    from disktransform.specfun import gamma
    q = 4.0 / 3.0
    f = lambda w: 1j * (1 - w) / np.abs(1 - w) ** (1 + q / 4)
    got = lp_norm_numeric(f, 4.0, 1e-8)
    ref = (gamma(2 - q) / gamma(2 - q / 2) ** 2) ** 0.25
    assert abs(got - ref) < 1e-7


def test_lp_norm_rejects_bad_p():
    one = DiskPolynomial({(0, 0): ExactScalar(1)})
    with pytest.raises(ValueError):
        lp_norm_numeric(one, 0.5, 1e-8)
    with pytest.raises(ValueError):
        lp_norm_numeric(one, math.inf, 1e-8)


_PARSEVAL_CASES = [(0.5, 0.3), (0.75, 0.6), (1.25, 0.8), (2.0, 0.45)]


@pytest.mark.parametrize("beta,r", _PARSEVAL_CASES + [(0.25, 0.999)])
def test_angular_parseval(beta, r):
    lhs, rhs = angular_parseval_check(beta, r)
    assert abs(lhs - rhs) < 1e-9
    with mpmath.workdps(40):  # the Parseval sum is 2F1(beta, beta; 1; r^2)
        ref = mpmath.hyp2f1(beta, beta, 1, mpmath.mpf(r) ** 2)
        assert abs(rhs - ref) <= 1e-15 * ref


# --- input checks -------------------------------------------------------------

@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tol_must_be_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        quad_disk(lambda w: np.abs(w), tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        angular_parseval_check(0.5, 0.5, tol)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_non_finite_z_rejected(z):
    phi = DiskPolynomial({(2, 0): ExactScalar(1)})
    with pytest.raises(ValueError, match="z must be interior"):
        cauchy_eval(phi, z, 1e-8)
    with pytest.raises(ValueError, match="z must be interior"):
        pv_beurling_eval(phi, z, 1e-8)
    with pytest.raises(ValueError, match="z must be interior"):
        extremal.l1_integrand_scan([z], 1e-5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_integrand_rejected():
    with pytest.raises(ValueError, match="integrand is not finite"):
        quad_disk(lambda w: np.where(abs(w) > 0.5, np.nan, 1.0), 1e-8)
    with pytest.raises(ValueError, match="integrand is not finite"):
        oracle._adaptive(lambda x: np.where(x > 0.5, np.inf, 1.0), [(0.0, 1.0)],
                         1e-8, 10**6)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="integrand is not finite"):
            oracle._trapezoid(0.5, lambda B, U, S: np.where(B > 1, bad, 1.0) * U,
                              1e-8, 10**6, 2, 2)


# --- broadcast panels -------------------------------------------------------

def _rule_matrix():
    """K21 and G10 as the two columns of a (21, 2) matrix, G10 zero at the
    11 Kronrod nodes."""
    return np.stack([oracle._W21, np.r_[oracle._W10, np.zeros(11)]], axis=1)


def _reference_adaptive_2d(F, panels, tol, budget):
    """The per-panel anisotropic refinement loop on full np.meshgrid arrays:
    per axis the 21 Gauss-Kronrod nodes, the 10 Gauss nodes first, one
    integrand call per panel, whose 21 x 21 values V give W^T (V W) for the
    rule matrix W: the K21 x K21 value and the indicators e_x and e_y of
    G10 in x and in y (times K21 in the other axis).  Each step bisects the
    worst panels, each along the axis of its larger indicator (x on a tie),
    until the error left is <= tol or the budget is spent.  The broadcast
    oracle must reproduce it bit for bit."""
    nodes, W = oracle._X21, _rule_matrix()

    def panel(ax, bx, ay, by):
        xs = 0.5 * (ax + bx) + 0.5 * (bx - ax) * nodes
        ys = 0.5 * (ay + by) + 0.5 * (by - ay) * nodes
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        r = 0.25 * (bx - ax) * (by - ay) * (W.T @ (F(X, Y) @ W))
        v = r[0, 0]
        # np.abs, as the oracle takes it: the built-in abs of a complex
        # rounds some moduli differently
        ex, ey = np.abs(v - np.array([r[1, 0], r[0, 1]]))
        return v, ex + ey, ey > ex

    def halves(a, b, c, d, cut_y):
        if cut_y:
            my = 0.5 * (c + d)
            return (a, b, c, my), (a, b, my, d)
        mx = 0.5 * (a + b)
        return (a, mx, c, d), (mx, b, c, d)

    return _reference_loop(panel, halves, panels, 441, tol, budget)


def _reference_loop(measure, halves, panels, cost, tol, budget):
    """The batched pop of both reference loops: measure the starting panels
    one after the other, then per step pop the worst panels while the error
    left exceeds tol and the budget pays for two more panels, and measure
    the children one after the other."""
    evals = len(panels) * cost
    if evals > budget:
        raise OracleBudgetError("initial panels")
    heap, counter, total_v, total_e = [], 0, 0.0, 0.0
    for box in panels:
        v, e, cut = measure(*box)
        total_v += v
        total_e += e
        heapq.heappush(heap, (-e, counter, tuple(box) + (v, e, cut)))
        counter += 1
    while total_e > tol:
        if evals + 2 * cost > budget:
            raise OracleBudgetError("budget")
        children = []
        while heap and total_e > tol and evals + 2 * cost <= budget:
            _, _, (*panel, pv, pe, cut) = heapq.heappop(heap)
            total_v -= pv
            total_e -= pe
            evals += 2 * cost
            children.extend(halves(*panel, cut))
        for child in children:
            v2, e2, cut2 = measure(*child)
            total_v += v2
            total_e += e2
            heapq.heappush(heap, (-e2, counter, child + (v2, e2, cut2)))
            counter += 1
    return total_v, total_e, evals


def _oracle_calls(phi, z):
    # C and S get a callable, so that they take the box panels too
    def f(w):
        return evaluate(phi, w)

    def bergman(w):
        return evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

    return [cauchy_eval(f, z, 1e-8), pv_beurling_eval(f, z, 1e-7),
            quad_disk(bergman, 1e-9)]


@pytest.mark.parametrize("radius", [0.0, 0.5, 0.95])
def test_batched_panels_match_per_panel_loop(monkeypatch, radius):
    rng = random.Random(f"batched/{radius}")
    for _ in range(2):
        phi = rand_poly(rng, max_total=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())
        got = _oracle_calls(phi, z)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_adaptive", _reference_adaptive_2d)
            want = _oracle_calls(phi, z)
        for g, w in zip(got, want):
            assert (g.value, g.err_estimate, g.evaluations) == \
                   (w.value, w.err_estimate, w.evaluations), (phi, z)


def _cusp(x):
    return np.abs(x - 0.3) ** 0.5


def _cone(X, Y):
    return np.abs(X * np.exp(1j * Y) - 0.3)


@pytest.mark.parametrize("F,panels", [(_cusp, [(0.0, 1.0)]),
                                      (_cone, [(0.0, 1.0) + q for q in oracle._QUARTERS])],
                         ids=["interval", "box"])
def test_one_integrand_call_per_refinement_step(monkeypatch, F, panels):
    # a step pops a batch of panels and measures all their children in one
    # call: the pops since the previous call are half of its panels
    events = []
    real_pop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda h: events.append(0) or real_pop(h))
    shapes = []

    def recording(*nodes):
        shapes.append(tuple(x.shape for x in nodes))
        events.append(nodes[0].shape[0])
        return F(*nodes)

    k = len(panels[0]) // 2
    _, _, evals = oracle._adaptive(recording, panels, 1e-9, 10**7)
    splits = events.count(0)
    assert splits > 10  # a cusp or a cone: many splits

    def grid(p):  # per axis (p, 21) with the 21 in that axis
        return tuple((p,) + tuple(21 if j == i else 1 for j in range(k))
                     for i in range(k))

    calls = [e for e in events if e]
    assert events[0] == len(panels) and shapes == [grid(p) for p in calls]
    pops = 0
    for e in events[1:]:
        if e:
            assert e == 2 * pops
            pops = 0
        else:
            pops += 1
    assert pops == 0
    assert evals == 21**k * (len(panels) + 2 * splits)
    if k == 2:
        assert len(calls) < splits  # the cone's steps bisect several panels


def test_budget_is_a_hard_cap():
    # the cone at 1e-7 takes 7,056 evaluations (16 panels); each budget over
    # its last 8 panels, on and off the 441-evaluation grid, either returns
    # the full result within the budget or raises
    f = lambda w: np.abs(w - 0.3)
    full = quad_disk(f, 1e-7)
    assert full.evaluations == 7056
    for budget in range(full.evaluations - 8 * 441, full.evaluations + 441, 147):
        try:
            got = quad_disk(f, 1e-7, budget=budget)
        except OracleBudgetError as exc:
            assert "needed more than" in str(exc) and budget < full.evaluations
        else:
            assert got == full and got.evaluations <= budget
    # a budget below the four starting panels raises before the integrand
    # is called
    seen = []
    with pytest.raises(OracleBudgetError, match="initial panels alone need 1764"):
        quad_disk(lambda w: seen.append(w) or f(w), 1e-7, budget=4 * 441 - 1)
    assert not seen


def test_integrand_calls_pinned():
    # the exact integrand calls and evaluations of C, S and B on one seeded
    # set, so a change to the batching or to the beta rule shows here
    calls = {"C": 0, "S": 0, "B": 0}
    evals = dict.fromkeys(calls, 0)
    real_grid, real_trapezoid = oracle._grid, oracle._trapezoid
    rng = random.Random("integrand-calls")
    for radius in (0.0, 0.5, 0.9, 0.99) * 2:
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())

        def bergman(w):
            return evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

        for name, run in (("C", lambda: cauchy_eval(phi, z, 1e-8)),
                          ("S", lambda: pv_beurling_eval(phi, z, 1e-8)),
                          ("B", lambda: quad_disk(bergman, 1e-9))):
            def counted(F, name=name):
                def G(*nodes):
                    calls[name] += 1
                    return F(*nodes)
                return G

            with pytest.MonkeyPatch.context() as m:
                m.setattr(oracle, "_grid",
                          lambda F, boxes: real_grid(counted(F), boxes))
                m.setattr(oracle, "_trapezoid",
                          lambda z, F, *args: real_trapezoid(z, counted(F), *args))
                evals[name] += run().evaluations
    assert calls == {"C": 8, "S": 8, "B": 49}
    assert evals == {"C": 1544, "S": 2492, "B": 118188}


def test_tie_cuts_first_axis():
    # a zero integrand has equal (zero) indicators in x and y
    grid = oracle._grid(lambda X, Y: 0.0 * X * Y, [(0.0, 1.0, 0.0, 1.0)])
    assert oracle._panels(*grid) == [(0.0, 0.0, 0)]


# --- starting panels -----------------------------------------------------------

_QUARTER_TURNS = [(0.0, math.pi / 2), (math.pi / 2, math.pi),
                  (math.pi, 1.5 * math.pi), (1.5 * math.pi, 2 * math.pi)]


def _starting_panels(monkeypatch):
    """The panels of the first integrand call of every _adaptive run, in
    run order."""
    starts, real_adaptive, real_grid = [], oracle._adaptive, oracle._grid

    def adaptive(F, panels, tol, budget):
        starts.append(None)
        return real_adaptive(F, panels, tol, budget)

    def grid(F, boxes):
        if starts[-1] is None:
            starts[-1] = list(boxes)
        return real_grid(F, boxes)

    monkeypatch.setattr(oracle, "_adaptive", adaptive)
    monkeypatch.setattr(extremal, "_adaptive", adaptive)
    monkeypatch.setattr(oracle, "_grid", grid)
    return starts


def test_full_turns_start_as_four_quarter_turns(monkeypatch):
    # theta in quad_disk, beta in C and S on callables, and theta in the
    # Parseval mean each start as the four quarter-turns, in order; every
    # 1-D interval of the extremal toolkit starts whole
    starts = _starting_panels(monkeypatch)
    phi = DiskPolynomial({(2, 1): ExactScalar(1), (0, 3): ExactScalar(2)})
    f = lambda w: evaluate(phi, w)
    quad_disk(f, 1e-9)
    cauchy_eval(f, 0.3 + 0.2j, 1e-8)
    pv_beurling_eval(f, 0.3 + 0.2j, 1e-8)
    angular_parseval_check(0.75, 0.6)
    assert starts == [[(0.0, 1.0) + q for q in _QUARTER_TURNS],
                      [q + (0.0, 1.0) for q in _QUARTER_TURNS],
                      [q + (0.0, 1.0) for q in _QUARTER_TURNS],
                      _QUARTER_TURNS]
    starts.clear()
    extremal.l1_at_zero(5e-6)
    extremal.counterexample_p2()
    assert len(starts) == 10 and all(len(s) == 1 and len(s[0]) == 2 for s in starts)
    assert starts[0] == [(0.0, 1.0)] and starts[1][0][0] == math.log(2.0)


def test_radial_integrand_costs_the_four_quarter_turns():
    # a radial integrand is settled by its starting panels: 4 x 441
    # evaluations, where one whole-turn panel would take 441.  That is the
    # price of starting every turn in quarters; the ledger's
    # oracle_area_moment pays it
    area = quad_disk(DiskPolynomial({(1, 1): ExactScalar(1)}), 1e-8)
    assert area.evaluations == 1764 and abs(area.value - 0.5) <= 1e-15
    gauss = quad_disk(lambda w: np.exp(-np.abs(w) ** 2), 1e-10)
    assert gauss.evaluations == 1764 and abs(gauss.value - (1 - math.exp(-1))) <= 1e-15


def test_tol_below_roundoff_raises_after_one_call(monkeypatch):
    # eps times the K21 of |F| over the starting panels is the least
    # rounding their sum carries, and no refinement lowers it, so a tol
    # below it raises right after the first integrand call
    seen = []
    monkeypatch.setattr(oracle, "evaluate", lambda phi, w: seen.append(w.size) or evaluate(phi, w))
    phi = DiskPolynomial({(2, 1): ExactScalar(1)})
    below = r"tol 1\.000e-20 is below the roundoff .* of the initial panels"
    with pytest.raises(OracleBudgetError, match=below):
        quad_disk(phi, 1e-20)
    assert seen == [1764]
    # the answer is settled by that call, so a tol above the floor returns
    seen.clear()
    assert quad_disk(phi, 1e-15).evaluations == 1764 and seen == [1764]
    calls = []

    def counted(fn):
        return lambda *x: calls.append(1) or fn(*x)

    for run in (lambda: cauchy_eval(counted(lambda w: w * w * np.conj(w)), 0.3, 1e-20),
                lambda: oracle._adaptive(counted(lambda x: np.exp(x)), [(0.0, 1.0)], 1e-20, 10**6)):
        calls.clear()
        with pytest.raises(OracleBudgetError, match=below):
            run()
        assert len(calls) == 1
    with pytest.raises(OracleBudgetError, match=below):
        angular_parseval_check(0.75, 0.6, 1e-20)


def test_roundoff_floor_is_never_skipped_above_tol():
    # the exact floor, eps times the K21 of |f| over the panels, is computed
    # only for a tol below twice its cheap bound eps max|f| sum(scale)
    # 2^axes, so a floor above tol is never skipped, on random grids and on
    # a constant |f|, where the bound and the floor coincide up to rounding
    gen = np.random.default_rng(11)
    eps = np.finfo(float).eps
    grids = []
    for p in (1, 3, 16):
        for shape in ((p, 21), (p, 21, 21)):
            scale = gen.uniform(0.01, 2.0, p)
            grids += [
                (gen.normal(size=shape) + 1j * gen.normal(size=shape), scale),
                (gen.standard_cauchy(size=shape), scale),  # max|f| far above the mean
                (3.7 * np.exp(1j * gen.uniform(0, 2 * math.pi, shape)), scale),
                (np.full(shape, -0.25), scale),
            ]
    for vals, scale in grids:
        floor = eps * sum(v for v, _, _ in oracle._panels(np.abs(vals), scale))
        for tol in (floor, np.nextafter(floor, 0), floor * (1 - 1e-12), floor / 1.5,
                    np.nextafter(floor, 1), floor * 1.5, floor * 10):
            got = oracle._roundoff_floor(vals, scale, tol)
            assert got == floor if floor > tol else got in (0.0, floor), (vals.shape, tol)
        # far above the floor the cheap bound settles it: no exact floor
        assert oracle._roundoff_floor(vals, scale, 1e6 * floor) == 0.0


@pytest.mark.parametrize("radius", [0.0, 0.5, 0.99])
def test_polynomial_kernels_never_bisect_U(monkeypatch, radius):
    # in the centred-polar maps the integrand of a degree <= 8 polynomial is
    # a polynomial of degree <= 15 in U, which G10 integrates exactly, so on
    # the box panels of a callable all the error, and every cut, is in beta;
    # at z = 0 the four quarter-turns settle C and S with no cut at all.
    # The polynomial itself never reaches a panel, box or interval
    axes, boxes = [], []
    real = oracle._bisect
    monkeypatch.setattr(oracle, "_bisect",
                        lambda box, axis: axes.append(axis) or real(box, axis))
    real_grid = oracle._grid
    monkeypatch.setattr(oracle, "_grid",
                        lambda F, bs: boxes.extend(bs) or real_grid(F, bs))
    rng = random.Random(f"bisect-axis/{radius}")
    for _ in range(6):
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())
        cauchy_eval(phi, z, 1e-8)
        pv_beurling_eval(phi, z, 1e-8)
    assert not boxes and not axes
    for _ in range(6):
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())
        cauchy_eval(lambda w: evaluate(phi, w), z, 1e-8)
        pv_beurling_eval(lambda w: evaluate(phi, w), z, 1e-8)
    assert boxes and {len(b) for b in boxes} == {4}
    if radius == 0.0:
        assert not axes
    else:
        assert axes and set(axes) == {0}


def test_near_boundary_agreement():
    rng = random.Random("near-boundary")
    for _ in range(12):
        phi = rand_poly(rng, max_total=8, terms=6)
        z = 0.99 * cmath.exp(2j * math.pi * rng.random())

        def bergman(w):
            return evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

        for closed, got, tol in ((cauchy_integral, cauchy_eval(phi, z, 1e-8), 1e-8),
                                 (beurling_S, pv_beurling_eval(phi, z, 1e-8), 1e-8),
                                 (bergman_B, quad_disk(bergman, 1e-9), 1e-9)):
            assert abs(got.value - complex(evaluate(closed(phi), z))) <= tol, (phi, z)


def _reference_adaptive_1d(f, panels, tol, budget):
    """A stand-alone 1-D refinement loop: per segment one integrand call on
    the 21 Gauss-Kronrod nodes, the 10 Gauss nodes first, whose values as a
    (1, 21) row times the rule matrix give the K21 value and its distance
    to G10 as the indicator, and the batched pop of _reference_loop.  The
    shared loop must reproduce it bit for bit."""
    nodes, W = oracle._X21, _rule_matrix()

    def measure(lo, hi):
        y = f(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)
        r = 0.5 * (hi - lo) * (y[None] @ W)[0]
        return r[0], abs(r[0] - r[1]), None

    def halves(lo, hi, _):
        mid = 0.5 * (lo + hi)
        return (lo, mid), (mid, hi)

    return _reference_loop(measure, halves, panels, 21, tol, budget)


def test_shared_loop_matches_1d_reference(monkeypatch):
    real = oracle._adaptive
    calls = []

    def recording(F, panels, tol, budget):
        out = real(F, panels, tol, budget)
        calls.append((F, panels, tol, budget, out))
        return out

    monkeypatch.setattr(oracle, "_adaptive", recording)
    monkeypatch.setattr(extremal, "_adaptive", recording)
    for beta, r in _PARSEVAL_CASES:
        angular_parseval_check(beta, r)
    extremal.l1_at_zero(5e-6)
    extremal.counterexample_p2()  # the L2 norm integral and eight annuli
    # Parseval's turn starts as four quarter-turns, every other interval whole
    assert [len(panels) for _, panels, _, _, _ in calls] == [4] * 4 + [1] * 10
    assert {len(box) for _, panels, _, _, _ in calls for box in panels} == {2}
    for F, panels, tol, budget, got in calls:
        assert got == _reference_adaptive_1d(F, panels, tol, budget), (panels, tol)


# (2/pi) int_0^1 of l1_at_zero's integrand, clamped at r = 1 - 1e-8 as there
_L1_AT_ZERO_CLAMPED = 2.1044083131985785


def test_l1_at_zero_constant_by_mpmath():
    with mpmath.workdps(30):
        R = mpmath.mpf(extremal._R_CLAMP)

        def g(r):
            um, up = 1 - r * r, 1 + r * r
            return (um * mpmath.ellipe(-4 * r * r / um**2)
                    + up * mpmath.ellipe(4 * r * r / up**2))

        value = 2 / mpmath.pi * (mpmath.quad(g, [0, R]) + (1 - R) * g(R))
        assert float(value) == _L1_AT_ZERO_CLAMPED


def test_ledger_1d_integrals_meet_their_tol():
    # each 1-D integral of the ledger, at the tol it asks for, against an
    # independent reference: a closed form, a series or the mpmath constant
    tol = 1e-10  # counterexample_p2's and angular_parseval_check's
    log2, t_hi = math.log(2.0), math.log(2e8)
    cx = extremal.counterexample_p2()
    integral = cx["norm_sq"] - 2 / t_hi  # norm_sq adds the exact tail 2/t_hi
    assert abs(integral - (2 / log2 - 2 / t_hi)) <= tol
    assert [eps for eps, _ in cx["annulus_integrals"]] == [10.0**-k for k in range(1, 9)]
    for eps, got in cx["annulus_integrals"]:
        assert abs(got - 2 * math.log(math.log(2 / eps) / log2)) <= tol, eps
    for beta, r in _PARSEVAL_CASES:
        lhs, rhs = angular_parseval_check(beta, r)
        assert abs(lhs - rhs) <= tol, (beta, r)
    assert abs(extremal.l1_at_zero(5e-6) - _L1_AT_ZERO_CLAMPED) <= 5e-6


def _beta_values(z, F, m, u_degree):
    """F summed by the n-point Gauss-Legendre rule in U (n = u_degree//2 + 1)
    at the m beta nodes 2 pi j / m, and n."""
    x, w = _gl_nodes(u_degree // 2 + 1)
    U, wu = 0.5 + 0.5 * x, 0.5 * w
    B = (2 * math.pi / m * np.arange(m))[:, None]
    c = (np.exp(1j * B) * complex(z).conjugate()).real
    S = -c + np.sqrt(c * c + 1.0 - abs(z) ** 2)
    return np.einsum("pj,j->p", F(B, U, S), wu), U.size


def _reference_trapezoid(z, F, tol, budget, degree, u_degree):
    """_trapezoid, stand-alone: one call on all 2N beta nodes,
    N = 2*degree + 4; T_2N over all of them, T_N over the even ones, and
    the estimate |T_2N - T_N|, at least eps times T_2N of |g|.  The call
    counts 2N n_U evaluations; a budget that cannot pay for it, or an
    estimate above tol, raises."""
    n = 2 * degree + 4
    if 2 * n * (u_degree // 2 + 1) > budget:
        raise OracleBudgetError("budget")
    g, n_u = _beta_values(z, F, 2 * n, u_degree)
    v = math.pi / n * g.sum()
    e = max(abs(v - 2 * math.pi / n * g[::2].sum()),
            np.finfo(float).eps * math.pi / n * np.abs(g).sum())
    if e > tol:
        raise OracleBudgetError("tol")
    return v, e, 2 * n * n_u


def _trapezoid_calls(monkeypatch):
    """Record the arguments and the result of every _trapezoid call."""
    calls, real = [], oracle._trapezoid

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(oracle, "_trapezoid", recording)
    return calls


@pytest.mark.parametrize("radius", [0.0, 0.5, 0.95])
def test_polynomial_path_matches_1d_reference(monkeypatch, radius):
    calls = _trapezoid_calls(monkeypatch)
    rng = random.Random(f"poly-path/{radius}")
    for _ in range(3):
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())
        cauchy_eval(phi, z, 1e-9)
        pv_beurling_eval(phi, z, 1e-9)
    assert len(calls) == 6
    for args, got in calls:
        want = _reference_trapezoid(*args)
        assert (got.value, got.err_estimate, got.evaluations) == want, args


@pytest.mark.parametrize("radius", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_polynomial_path_matches_box_panels(radius, tol):
    # two routes to the same integral: the exact U rule with beta refined,
    # and the box panels of the same polynomial behind a callable
    rng = random.Random(f"two-routes/{radius}/{tol}")
    for _ in range(4):
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())
        for fn in (cauchy_eval, pv_beurling_eval):
            exact_u = fn(phi, z, tol)
            boxes = fn(lambda w: evaluate(phi, w), z, tol)
            assert abs(exact_u.value - boxes.value) <= tol, (fn.__name__, phi, z)


def test_polynomial_path_budget():
    # every beta node counts n_U evaluations: degree 8 takes 5 U nodes for
    # C and 8 for S, and 2N = 2 (2*8 + 4) = 40 beta nodes, so the first call
    # costs 200 and 320 evaluations, and it is exact at tol 1e-12
    phi = DiskPolynomial({(8, 0): ExactScalar(1), (3, 5): ExactScalar(2)})
    z = 0.99 * cmath.exp(0.7j)
    assert cauchy_eval(phi, z, 1.0, budget=200).evaluations == 200
    for fn, first in ((cauchy_eval, 200), (pv_beurling_eval, 320)):
        with pytest.raises(OracleBudgetError, match="initial 40 nodes"):
            fn(phi, z, 1e-12, budget=first - 1)
        assert fn(phi, z, 1e-12, budget=first).evaluations == first
        # a tol below roundoff raises after the one call, whatever the budget
        for budget in (first, 10 * first):
            with pytest.raises(OracleBudgetError,
                               match=r"exact rule on 40 nodes reads err .* > tol 1\.000e-20"):
                fn(phi, z, 1e-20, budget=budget)


@pytest.mark.parametrize("phi", [DiskPolynomial({}), DiskPolynomial({(0, 0): ExactScalar(3)})])
def test_polynomial_path_degree_zero(phi):
    # degree 0 takes one U node and 2N = 8 beta nodes for C and for S,
    # whose integrand is then 0
    z = 0.6 - 0.3j
    c = cauchy_eval(phi, z, 1e-12)
    assert abs(c.value - complex(evaluate(cauchy_integral(phi), z))) <= 1e-12
    assert c.evaluations == 8
    s = pv_beurling_eval(phi, z, 1e-12)
    assert (s.value, s.evaluations) == (0, 8)


# --- the trapezoid rule in beta -----------------------------------------------

def _no_panels(*args):
    raise AssertionError("a DiskPolynomial reached the panels")


@pytest.mark.parametrize("radius", [0.0, 0.3, 0.9, 0.999])
def test_trapezoid_is_exact_on_monomials(monkeypatch, radius):
    # every monomial z^m zbar^n with m + n = D <= 16: C and S from the first
    # call, on 2N = 2 (2D + 4) beta nodes times n_U, with no doubling and no
    # panel, meet the closed forms to 1e-13 max(1, |value|)
    monkeypatch.setattr(oracle, "_adaptive", _no_panels)
    monkeypatch.setattr(oracle, "_panels", _no_panels)
    z = radius * cmath.exp(0.9j)
    for d in range(17):
        for m in range(d + 1):
            phi = DiskPolynomial({(m, d - m): ExactScalar(1)})
            for fn, closed, n_u in ((cauchy_eval, cauchy_integral, d // 2 + 1),
                                    (pv_beurling_eval, beurling_S, max(d, 1))):
                got = fn(phi, z, 1e-12)
                want = complex(evaluate(closed(phi), z))
                assert abs(got.value - want) <= 1e-13 * max(1.0, abs(want)), \
                    (fn.__name__, m, d - m)
                assert got.evaluations == 2 * (2 * d + 4) * n_u


def test_trapezoid_start_is_the_smallest_exact_one(monkeypatch):
    # at |z| = 0.9 the (2D + 2)-point rule misses, for some monomial of every
    # degree D = 1..16, by more than 1e-3 relative, so 2D + 4 is the
    # smallest even N that is exact
    calls = _trapezoid_calls(monkeypatch)
    z = 0.9 * cmath.exp(0.9j)
    for d in range(1, 17):
        for fn, closed in ((cauchy_eval, cauchy_integral), (pv_beurling_eval, beurling_S)):
            worst = 0.0
            for m in range(d + 1):
                phi = DiskPolynomial({(m, d - m): ExactScalar(1)})
                fn(phi, z, 1e-12)
                (_, F, _, _, _, u_degree), _ = calls[-1]
                g, _ = _beta_values(z, F, 2 * d + 2, u_degree)
                want = complex(evaluate(closed(phi), z))
                rule = 2 * math.pi / (2 * d + 2) * g.sum()
                worst = max(worst, abs(rule - want) / max(1.0, abs(want)))
            assert worst > 1e-3, (fn.__name__, d)


def test_trapezoid_does_not_alias(monkeypatch):
    # the rule from N = 8 (the start for degree 2) returns C[zbar^15](0) =
    # 0.125, true value 0, and S[zbar^14](0) off by 0.143, each with an
    # error estimate below 1e-16; from N = 2D + 4 both meet tol
    calls = _trapezoid_calls(monkeypatch)
    for fn, closed, n, miss in ((cauchy_eval, cauchy_integral, 15, 0.125),
                                (pv_beurling_eval, beurling_S, 14, 0.143)):
        phi = DiskPolynomial({(0, n): ExactScalar(1)})
        want = complex(evaluate(closed(phi), 0.0))
        got = fn(phi, 0.0, 1e-12)
        assert abs(got.value - want) <= 1e-12 and got.err_estimate <= 1e-12
        (_, F, _, _, degree, u_degree), _ = calls[-1]
        assert degree == n
        v, e, _ = _reference_trapezoid(0.0, F, 1e-12, 10**6, 2, u_degree)
        assert e < 1e-16 and abs(abs(v - want) - miss) < 1e-3


@pytest.mark.parametrize("short", [1, 2, 4])
def test_trapezoid_guard_catches_understated_degree(monkeypatch, short):
    # _trapezoid told a degree `short` below the true one starts from too
    # few nodes, and only the T_N term of its estimate can tell: every
    # monomial of degree 1..16 at three radii, through C and S (912 calls),
    # either raises or meets tol.  A call raises only where T_N misses by
    # more than tol, and 4 below, T_2N itself misses in some of them, a
    # wrong value that a rule with no second sum would return
    real = oracle._trapezoid
    raised = misses_2n = 0

    def understated(z, F, tol, budget, degree, u_degree):
        nonlocal raised, misses_2n
        low = max(degree - short, 0)
        try:
            return real(z, F, tol, budget, low, u_degree)
        except OracleBudgetError:
            n = 2 * low + 4
            g, _ = _beta_values(z, F, 2 * n, u_degree)
            assert abs(2 * math.pi / n * g[::2].sum() - want) > tol
            raised += 1
            misses_2n += abs(math.pi / n * g.sum() - want) > tol
            raise

    monkeypatch.setattr(oracle, "_trapezoid", understated)
    tol = 1e-10
    for radius in (0.3, 0.9, 0.99):
        z = radius * cmath.exp(0.9j)
        for d in range(1, 17):
            for m in range(d + 1):
                phi = DiskPolynomial({(m, d - m): ExactScalar(1)})
                for fn, closed in ((cauchy_eval, cauchy_integral),
                                   (pv_beurling_eval, beurling_S)):
                    want = complex(evaluate(closed(phi), z))
                    try:
                        got = fn(phi, z, tol)
                    except OracleBudgetError:
                        continue
                    assert abs(got.value - want) <= tol, (fn.__name__, m, d - m, radius)
    assert raised > 0
    assert (misses_2n > 0) == (short == 4)


def test_trapezoid_budget_and_contract(monkeypatch):
    seen = []
    monkeypatch.setattr(oracle, "evaluate",
                        lambda phi, w: seen.append(w) or evaluate(phi, w))
    phi = DiskPolynomial({(8, 0): ExactScalar(1), (3, 5): ExactScalar(2)})
    for fn, first in ((cauchy_eval, 200), (pv_beurling_eval, 320)):
        # a budget below the first call, 2N n_U evaluations, raises before it
        with pytest.raises(OracleBudgetError, match="initial 40 nodes"):
            fn(phi, 0.5, 1e-8, budget=first - 1)
        # z on or outside the circle, or NaN, and a tol that is not positive
        # and finite, are rejected before any evaluation
        for z in (1.0, -1j, 1.5, complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError, match="z must be interior"):
                fn(phi, z, 1e-8)
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                fn(phi, 0.5, tol)
    assert not seen
    # a tol below roundoff cannot be met: the rule raises after its one
    # call, so the integrand sees exactly that call's 2N n_U points (plus
    # the one point phi(z) that S subtracts)
    for fn, first in ((cauchy_eval, 200), (pv_beurling_eval, 321)):
        for z in (0.0, 0.5, 0.99j):
            seen.clear()
            with pytest.raises(OracleBudgetError, match="exact rule on 40 nodes"):
                fn(phi, z, 1e-20, budget=100_000)
            assert sum(np.size(w) for w in seen) == first


def _monomial_sum(phi, z):
    ref = np.zeros_like(z, dtype=complex)
    scale = np.zeros(np.shape(z))
    for (m, n), a in phi.items():
        term = complex(a) * z**m * np.conj(z) ** n
        ref = ref + term
        scale = scale + np.abs(term)
    return ref, scale


@pytest.mark.parametrize("shape", [(37,), (6, 7)])
def test_evaluate_power_table_matches_monomials(shape):
    rng = random.Random(f"evaluate/{shape}/True")
    gen = np.random.default_rng(len(shape))
    z = gen.uniform(-0.7, 0.7, shape) + 1j * gen.uniform(-0.7, 0.7, shape)
    for _ in range(10):
        phi = rand_poly(rng, max_total=12, terms=8)
        got = evaluate(phi, z)
        ref, scale = _monomial_sum(phi, z)
        assert got.shape == shape
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    empty = evaluate(DiskPolynomial({}), z)
    assert empty.shape == shape and not np.any(empty)


# --- the Gauss-Kronrod rule ---------------------------------------------------

def _even_roots(coeffs):
    """Roots of sum_k c_k x^(2k), c_k exact Fractions and c_0 != 0, at
    mpmath's working precision: each root t of the polynomial in t = x^2
    gives the two roots +-sqrt(t)."""
    ts = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                           for c in reversed(coeffs)],
                          maxsteps=200, extraprec=200)
    roots = [s * mpmath.sqrt(mpmath.re(t)) for t in ts for s in (-1, 1)]
    return sorted(roots)


def _moment_weights(nodes):
    """Weights of the interpolatory rule on [-1, 1] with the given nodes:
    the rule integrates x^k exactly for k < len(nodes)."""
    n = len(nodes)
    V = mpmath.matrix([[x**k for x in nodes] for k in range(n)])
    m = mpmath.matrix([mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                       for k in range(n)])
    return list(mpmath.lu_solve(V, m))


def _kronrod_reference():
    """The (G10, K21) pair at 40 digits, in the layout of oracle._GK21."""
    # P_10 in exact rationals, by Bonnet's recurrence
    p_prev, p = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, 10):
        nxt = [Fraction(0)] + [(2 * k + 1) * c / (k + 1) for c in p]
        for i, c in enumerate(p_prev):
            nxt[i] -= k * c / (k + 1)
        p_prev, p = p, nxt

    def moment(j):  # int_{-1}^{1} P_10(x) x^j dx
        return sum(c * Fraction(2, i + j + 1) for i, c in enumerate(p)
                   if (i + j) % 2 == 0)

    # monic Stieltjes E_11 = x^11 + sum_{j<=10} c_j x^j, orthogonal to x^k
    # (k <= 10) against P_10, solved exactly by Gauss-Jordan elimination
    A = [[moment(j + k) for j in range(11)] + [-moment(11 + k)] for k in range(11)]
    for col in range(11):
        piv = next(r for r in range(col, 11) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [a / A[col][col] for a in A[col]]
        for r in range(11):
            if r != col and A[r][col] != 0:
                A[r] = [a - A[r][col] * b for a, b in zip(A[r], A[col])]
    e11 = [row[-1] for row in A] + [Fraction(1)]
    assert not any(e11[0::2])  # odd, so E_11 / x has even powers only
    with mpmath.workdps(40):
        gauss = _even_roots(p[0::2])
        extra = sorted(_even_roots(e11[1::2]) + [mpmath.mpf(0)])
        nodes = gauss + extra
        wk, wg = _moment_weights(nodes), _moment_weights(gauss)
        return [(x, a, b) for x, a, b in zip(gauss, wk, wg)] + \
               [(x, a) for x, a in zip(extra, wk[10:])]


def test_kronrod_table_matches_40_digit_reference():
    ref = _kronrod_reference()
    assert len(oracle._GK21) == len(ref) == 21
    for row, want in zip(oracle._GK21, ref):
        assert len(row) == len(want)
        for c, r in zip(row, want):
            assert abs(mpmath.mpf(c) - r) <= math.ulp(c) if c else r == 0, (row, r)


@pytest.mark.parametrize("name,x,w,degree", [
    ("K21", oracle._X21, oracle._W21, 31),
    ("G10", oracle._X21[:10], oracle._W10, 19),
])
def test_kronrod_degree_of_exactness(name, x, w, degree):
    for k in range(degree + 1):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x**k) - exact) <= 1e-15, (name, k)


def test_gauss_nodes_match_gl10():
    xg, wg = _gl_nodes(10)
    assert np.all(np.abs(oracle._X21[:10] - xg) <= 1e-15)
    assert np.all(np.abs(oracle._W10 - wg) <= 1e-15)


# --- accuracy ladder and work pin ---------------------------------------------

_LADDER_RADII = (0.0, 0.5, 0.9, 0.99)
_LADDER_TOLS = (1e-6, 1e-10)
_LADDER_POLYS = 6  # per radius


def _ladder():
    """C, S and B by the oracle against their closed forms, for seeded
    polynomials of degree <= 8 at points of each radius of the ladder, at
    each of its tolerances.
    Returns the worst |oracle - closed| / tol and the total evaluations."""
    rng = random.Random("accuracy-ladder")
    worst, evals = 0.0, 0
    for radius in _LADDER_RADII * _LADDER_POLYS:
        phi = rand_poly(rng, max_total=8, terms=6)
        z = radius * cmath.exp(2j * math.pi * rng.random())

        def bergman(w):
            return evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

        for tol in _LADDER_TOLS:
            for closed, got in ((cauchy_integral, cauchy_eval(phi, z, tol)),
                                (beurling_S, pv_beurling_eval(phi, z, tol)),
                                (bergman_B, quad_disk(bergman, tol))):
                err = abs(got.value - complex(evaluate(closed(phi), z)))
                worst = max(worst, err / tol)
                evals += got.evaluations
    return worst, evals


def test_accuracy_ladder_and_work():
    worst, evals = _ladder()
    assert worst <= 1.0
    # the exact work of the set, so a change that inflates it fails here
    assert evals == 642_926


def test_every_budget_defaults_to_the_default_budget():
    """Every public oracle and extremal entry point that takes an
    evaluation budget defaults to the one DEFAULT_BUDGET."""
    with_budget = []
    for module in (oracle, extremal):
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            param = inspect.signature(fn).parameters.get("budget")
            if param is not None:
                with_budget.append(name)
                assert param.default == oracle.DEFAULT_BUDGET, name
    assert sorted(with_budget) == [
        "angular_parseval_check", "cauchy_eval", "counterexample_p2", "extremal_ratio_pinf",
        "l1_at_zero", "l1_integrand_scan", "pv_beurling_eval", "quad_disk"]
