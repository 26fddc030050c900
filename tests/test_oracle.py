import cmath
import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from disktransform import extremal, oracle
from disktransform.diskalg import DiskPolynomial, ExactScalar, evaluate
from disktransform.oracle import (
    OracleBudgetError,
    QuadResult,
    angular_parseval_check,
    cauchy_eval,
    lp_norm_numeric,
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


@pytest.mark.parametrize("beta,r", _PARSEVAL_CASES)
def test_angular_parseval(beta, r):
    lhs, rhs = angular_parseval_check(beta, r)
    assert abs(lhs - rhs) < 1e-9


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
        oracle._adaptive(lambda x: np.where(x > 0.5, np.inf, 1.0), (0.0, 1.0),
                         1e-8, 10**6)


# --- batched panels ---------------------------------------------------------

def _reference_adaptive_2d(F, box, tol, budget, evals_used=0):
    """The per-panel refinement loop: one meshgrid and one integrand call per
    rule and panel, with the oracle's Gauss-Legendre rules.  The batched
    oracle must reproduce it bit for bit."""

    def panel(ax, bx, ay, by, n=8):
        scale = 0.25 * (bx - ax) * (by - ay)
        vals = []
        for k in (n, 2 * n):
            x, w = _gl_nodes(k)
            xs = 0.5 * (ax + bx) + 0.5 * (bx - ax) * x
            ys = 0.5 * (ay + by) + 0.5 * (by - ay) * x
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            vals.append(scale * np.einsum("i,j,ij->", w, w, F(X, Y)))
        return vals[1], abs(vals[1] - vals[0]), 5 * n * n

    evals = evals_used
    v, e, ne = panel(*box)
    evals += ne
    if evals > budget:
        raise OracleBudgetError("initial panel")
    heap = [(-e, 0, tuple(box) + (v, e))]
    counter = 1
    total_v, total_e = v, e
    while total_e > tol:
        if evals > budget:
            raise OracleBudgetError("budget")
        _, _, (a, b, c, d, pv, pe) = heapq.heappop(heap)
        total_v -= pv
        total_e -= pe
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        for box2 in ((a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d)):
            v2, e2, ne = panel(*box2)
            evals += ne
            total_v += v2
            total_e += e2
            heapq.heappush(heap, (-e2, counter, box2 + (v2, e2)))
            counter += 1
    return total_v, total_e, evals


def _oracle_calls(phi, z):
    def bergman(w):
        return evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

    return [cauchy_eval(phi, z, 1e-8), pv_beurling_eval(phi, z, 1e-7),
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


def test_one_integrand_call_per_refinement_step(monkeypatch):
    pops = []
    real_pop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda h: pops.append(1) or real_pop(h))
    sizes = []

    def F(X, Y):
        sizes.append(X.size)
        return np.abs(X * np.exp(1j * Y) - 0.3)  # cone: many splits

    _, _, evals = oracle._adaptive(F, (0.0, 1.0, 0.0, 2 * math.pi), 1e-9, 10**7)
    splits = len(pops)
    assert splits > 10
    assert sizes == [320] + [4 * 320] * splits
    assert evals == 320 * (1 + 4 * splits)


def _reference_adaptive_1d(f, a, b, tol, budget, n=12):
    """A stand-alone 1-D refinement loop: per segment an n- and a 2n-point
    Gauss-Legendre sum by np.dot (the oracle's rules), one integrand call
    each, and the two halves of a split measured one after the other.  The
    shared loop must reproduce it bit for bit."""

    def measure(lo, hi):
        out = []
        for k in (n, 2 * n):
            x, w = _gl_nodes(k)
            xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            out.append(0.5 * (hi - lo) * np.dot(w, f(xs)))
        return out[1], abs(out[1] - out[0]), 3 * n

    v, e, evals = measure(a, b)
    if evals > budget:
        raise OracleBudgetError("initial panel")
    heap = [(-e, 0, (a, b, v, e))]
    counter = 1
    total_v, total_e = v, e
    while total_e > tol:
        if evals > budget:
            raise OracleBudgetError("budget")
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


def test_shared_loop_matches_1d_reference(monkeypatch):
    real = oracle._adaptive
    calls = []

    def recording(F, box, tol, budget):
        out = real(F, box, tol, budget)
        calls.append((F, box, tol, budget, out))
        return out

    monkeypatch.setattr(oracle, "_adaptive", recording)
    monkeypatch.setattr(extremal, "_adaptive", recording)
    for beta, r in _PARSEVAL_CASES:
        angular_parseval_check(beta, r)
    extremal.l1_at_zero(5e-6)
    extremal.counterexample_p2()  # the L2 norm integral and eight annuli
    assert [len(box) for _, box, _, _, _ in calls] == [2] * 14
    for F, (a, b), tol, budget, got in calls:
        assert got == _reference_adaptive_1d(F, a, b, tol, budget), (a, b, tol)


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
