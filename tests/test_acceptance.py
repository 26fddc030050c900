"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; each line carries the measured quantities next to the pinned
tolerances so a red criterion is diagnosable from the log alone.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np

from disktransform import cli, extremal
from disktransform.diskalg import (
    DiskPolynomial,
    ExactScalar,
    conjugate,
    d_dz,
    evaluate,
    norm_sq,
)
from disktransform.oracle import cauchy_eval, pv_beurling_eval, quad_disk
from disktransform.specfun import bessel_j, bessel_zero, gamma
from disktransform.spectral import (
    estimate_norm,
    hardy_ratio,
    restricted_Z,
    solve_alpha,
    solve_delta,
)
from disktransform.transforms import (
    bergman_B,
    beurling_H,
    beurling_S,
    cauchy_P,
    cauchy_integral,
    j0_op,
)
from conftest import rand_component, rand_poly
from _exact_inner import inner_product


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_transcendental_root():
    t0 = time.time()
    a = solve_alpha()
    elapsed = time.time() - t0
    res = abs(2 * bessel_j(0, 2 / a) - a * bessel_j(1, 2 / a))
    ok = res < 1e-12 and round(a, 3) == 1.086 and elapsed < 1.0
    report(1, ok, f"alpha={a:.15f} residual={res:.2e} (<1e-12) time={elapsed:.3f}s (<1s)")


def test_criterion_02_consistency_triangle():
    a, d = solve_alpha(), solve_delta()
    # independent lambda0: fixed point of the two-component reduction
    lo, hi = 1.10, 1.25
    f = lambda lam: restricted_Z(lam) - lam
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) > 0) == (f(lo) > 0):
            lo = mid
        else:
            hi = mid
    lam0 = 0.5 * (lo + hi)
    ok = (abs(a - 2 / d) < 1e-10 and abs(a * a - lam0) < 1e-9
          and round(d, 3) == 1.841 and round(lam0, 3) == 1.180)
    report(2, ok, f"|alpha-2/delta|={abs(a - 2 / d):.2e} (<1e-10) "
                  f"|alpha^2-lambda0|={abs(a * a - lam0):.2e} (<1e-9) "
                  f"delta={d:.4f} lambda0={lam0:.4f}")


def test_criterion_03_galerkin_convergence():
    t0 = time.time()
    alpha = solve_alpha()
    vals = [estimate_norm(d).value
            for d in (10, 20, 30, 40)]
    elapsed = time.time() - t0
    mono = all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))
    ok = abs(vals[-1] - alpha) < 1e-3 and mono and elapsed < 60.0
    report(3, ok, f"estimate(40)={vals[-1]:.12f} |diff|={abs(vals[-1] - alpha):.2e} "
                  f"(<1e-3) nondecreasing={mono} time={elapsed:.1f}s (<60s)")


def test_criterion_04_isometry_exact():
    rng = random.Random(531)
    bad = 0
    for _ in range(500):
        phi = rand_poly(rng, max_total=12)
        if norm_sq(beurling_H(phi)) != norm_sq(phi):
            bad += 1
    report(4, bad == 0, f"norm_sq(H[phi]) == norm_sq(phi) exactly on 500 "
                        f"random polynomials, degree <= 12; {bad} failures")


def test_criterion_05_orthogonality_ledger():
    rng = random.Random(61)
    zero = ExactScalar(0)
    p_ok = h_ok = True
    for d1 in range(-3, 5):
        for d2 in range(d1 + 1, 5):
            g1 = rand_component(rng, d1)
            g2 = rand_component(rng, d2)
            if d1 + d2 != 2 and inner_product(cauchy_P(g1), cauchy_P(g2)) != zero:
                p_ok = False
            if inner_product(beurling_H(g1), beurling_H(g2)) != zero:
                h_ok = False
    witness_ok = True
    for d in (2, 3, 4):
        # canonical coupled pair: <P[w^d], P[conj(w)^(d-2)]> = 1/(d(d+1)(d-1))
        ip = inner_product(cauchy_P(DiskPolynomial({(d, 0): ExactScalar(1)})),
                           cauchy_P(DiskPolynomial({(0, d - 2): ExactScalar(1)})))
        if ip != ExactScalar(Fraction(1, d * (d + 1) * (d - 1))):
            witness_ok = False
    ok = p_ok and h_ok and witness_ok
    report(5, ok, f"P-images orthogonal off the coupled pairs: {p_ok}; "
                  f"nonzero witness at (d, 2-d), d=2,3,4: {witness_ok}; "
                  f"H-images orthogonal for all d1 != d2: {h_ok} (all exact)")


def test_criterion_06_operator_identities():
    rng = random.Random(62)
    id1 = id2 = True
    for _ in range(500):
        phi = rand_poly(rng)
        if cauchy_P(phi) != -cauchy_integral(phi) - j0_op(conjugate(phi)):
            id1 = False
        if beurling_H(phi) != d_dz(cauchy_P(phi)):
            id2 = False
    idem = True
    for _ in range(100):
        proj = bergman_B(rand_poly(rng))
        if bergman_B(proj) != proj:
            idem = False
    analytic = True
    for d in (1, 2, 3, 4):
        for _ in range(25):
            g = rand_component(rng, d)
            if cauchy_P(g) != -cauchy_integral(g):
                analytic = False
    ok = id1 and id2 and idem and analytic
    report(6, ok, f"P = -C - J0(conj): {id1}; H = dP/dz: {id2} (500 each); "
                  f"B idempotent: {idem}; P[g_d] = -C[g_d] for d >= 1: {analytic}")


def test_criterion_07_oracle_agreement():
    rng = random.Random(63)
    worst = 0.0
    for _ in range(20):
        phi = rand_poly(rng, max_total=4)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        diffs = [
            abs(cauchy_eval(phi, z, 1e-8).value
                - complex(evaluate(cauchy_integral(phi), z))),
            abs(pv_beurling_eval(phi, z, 1e-7).value
                - complex(evaluate(beurling_S(phi), z))),
            abs(quad_disk(lambda w: evaluate(phi, w) * z / (1 - np.conjugate(w) * z),
                          1e-9).value - complex(evaluate(j0_op(phi), z))),
            abs(quad_disk(lambda w: evaluate(phi, w) / (1 - np.conjugate(w) * z) ** 2,
                          1e-9).value - complex(evaluate(bergman_B(phi), z))),
        ]
        worst = max(worst, max(diffs))
    report(7, worst < 1e-6, f"C, S, J0, B closed form vs quadrature on 20 random "
                            f"(phi, z): worst |diff|={worst:.2e} (<1e-6)")


def test_criterion_08_bessel_zeros():
    table = [2.4048, 3.8317, 5.1356, 6.3802, 7.5883]
    got = [bessel_zero(d) for d in range(5)]
    worst = max(abs(g - t) for g, t in zip(got, table))
    report(8, worst < 5e-5, f"j0..j4 = {[f'{g:.4f}' for g in got]} vs published "
                            f"4-decimal table, worst |diff|={worst:.1e}")


def test_criterion_09_hardy_constants():
    rng = random.Random(64)
    slack_ok = True
    for d in range(-3, 5):
        root = bessel_zero(-d) if d <= 0 else bessel_zero(d - 1)
        bound = 1 / root ** 2
        for _ in range(200):
            u = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)]
            if not any(u):
                u[0] = Fraction(1)
            if float(hardy_ratio(d, u)) > bound + 1e-12:
                slack_ok = False
    worst_gap = 0.0
    for d in range(-3, 5):
        nu = abs(d) if d <= 0 else d
        root = bessel_zero(-d) if d <= 0 else bessel_zero(d - 1)
        coeffs = [0.0] * 31
        for k in range(0, (30 - nu) // 2 + 1):
            coeffs[2 * k + nu] = ((-1) ** k / (math.factorial(k) * gamma(k + nu + 1))
                                  * (root / 2) ** (2 * k + nu))
        u = [Fraction(c).limit_denominator(10 ** 12) for c in coeffs]
        worst_gap = max(worst_gap, abs(float(hardy_ratio(d, u)) - 1 / root ** 2))
    ok = slack_ok and worst_gap < 1e-4
    report(9, ok, f"200 random profiles per d in -3..4 within 1/j^2 + 1e-12: "
                  f"{slack_ok}; Bessel trial profiles worst gap={worst_gap:.1e} (<1e-4)")


def test_criterion_10_lp_to_linf():
    v = extremal.norm_p_to_inf(math.inf)
    n_ok = abs(v - 8 / math.pi) < 1e-12
    mono_ok = all(extremal.monotonicity_scan(q, 1000) for q in (1.0, 1.2, 1.5, 1.9))
    gamma_gap = max(abs(extremal.phi_fn(q, 1.0) - 2 * gamma(2 - q) / gamma(2 - q / 2) ** 2)
                    for q in (1.0, 1.2, 1.5, 1.9))
    ratio = extremal.extremal_ratio_pinf(math.inf, 0.999 + 0j, 1e-6)
    rel = abs(ratio - 8 / math.pi) / (8 / math.pi)
    ok = n_ok and mono_ok and gamma_gap < 1e-8 and rel < 0.02
    report(10, ok, f"norm(inf)={v:.15f} |diff 8/pi|={abs(v - 8 / math.pi):.1e} (<1e-12); "
                   f"Phi monotone on 1000-pt grids: {mono_ok}; Phi(1) vs gamma form "
                   f"worst={gamma_gap:.1e} (<1e-8); ratio(z=0.999)={ratio:.4f} "
                   f"rel={rel:.3%} (<2%)")


def test_criterion_11_l1_computations(capsys):
    v1 = extremal.l1_at_zero(1e-6)
    v2 = quad_disk(lambda z: np.abs(z - 1.0 / z), 1e-6).value.real  # |z - 1/z| directly
    code = cli.main(["norm", "1", "--grid", "radial:3", "--format", "csv"])
    out = capsys.readouterr().out
    conj_labelled = "CONJECTURE" in out and "l1_argmax" in out
    ok = abs(v1 - 2.10441) < 5e-4 and abs(v1 - v2) < 1e-4 and code == 0 and conj_labelled
    with capsys.disabled():
        report(11, ok, f"elliptic form={v1:.6f} (2.10441 +/- 5e-4); "
                       f"two routes |diff|={abs(v1 - v2):.1e} (<1e-4); "
                       f"scan argmax labelled CONJECTURE: {conj_labelled}")


def test_criterion_12_counterexample_p2():
    out = extremal.counterexample_p2()
    gap = abs(out["norm_sq"] - 2 / math.log(2))
    vals = [v for _, v in out["annulus_integrals"]]
    eps = [e for e, _ in out["annulus_integrals"]]
    inc = all(b > a for a, b in zip(vals, vals[1:]))
    ok = (gap < 1e-6 and inc and eps == [10.0 ** -k for k in range(1, 9)]
          and out["strictly_increasing"])
    report(12, ok, f"norm_sq={out['norm_sq']:.9f} |diff 2/log2|={gap:.1e} (<1e-6); "
                   f"annulus integrals strictly increase over eps=1e-1..1e-8: {inc}")


def test_criterion_13_bounds_ledger():
    rng = random.Random(65)
    rest = estimate_norm(12, {1}).value
    rest_ok = abs(rest - 2 / bessel_zero(0)) < 1e-3
    j0_ok = True
    for d in (-1, -2, -3):
        for _ in range(50):
            g = rand_component(rng, d)
            if 3 * norm_sq(j0_op(conjugate(g))) > norm_sq(g):
                j0_ok = False
    full = estimate_norm(20).value
    lo, hi = 2 / bessel_zero(0), math.sqrt(1.5 + 2 / bessel_zero(1) ** 2)
    interval_ok = lo < full < hi
    ok = rest_ok and j0_ok and interval_ok
    report(13, ok, f"restricted d=1: {rest:.6f} vs 2/j0={2 / bessel_zero(0):.6f} (<1e-3); "
                   f"||J0[conj g_d]||^2 <= ||g_d||^2/3 exact (d<=-1): {j0_ok}; "
                   f"converged estimate {full:.9f} in ({lo:.4f}, {hi:.4f}): {interval_ok}")
