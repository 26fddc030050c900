import math

import mpmath
import numpy as np
import pytest

from disktransform import extremal, specfun, spectral
from disktransform.extremal import (
    ExponentPair,
    counterexample_p2,
    extremal_ratio_pinf,
    l1_at_zero,
    l1_integrand_scan,
    monotonicity_scan,
    norm_p_to_inf,
    phi_fn,
    riesz_thorin_bound,
)
from disktransform.oracle import quad_disk
from disktransform.specfun import X_SWITCH, gamma
from disktransform.spectral import solve_alpha

EIGHT_OVER_PI = 8 / math.pi


def test_exponent_pair_conjugacy():
    pair = ExponentPair(4.0)
    assert abs(pair.q - 4 / 3) < 1e-15
    assert abs(1 / pair.p + 1 / pair.q - 1) < 1e-15
    inf_pair = ExponentPair(math.inf)
    assert inf_pair.q == 1.0


def test_exponent_pair_rejects():
    with pytest.raises(ValueError):
        ExponentPair(2.0)
    with pytest.raises(ValueError):
        ExponentPair(1.5)
    with pytest.raises(TypeError):
        ExponentPair(4.0, q=1.5)  # q is derived from p, never passed


def test_phi_at_zero():
    # t = 0: only the first series term survives, value 2/(2-q)
    assert abs(phi_fn(1.0, 0.0) - 2.0) < 1e-15
    assert abs(phi_fn(1.5, 0.0) - 4.0) < 1e-15


def test_phi_at_one_q1():
    assert abs(phi_fn(1.0, 1.0) - EIGHT_OVER_PI) < 1e-12


def test_phi_at_one_gamma_form():
    # Phi(1) = 2 Gamma(2-q) / Gamma(2-q/2)^2, via the series Gauss limit
    for q in (1.0, 1.2, 1.5, 1.9):
        ref = 2 * gamma(2 - q) / gamma(2 - q / 2) ** 2
        assert abs(phi_fn(q, 1.0) - ref) < 1e-8, q


def test_phi_domain():
    with pytest.raises(ValueError):
        phi_fn(2.0, 0.5)
    with pytest.raises(ValueError):
        phi_fn(1.0, 1.5)


def _phi_mpmath(q, t):
    with mpmath.workdps(40):
        q, t = mpmath.mpf(q), mpmath.mpf(t)
        return (2 / (2 - q) * mpmath.hyp2f1(q / 2, q / 2 - 1, 1, t)
                + mpmath.hyp2f1(q / 2, q / 2, 2, t) * t ** (q / 2))


@pytest.mark.parametrize("q", [1.0, 1.9] + [1 + 10.0**-k for k in range(2, 9)])
def test_phi_near_one_vs_mpmath(q):
    # q = 1 goes through E and K; q = 1 + 1e-k through the connection formula,
    # or, where its terms cancel (t = 1 - 1e-6 at q = 1 + 1e-8), the series.
    # Past t = 1 - 1e-6 the series alone would need more than MAX_TERMS
    # terms and raise SeriesError, so a value there shows it did not run.
    for j in (1, 2, 3, 4, 6, 8, 10, 12):
        t = 1 - 10.0**-j
        got = phi_fn(q, t)
        assert abs(got / _phi_mpmath(q, t) - 1) < 1e-14, t


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
def test_phi_continuous_at_switch(q):
    lo = phi_fn(q, X_SWITCH)
    hi = phi_fn(q, math.nextafter(X_SWITCH, 1.0))
    assert abs(hi - lo) <= 1e-14 * lo


def test_phi_near_one_sums_no_long_series(monkeypatch):
    """phi(q, 1 - 10^-k) sums every series at an argument of at most
    1 - X_SWITCH, so none is long.  k = 1 is left out: at q = 1.9,
    t = 0.9 the connection terms cancel by a factor 8.7 and the series at
    0.9 (a few hundred terms) is used by design."""
    seen = []
    series = specfun._series

    def spy(a, b, c, x):
        seen.append(x)
        return series(a, b, c, x)

    monkeypatch.setattr(specfun, "_series", spy)
    for q in (1.0, 1.2, 1.5, 1.9):
        for k in range(2, 13):
            phi_fn(q, 1 - 10.0**-k)
    assert seen and max(seen) <= 1 - X_SWITCH


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
def test_phi_monotone(q):
    assert monotonicity_scan(q, 1000)


def _phi_mp(q, t):
    return (2 / (2 - q) * mpmath.hyp2f1(q / 2, q / 2 - 1, 1, t)
            + mpmath.hyp2f1(q / 2, q / 2, 2, t) * t ** (q / 2))


@pytest.mark.parametrize("q", [1, mpmath.mpf("1.2"), mpmath.mpf(4) / 3, mpmath.mpf("1.5"),
                               mpmath.mpf("1.9")])
def test_phi_derivative_identity(q):
    """phi' = (q/2) F(q/2+1, q/2; 2; t) (t^{q/2-1} - 1), phi_fn's docstring
    derivation, against mpmath's numerical derivative at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        for t in [mpmath.mpf(k) / 10 for k in range(1, 10)] + [mpmath.mpf("0.999")]:
            numeric = mpmath.diff(lambda x: _phi_mp(q, x), t)
            closed = q / 2 * mpmath.hyp2f1(q / 2 + 1, q / 2, 2, t) * (t ** (q / 2 - 1) - 1)
            assert abs(numeric - closed) <= 1e-25 * abs(closed), (q, t)


@pytest.mark.parametrize("a2, b2, c", [(1, -1, 1), (1, 1, 2), (3, 1, 2)])
def test_q1_series_are_the_taylor_coefficients(a2, b2, c):
    """The sequences _phi_monotone_q1 compares are the coefficients of
    s^{2n} in 2F1(a2/2, b2/2; c; s^2), and the odd ones vanish."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a2) / 2, mpmath.mpf(b2) / 2
        ref = mpmath.taylor(lambda s: mpmath.hyp2f1(a, b, c, s * s), 0, 79)
        for n, (num, den) in enumerate(extremal._taylor_2f1(a2, b2, c, 40)):
            exact = mpmath.mpf(num) / den
            assert abs(ref[2 * n] - exact) <= 1e-25 * abs(exact), n
            assert abs(ref[2 * n + 1]) <= 1e-25, n


@pytest.mark.parametrize("wrong", [(1, -1, 1), (1, 1, 2), (3, 1, 2), "all negated"])
def test_phi_monotone_q1_sees_a_wrong_series(monkeypatch, wrong):
    """One coefficient off by one in any of the three series fails the
    check, and so does negating all three, which keeps both identities but
    not C_n > 0."""
    assert extremal._phi_monotone_q1()
    real = extremal._taylor_2f1

    def broken(a2, b2, c, order):
        out = real(a2, b2, c, order)
        if wrong == "all negated":
            return [(-num, den) for num, den in out]
        if (a2, b2, c) == wrong:
            num, den = out[-1]
            out[-1] = (num + 1, den)
        return out

    monkeypatch.setattr(extremal, "_taylor_2f1", broken)
    assert not extremal._phi_monotone_q1()


def test_monotonicity_scan_needs_grid():
    with pytest.raises(ValueError):
        monotonicity_scan(1.0, 1)


def test_norm_p_to_inf_values():
    assert abs(norm_p_to_inf(math.inf) - EIGHT_OVER_PI) < 1e-12
    q = 4 / 3
    ref = 2 * (gamma(2 - q) / gamma(2 - q / 2) ** 2) ** (1 / q)
    assert abs(norm_p_to_inf(4.0) - ref) < 1e-13


def test_norm_p_to_inf_rejects_p_le_2():
    with pytest.raises(ValueError):
        norm_p_to_inf(2.0)
    with pytest.raises(ValueError):
        norm_p_to_inf(1.0)


def test_riesz_thorin_endpoints():
    assert abs(riesz_thorin_bound(2.0) - solve_alpha()) < 1e-14
    assert abs(riesz_thorin_bound(math.inf) - EIGHT_OVER_PI) < 1e-14
    # interior: geometric interpolation at p = 4
    mid = math.sqrt(solve_alpha() * EIGHT_OVER_PI)
    assert abs(riesz_thorin_bound(4.0) - mid) < 1e-13


def test_riesz_thorin_at_infinity_solves_no_alpha(monkeypatch):
    # alpha**0 * (8/pi)**1 of the general formula, bit for bit
    expected = solve_alpha() ** 0.0 * EIGHT_OVER_PI ** 1.0
    calls = []
    root = spectral._newton_root
    monkeypatch.setattr(spectral, "_newton_root",
                        lambda *a, **k: calls.append(a) or root(*a, **k))
    assert riesz_thorin_bound(math.inf) == expected
    assert calls == []
    riesz_thorin_bound(4.0)
    assert len(calls) == 1


def test_riesz_thorin_rejects_small_p():
    with pytest.raises(ValueError):
        riesz_thorin_bound(1.9)


def test_l1_at_zero_reference():
    v = l1_at_zero(1e-6)
    assert abs(v - 2.10441) < 5e-4
    assert v > 4 / 3  # strictly above the trivial lower bound


def test_l1_two_routes_agree():
    # the kernel modulus at the origin is |z - 1/z|, integrated over the disk
    # directly (the polar Jacobian absorbs the 1/|z| blow-up at the origin)
    direct = quad_disk(lambda z: np.abs(z - 1.0 / z), 1e-6).value.real
    assert abs(l1_at_zero(1e-6) - direct) < 1e-4


def test_l1_scan_radial_profile():
    grid = [complex(0.8 * j / 4, 0) for j in range(5)]
    rows = l1_integrand_scan(grid, 1e-5)
    assert [w for w, _, _ in rows] == grid  # order preserved
    vals = [v for _, v, _ in rows]
    assert abs(vals[0] - l1_at_zero(1e-6)) < 2e-4
    # observed maximum at the origin (conjectured supremum location)
    assert max(range(5), key=lambda i: vals[i]) == 0
    assert all(e < 1e-4 for _, _, e in rows)


def test_l1_scan_conjugation_symmetry():
    w = 0.35 + 0.4j
    rows = l1_integrand_scan([w, w.conjugate()], 1e-5)
    assert abs(rows[0][1] - rows[1][1]) < 5e-5


def test_counterexample_p2():
    out = counterexample_p2()
    assert abs(out["norm_sq"] - 2 / math.log(2)) < 1e-6
    assert out["norm_sq_reference"] == 2 / math.log(2)
    assert out["strictly_increasing"]
    eps = [e for e, _ in out["annulus_integrals"]]
    assert eps == [10.0 ** -k for k in range(1, 9)]
    vals = [v for _, v in out["annulus_integrals"]]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_extremal_ratio_boundary_limit_pinf():
    r = extremal_ratio_pinf(math.inf, 0.999 + 0j, 1e-6)
    assert abs(r - EIGHT_OVER_PI) / EIGHT_OVER_PI < 0.02


def test_extremal_ratio_interior_suboptimal():
    r = extremal_ratio_pinf(4.0, 0j, 1e-6)
    assert r < norm_p_to_inf(4.0)


def test_extremal_ratio_p4_approach():
    """Deficit shrinks like (1-z)^(2/3); within 2% only from z = 0.999 on."""
    n4 = norm_p_to_inf(4.0)
    vals = [extremal_ratio_pinf(4.0, complex(z, 0), 1e-7) for z in (0.9, 0.99, 0.999)]
    assert vals[0] < vals[1] < vals[2] < n4
    assert (n4 - vals[2]) / n4 < 0.02
