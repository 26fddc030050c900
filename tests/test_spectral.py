import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from disktransform import specfun, spectral
from disktransform.specfun import _gl_nodes, bessel_j, bessel_zero
from disktransform.spectral import (
    estimate_norm,
    extremal_phi0_ratio,
    hardy_ratio,
    restricted_Z,
    solve_alpha,
    solve_delta,
)
from disktransform.transforms import TransformKind
from _bisect_ref import bisect
from _exact_galerkin import exact_norm, realified_columns, whitened_blocks

ALPHA_REF = 1.086  # 3-decimal published value
J0 = bessel_zero(0)
J1 = bessel_zero(1)


# --- scalar equations -------------------------------------------------------

def test_solve_alpha():
    a = solve_alpha()
    assert abs(a - ALPHA_REF) < 5e-4
    assert abs(2 * bessel_j(0, 2 / a) - a * bessel_j(1, 2 / a)) < 1e-12
    assert round(a, 3) == 1.086


def test_solve_delta():
    d = solve_delta()
    assert abs(d - 1.841) < 5e-4
    assert abs(bessel_j(1, d) - d * bessel_j(0, d)) < 1e-12


def test_consistency_triangle():
    a, d = solve_alpha(), solve_delta()
    assert abs(a - 2 / d) < 1e-10
    assert abs(a * a - 1.180) < 5e-4  # lambda0 to 3 decimals


def _alpha_f(x):
    return 2 * bessel_j(0, 2 / x) - x * bessel_j(1, 2 / x)


def _delta_f(x):
    return bessel_j(1, x) - x * bessel_j(0, x)


@pytest.mark.parametrize("solve,f,bracket,expected", [
    (solve_alpha, _alpha_f, (1.0, 1.2), 1.0862576676314728),
    (solve_delta, _delta_f, (2 / 1.2, 2.0), 1.841183781340659),
], ids=["alpha", "delta"])
def test_root_is_the_bisection_float(monkeypatch, solve, f, bracket, expected):
    """Bracketed Newton returns the float that bisection to the last float
    returns, at a sign change of f, in at most 24 Bessel evaluations."""
    calls = []
    monkeypatch.setattr(spectral, "bessel_j", lambda *a: calls.append(a) or bessel_j(*a))
    root = solve()
    monkeypatch.undo()
    assert root == bisect(f, *bracket) == expected
    assert any((f(root) > 0) != (f(x) > 0) for x in (math.nextafter(root, 0),
                                                      math.nextafter(root, 2)))
    assert len(calls) <= 24


# The walk is specfun._newton_root, shared with bessel_zero; spectral
# imports it for solve_alpha and solve_delta.
@pytest.mark.parametrize("c", [0.1 * k for k in range(1, 40)])
def test_newton_root_matches_bisection_on_a_monotone_cubic(c):
    def fdf(x):
        return x * x * x - c, 3 * x * x

    assert specfun._newton_root(fdf, 0.0, 2.0) == bisect(lambda x: fdf(x)[0], 0.0, 2.0)


def test_newton_root_edge_cases():
    def fdf(x):
        return x - 0.375, 1.0

    assert specfun._newton_root(fdf, 0.0, 1.0) == 0.375  # an exact zero, as it is
    assert specfun._newton_root(fdf, 0.375, 1.0) == 0.375
    assert specfun._newton_root(fdf, 0.0, 0.375) == 0.375
    with pytest.raises(ValueError) as ours:
        specfun._newton_root(fdf, 0.5, 1.0)
    with pytest.raises(ValueError) as ref:
        bisect(lambda x: fdf(x)[0], 0.5, 1.0)
    assert str(ours.value) == str(ref.value) == "no sign change on [0.5, 1.0]"


def test_restricted_Z_fixed_point():
    lam0 = solve_alpha() ** 2
    assert abs(restricted_Z(lam0) - lam0) < 1e-12


def test_restricted_Z_not_fixed_at_hardy_bound():
    # 4/j0^2 is the single-component bound, not the two-component fixed point
    lam = 4 / J0 ** 2
    assert abs(restricted_Z(lam) - lam) > 1e-3


def test_restricted_Z_continuous_on_interval():
    lo, hi = 4 / J0 ** 2, 1.5 + 2 / J1 ** 2
    grid = np.linspace(lo + 1e-6, hi - 1e-6, 200)
    vals = [restricted_Z(float(x)) for x in grid]
    diffs = np.abs(np.diff(vals))
    assert np.all(np.isfinite(vals))
    assert diffs.max() < 0.05  # no jumps on the bracket used by the theory


def test_restricted_Z_rejects_nonpositive():
    with pytest.raises(ValueError):
        restricted_Z(0.0)
    with pytest.raises(ValueError):
        restricted_Z(-1.0)


# --- exact Hardy ratios -----------------------------------------------------

def test_hardy_examples_exact():
    assert hardy_ratio(1, [1]) == Fraction(1, 6)
    assert hardy_ratio(0, [1]) == Fraction(1, 8)


def test_hardy_log_case_is_rational():
    # d = 2 with constant profile hits the 1/r inner integrand (log term):
    # int_0^1 log(r)^2 r^3 dr / int_0^1 r dr = (2/4^3) / (1/2)
    v = hardy_ratio(2, [1])
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 16)
    # d = 3: rho^2 integrates to the power 1 - r, rho to the log term
    assert hardy_ratio(3, [0, 0, 1]) == Fraction(1, 28)
    assert hardy_ratio(3, [0, 1]) == Fraction(1, 27)


def test_hardy_rejects_zero_profile():
    with pytest.raises(ValueError):
        hardy_ratio(1, [0, 0])


@pytest.mark.parametrize("d", range(-3, 5))
def test_hardy_bound_random_profiles(d):
    rng = random.Random(100 + d)
    jd = bessel_zero(-d) if d <= 0 else bessel_zero(d - 1)
    bound = 1 / jd ** 2
    for _ in range(200):
        u = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)]
        if not any(u):
            u[0] = Fraction(1)
        assert float(hardy_ratio(d, u)) <= bound + 1e-12


def _bessel_profile_coeffs(nu, x0, degree):
    """Taylor coefficients of J_nu(x0 * rho) in rho, exact-rational x0 powers."""
    from disktransform.specfun import gamma
    coeffs = [0.0] * (degree + 1)
    for k in range(0, (degree - nu) // 2 + 1):
        c = (-1) ** k / (math.factorial(k) * gamma(k + nu + 1)) * (x0 / 2) ** (2 * k + nu)
        coeffs[2 * k + nu] = c
    return coeffs


@pytest.mark.parametrize("d", range(-3, 5))
def test_hardy_bessel_profiles_attain_bound(d):
    """Truncated Bessel series profiles sit within 1e-4 of each constant."""
    nu = -d if d <= 0 else d
    root = bessel_zero(-d) if d <= 0 else bessel_zero(d - 1)
    u = _bessel_profile_coeffs(nu, root, 30)
    u = [Fraction(c).limit_denominator(10 ** 12) for c in u]
    got = float(hardy_ratio(d, u))
    assert abs(got - 1 / root ** 2) < 1e-4


# --- Galerkin norms ------------------------------------------------------------

P, H = TransformKind.CauchyTransformP, TransformKind.BeurlingH


def _estimate(kind, max_degree, d_set=None):
    """estimate_norm for P, and the same solve on H's blocks, which the
    ledger checks by their Gram matrices instead."""
    if kind is P:
        return estimate_norm(max_degree, d_set)
    return spectral._top_singular(spectral._blocks(H, max_degree, d_set))


def test_assemble_degree0_P():
    basis, basis_out, plus, minus = realified_columns(P, 0)
    assert basis == [(0, 0)]
    # outputs z and zbar; each sign block is 2x1 with unit entries
    assert set(basis_out) == {(1, 0), (0, 1)}
    assert [B.shape for B in whitened_blocks(P, 0)] == [(2, 1), (2, 1)]
    assert sorted(abs(v) for col in plus + minus for v in col.values()) == [1, 1, 1, 1]
    est = exact_norm(P, 0)
    assert abs(est.value - 1.0) < 1e-12


def test_assemble_empty_basis_rejected():
    for kind in (P, H):
        with pytest.raises(ValueError):
            _estimate(kind, 3, {7})
    with pytest.raises(ValueError):
        realified_columns(P, 3, {7})


def test_estimate_norm_truncation_validation():
    """A negative degree and a sector set that admits no monomial, a
    non-integer sector included, are rejected; any collection of ints
    serves as the sector set."""
    for kind in (P, H):
        with pytest.raises(ValueError, match="max_degree"):
            _estimate(kind, -1)
        for d_set in ({7}, {1.5}):
            with pytest.raises(ValueError, match="no basis monomials"):
                _estimate(kind, 3, d_set)
    assert (estimate_norm(4, {0, 2}) == estimate_norm(4, [2, 0])
            == estimate_norm(4, frozenset({0, 2})))


def test_estimate_norm_degree_bound():
    assert spectral.MAX_TOTAL_DEGREE == 160
    assert estimate_norm(160).value > 0
    for kind in (P, H):
        with pytest.raises(ValueError, match="max_degree"):
            _estimate(kind, 161)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_H_isometry_matrix_norm(deg):
    est = exact_norm(H, deg)
    assert abs(est.value - 1.0) < 1e-10


def test_H_blocks_are_isometries():
    """H is an isometry of L2, so every singular value of every block is 1,
    and the ledger's Gram defect max |B^T B - I| stays below its tol 1e-13
    (9.5e-15 at most, at D = 160)."""
    for deg, bound in [*((d, 2e-14) for d in range(41)), (80, 1e-13), (160, 1e-13)]:
        for B in spectral._blocks(H, deg, None):
            assert np.abs(np.linalg.svd(B, compute_uv=False) - 1.0).max() < bound, deg
        assert spectral._isometry_defect(deg) < 1e-13, deg


def test_zero_operator_component():
    # S kills pure conjugate powers; restricting to d = -5 gives the zero map
    est = exact_norm(TransformKind.BeurlingS, 5, {-5})
    assert est.value == 0.0


def test_bergman_matrix_idempotent_norm():
    est = exact_norm(TransformKind.BergmanB, 6)
    assert abs(est.value - 1.0) < 1e-10  # orthogonal projection


def test_estimate_P_degree0():
    est = estimate_norm(0)
    assert abs(est.value - 1.0) < 1e-12


def test_estimate_P_converges_to_alpha():
    alpha = solve_alpha()
    for deg, bound in ((12, 1e-6), (20, 1e-13), (40, 1e-13), (80, 1e-13), (160, 1e-13)):
        est = estimate_norm(deg)
        assert abs(est.value - alpha) < bound
        assert est.residual < 1e-10


def test_estimate_monotone_in_degree():
    vals = [estimate_norm(d).value for d in (2, 4, 6, 8, 10)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    # the Galerkin gap closes super-exponentially: 2.8e-4, 1.8e-7, 3.4e-11, ~1e-15
    alpha = solve_alpha()
    gaps = [abs(alpha - v) for v in vals[:4]]
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi <= lo / 100


_D_SETS = [None, {1}, {0, 2}, {-3, 5}]


# P's cases keep the bare d_set ids
@pytest.mark.parametrize("kind,d_set", [
    *(pytest.param(P, d_set, id=f"d_set{i}" if d_set else "None")
      for i, d_set in enumerate(_D_SETS)),
    *(pytest.param(H, d_set, id=f"H-d_set{i}" if d_set else "H-None")
      for i, d_set in enumerate(_D_SETS)),
])
def test_P_norm_float_route_matches_exact_route(kind, d_set):
    """The orthonormal float solve agrees with rational LDL whitening."""
    for deg in range(13):
        try:
            blocks = whitened_blocks(kind, deg, d_set)
        except ValueError:
            with pytest.raises(ValueError):
                _estimate(kind, deg, d_set)
            continue
        exact = exact_norm(kind, deg, d_set)
        est = _estimate(kind, deg, d_set)
        assert abs(est.value - exact.value) < 1e-13
        # the same input space on both routes: one float block per mirror pair
        widths = [B.shape[1] for B in spectral._blocks(kind, deg, d_set)]
        assert sum(widths) == blocks[0].shape[1]


def _units(D, d_set):
    """(d, a) for each block of _blocks in order: sector 1, then the coupled
    pairs d, 2 - d for d = 0, -1, ..., with a = the width of sector d."""

    def size(d):
        admitted = abs(d) <= D and (d_set is None or d in d_set)
        return (D - abs(d)) // 2 + 1 if admitted else 0

    return ([(1, 0)] if size(1) else []) + [
        (d, size(d)) for d in range(0, -D - 1, -1) if size(d) + size(2 - d)]


@pytest.mark.parametrize("kind", [P, H], ids=["P", "H"])
def test_mirror_blocks_share_singular_values(kind):
    """_blocks yields the real coefficient block B = [[L, 0], [N, U]] of each
    coupled pair d, 2 - d (L and N on the a columns of sector d, U on the
    columns of 2 - d, N the antilinear constant).  The imaginary block
    flips the sign of N, and that is R B C with R = diag(I, -I) on the two
    output sectors and C = diag(I_a, -I_b) on the columns.  R and C are
    orthogonal, so both blocks have the same singular values and
    _top_singular may count each yielded block twice.  Sector 1 has no
    antilinear part: its two blocks are equal."""
    for d_set in _D_SETS:
        for deg in range(41):
            try:
                blocks = list(spectral._blocks(kind, deg, d_set))
            except ValueError:
                continue
            units = _units(deg, d_set)
            assert len(blocks) == len(units)
            for B, (d, a) in zip(blocks, units):
                n = B.shape[0] // 2
                minus = B.copy()
                minus[n:, :a] *= -1.0
                s_plus = np.linalg.svd(B, compute_uv=False)
                s_minus = np.linalg.svd(minus, compute_uv=False)
                assert np.abs(s_minus - s_plus).max() <= 1e-15 * s_plus[0], (deg, d_set, d)


def test_top_singular_skips_only_blocks_that_cannot_win():
    """Skipping a block whose Frobenius norm is no more than the best leaves
    the value of decomposing every block, near ties and zero blocks
    included."""
    rng = np.random.default_rng(5)
    rank_one = np.outer([1.0, 2.0, 0.5], [0.3, -1.0])
    cases = [list(spectral._blocks(P, 20, None)),
             list(spectral._blocks(H, 8, None)),
             [rank_one, rank_one * (1 - 2e-11)], [rank_one * (1 - 1e-16), rank_one],
             [np.zeros((2, 2)), rank_one * 1e-12, np.zeros((3, 1))], [np.zeros((2, 3))]]
    for _ in range(20):
        cases.append([rng.standard_normal(rng.integers(1, 6, size=2))
                      for _ in range(rng.integers(1, 8))])
    for blocks in cases:
        every = max(np.linalg.svd(B, compute_uv=False)[0] for B in blocks)
        est = spectral._top_singular(blocks)
        assert abs(est.value - every) <= 4 * np.finfo(float).eps * every


def test_top_singular_decomposes_each_candidate_once(monkeypatch):
    """One SVD, with vectors, per block that passes the Frobenius skip, and
    none for the winner afterwards: P at D = 20 has two such blocks, and
    sector 1 alone one."""
    shapes = []
    svd = np.linalg.svd

    def spy(B, *args, **kwargs):
        shapes.append(B.shape)
        return svd(B, *args, **kwargs)

    monkeypatch.setattr(spectral.np.linalg, "svd", spy)
    assert estimate_norm(20).residual <= spectral._SVD_RESIDUAL_TOL
    assert len(shapes) == 2
    shapes.clear()
    assert estimate_norm(20, {1}).residual <= spectral._SVD_RESIDUAL_TOL
    assert len(shapes) == 1


def test_disk_polys_batch_matches_each_weight():
    """One Jacobi recurrence over an array of weights gives, bit for bit,
    what one call per weight gives: the steps are the same elementwise
    operations."""
    x, _ = _gl_nodes(21)
    betas = np.arange(42)
    for a in (0, 1):
        batch = spectral._jacobi(30, a, betas, x)
        each = np.stack([spectral._jacobi(30, a, int(b), x) for b in betas])
        assert batch.shape == each.shape == (42, 21, 31)
        assert np.array_equal(batch, each)


def test_jacobi_matches_scipy():
    x, _ = _gl_nodes(41)
    betas = np.arange(42)
    k = np.arange(31)
    for a in (0, 1):
        got = spectral._jacobi(30, a, betas, x)
        ref = scipy.special.eval_jacobi(k, a, betas[:, None, None], x[:, None])
        err = np.abs(got - ref).max(axis=1)
        assert (err <= 1e-13 * np.abs(ref).max(axis=1)).all(), a


def test_disk_polys_orthonormal():
    x, w = _gl_nodes(51)  # exact to degree 101 = 2 * 30 + 41
    t, w = 0.5 * (x + 1), 0.5 * w
    psi = spectral._Radial(51).value(np.arange(42), 31)
    for beta in range(42):
        gram = psi[beta].T @ ((w * t**beta)[:, None] * psi[beta])
        assert np.abs(gram - np.eye(31)).max() < 1e-13


def _psi_grid(kmax, beta, x, deriv=False):
    """psi_k(t), or with deriv psi_k'(t), at x = 2t - 1 for k = 0..kmax on a
    new last axis: the alpha = 0 Jacobi recurrence, differentiated term by
    term for psi'."""
    P0, P1 = np.ones(x.shape), 1.0 + 0.5 * (beta + 2) * (x - 1.0)
    dP0, dP1 = np.zeros(x.shape), np.full(x.shape, 0.5 * (beta + 2))
    out = [dP0, dP1] if deriv else [P0, P1]
    for n in range(1, kmax):
        s = 2 * n + beta
        den = 2 * (n + 1) * (n + beta + 1) * s
        a, b = s * (s + 1) * (s + 2) / den, -beta * beta * (s + 1) / den
        c = 2 * n * (n + beta) * (s + 2) / den
        dP0, dP1 = dP1, a * P1 + (a * x + b) * dP1 - c * dP0
        P0, P1 = P1, (a * x + b) * P1 - c * P0
        out.append(dP1 if deriv else P1)
    scale = np.sqrt(np.arange(1, 2 * kmax + 2, 2) + beta)
    return np.stack(out[:kmax + 1], axis=-1) * scale * (2.0 if deriv else 1.0)


def test_radial_forms_match_quadrature():
    """The identity forms of _Radial against psi_k and its defining
    integrals, each summed by the 41-point Gauss-Legendre rule on the node
    grid, exact for inner integrands of degree at most 71 <= 2 * 41 - 1."""
    F = spectral._Radial(41)
    x, t, w = F.x, F.t, F.w
    betas = np.arange(42)
    # inner points 2s - 1 for s = t + (1 - t) v and s = t v, v = t
    x_tail = x[:, None] + np.outer(1 - x, t)
    x_hardy = np.outer(x + 1, t) - 1
    ref = {
        "value": lambda b: _psi_grid(30, b, x),
        "tail": lambda b: (1 - t)[:, None] * np.einsum("j,ijk->ik", w, _psi_grid(30, b, x_tail)),
        "hardy": lambda b: np.einsum("j,ijk->ik", w * t**b, _psi_grid(30, b, x_hardy)),
        "hardy_deriv": lambda b: np.einsum(
            "j,ijk->ik", w * t**(b + 1), _psi_grid(30, b, x_hardy, deriv=True)),
    }
    for name, integral in ref.items():
        bs = betas[1:] if name == "tail" else betas
        got = getattr(F, name)(bs, 31)
        for b, g in zip(bs, got):
            want = integral(int(b))
            err = np.abs(g - want).max(axis=0)
            assert (err <= 1e-13 * np.abs(want).max(axis=0)).all(), (name, b)


def test_restricted_pair_carries_norm():
    """The d in {0, 2} pair alone reproduces the full-basis value."""
    full = estimate_norm(10).value
    pair = estimate_norm(10, {0, 2}).value
    assert abs(full - pair) < 1e-9


def test_restricted_d1_reaches_hardy_constant():
    est = estimate_norm(12, {1})
    assert abs(est.value - 2 / J0) < 1e-3


def test_norm_estimate_interval():
    est = estimate_norm(12)
    assert 2 / J0 < est.value < math.sqrt(1.5 + 2 / J1 ** 2)


# --- extremal truncation ladder ----------------------------------------------

def test_phi0_ratio_strictly_below_alpha_at_low_degree():
    assert extremal_phi0_ratio(4) < solve_alpha()


def test_phi0_ratio_ladder():
    alpha = solve_alpha()
    vals = [extremal_phi0_ratio(d) for d in (10, 20, 30, 40)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert abs(vals[-1] - alpha) < 1e-6


def test_phi0_ratio_rejects_tiny_degree():
    with pytest.raises(ValueError):
        extremal_phi0_ratio(1)
