import argparse
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import disktransform
from disktransform import cli, diskalg, extremal, oracle, specfun, spectral, transforms
from disktransform.cli import (
    PolyParseError,
    RunConfig,
    ConfigError,
    format_poly,
    main,
    parse_poly,
)
from disktransform.diskalg import DiskPolynomial, ExactScalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- grammar ----------------------------------------------------------------

def test_parse_basic_terms():
    assert parse_poly("1") == DiskPolynomial({(0, 0): ExactScalar(1)})
    assert parse_poly("w") == DiskPolynomial({(1, 0): ExactScalar(1)})
    assert parse_poly("conj(w)") == DiskPolynomial({(0, 1): ExactScalar(1)})
    assert parse_poly("w^3") == DiskPolynomial({(3, 0): ExactScalar(1)})
    assert parse_poly("conj(w)^2") == DiskPolynomial({(0, 2): ExactScalar(1)})


def test_parse_products_and_sums():
    got = parse_poly("2*w^2*conj(w) - w + 1")
    assert got == DiskPolynomial({
        (2, 1): ExactScalar(2), (1, 0): ExactScalar(-1), (0, 0): ExactScalar(1)})
    # repeated factors multiply out
    assert parse_poly("w*w*conj(w)") == DiskPolynomial({(2, 1): ExactScalar(1)})


def test_parse_decimal_is_exact():
    got = parse_poly("0.5*w")
    assert got == DiskPolynomial({(1, 0): ExactScalar(Fraction(1, 2))})
    got = parse_poly("1.25")
    assert got == DiskPolynomial({(0, 0): ExactScalar(Fraction(5, 4))})


def test_parse_complex_coefficients():
    assert parse_poly("i*w") == DiskPolynomial({(1, 0): ExactScalar(0, 1)})
    assert parse_poly("2i") == DiskPolynomial({(0, 0): ExactScalar(0, 2)})
    assert parse_poly("(1+2i)*w") == DiskPolynomial({(1, 0): ExactScalar(1, 2)})
    assert parse_poly("(0.5-0.25i)") == DiskPolynomial(
        {(0, 0): ExactScalar(Fraction(1, 2), Fraction(-1, 4))})
    assert parse_poly("-w + w") == DiskPolynomial({})


def test_parse_whitespace_insensitive():
    a = parse_poly("2*w^2*conj(w)^3-1")
    b = parse_poly("  2 * w^2 * conj( w )^3 - 1 ")
    assert a == b


def test_parse_cancellation_drops_term():
    assert parse_poly("w - w + conj(w)") == DiskPolynomial({(0, 1): ExactScalar(1)})


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("w^^2")
    assert exc.value.column == 3
    with pytest.raises(PolyParseError) as exc:
        parse_poly("w + $")
    assert exc.value.column == 5
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("conj(v)")
    with pytest.raises(PolyParseError):
        parse_poly("w^1.5")
    # a non-ASCII digit is an unexpected character, not a number
    for text, column in (("w^²", 3), ("²", 1)):
        with pytest.raises(PolyParseError, match="unexpected character") as exc:
            parse_poly(text)
        assert exc.value.column == column


# one case per grammar rule: the exact message, column included
@pytest.mark.parametrize("text,message", [
    ("w^^2", "expected 'num', found '^' (column 3)"),
    ("w + $", "unexpected character '$' (column 5)"),
    ("conj(v)", "only conj(w) is supported (column 6)"),
    ("w^1.5", "exponent must be an integer (column 3)"),
    ("w^-1", "expected 'num', found '-' (column 3)"),
    ("(w)", "expected a number, found 'w' (column 2)"),
    ("(1 2)", "expected ')', found '2' (column 4)"),
    ("(+)", "expected a number, found ')' (column 3)"),
    ("2w", "expected '+' or '-', found 'w' (column 2)"),
    ("--w", "expected a term, found '-' (column 2)"),
    ("w + -w", "expected a term, found '-' (column 5)"),
    ("^2", "expected a term, found '^' (column 1)"),
    ("conj w", "expected '(', found 'w' (column 6)"),
    ("1..", "unexpected character '.' (column 3)"),
    ("1.2.3", "expected '+' or '-', found '.3' (column 4)"),
    ("w*", "expected a term, found '' (column 3)"),
    ("-", "expected a term, found '' (column 2)"),
    ("  ", "empty polynomial (column 1)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,coeffs", [
    ("(--3)", {(0, 0): ExactScalar(3)}),
    ("+w", {(1, 0): ExactScalar(1)}),
    (".5", {(0, 0): ExactScalar(Fraction(1, 2))}),
    ("7.", {(0, 0): ExactScalar(7)}),
    ("2i*conj(w)^0", {(0, 0): ExactScalar(0, 2)}),
])
def test_parse_accepted_edge_cases(text, coeffs):
    assert parse_poly(text) == DiskPolynomial(coeffs)


# --- pretty printing ----------------------------------------------------------

def test_format_poly_spec_shapes():
    assert format_poly(parse_poly("conj(w) - w")) == "z̄ - z"
    assert format_poly(parse_poly("-1")) == "-1"
    assert format_poly(parse_poly("2*w*conj(w) - 1")) == "2 z z̄ - 1"
    assert format_poly(DiskPolynomial({})) == "0"
    assert format_poly(parse_poly("0.5*w^2")) == "1/2 z^2"
    assert format_poly(parse_poly("i*w - i")) == "i z - i"


# --- config -------------------------------------------------------------------

def test_config_validation():
    RunConfig().validate()
    with pytest.raises(ConfigError):
        RunConfig(max_degree=-2).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_quad=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(budget=-5).validate()
    with pytest.raises(ConfigError):
        RunConfig(fmt="xml").validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            RunConfig(tol_quad=bad).validate()


# --- subcommands ----------------------------------------------------------------

def test_transform_table(capsys):
    code, out, _ = run(capsys, "transform", "P", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "z̄ - z"
    assert "0 1 1" in lines[0]


def test_max_degree_above_bound_is_config_error(capsys):
    """Degrees past the verified Gauss-Legendre range stop before compute."""
    RunConfig(max_degree=160).validate()
    with pytest.raises(ConfigError):
        RunConfig(max_degree=161).validate()
    code, out, err = run(capsys, "norm", "2", "--max-degree", "161")
    assert code == 2 and out == "" and err.startswith("config error")
    code, out, err = run(capsys, "verify", "--max-degree", "161")
    assert code == 2 and out == "" and err.startswith("config error")


def test_transform_examples_via_cli(capsys):
    for op, poly, pretty in (("P", "1", "z̄ - z"), ("H", "1", "-1"),
                             ("S", "w^2", "2 z z̄ - 1")):
        code, out, _ = run(capsys, "transform", op, poly)
        assert code == 0
        assert out.strip().splitlines()[-1] == pretty


def test_transform_full_names_and_aliases(capsys):
    c1 = run(capsys, "transform", "BeurlingS", "w^2")
    c2 = run(capsys, "transform", "S", "w^2")
    assert c1 == c2
    code, out, err = run(capsys, "transform", "Q", "w")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error: unknown operator")


def test_transform_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "transform", "B", "conj(w)")
    assert code == 0
    doc = json.loads(out)
    assert doc["operator"] == "BergmanB"
    assert doc["rows"] == []
    assert doc["pretty"] == "0"


def test_transform_parse_error_exit2(capsys):
    code, _, err = run(capsys, "transform", "P", "w^^2")
    assert code == 2
    assert "column 3" in err
    code, out, err = run(capsys, "transform", "P", "w^²")
    assert code == 2 and out == ""
    assert "column 3" in err


def test_bad_config_exit2(capsys):
    for argv in (("--tol-quad", "-1", "verify"), ("verify", "--budget", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("config error: ")


def test_global_flags_are_run_config_fields():
    """Each global flag is one RunConfig field and each field one flag, so a
    knob cannot be half-removed."""
    ap = argparse.ArgumentParser()
    cli._add_global_flags(ap, suppress=False)
    dests = {a.dest for a in ap._actions if a.dest != "help"}
    assert dests == {f.name for f in dataclasses.fields(RunConfig)}


def test_verify_defaults_are_run_config(capsys, monkeypatch):
    """With no flags the parser builds exactly RunConfig's defaults."""
    seen = []
    monkeypatch.setattr(cli, "run_verify", lambda cfg: seen.append(cfg) or [])
    assert run(capsys, "verify")[0] == 0
    assert seen == [RunConfig()]


def test_exhausted_budget_exit3(capsys):
    # a compute error is neither a check FAIL (1) nor a usage error (2)
    code, out, err = run(capsys, "verify", "--budget", "100")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: OracleBudgetError: ")


def test_tol_below_roundoff_exit3_after_one_call(capsys, monkeypatch):
    # verify's first quadrature is C of w^2: the exact beta rule makes one
    # call on 2N = 16 nodes times n_U = 2 and cannot certify 1e-20, so it
    # raises there instead of spending the budget
    seen = []
    real = oracle.evaluate
    monkeypatch.setattr(oracle, "evaluate",
                        lambda phi, w: seen.append(w.size) or real(phi, w))
    code, out, err = run(capsys, "verify", "--tol-quad", "1e-20")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: OracleBudgetError: ")
    assert sum(seen) <= 32


def test_flags_after_subcommand(capsys):
    c1, o1, _ = run(capsys, "--max-degree", "6", "norm", "2")
    c2, o2, _ = run(capsys, "norm", "2", "--max-degree", "6")
    assert (c1, o1) == (c2, o2)


def test_verify_low_degree_skips(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    status = {r["check_id"]: r["status"] for r in rows}
    assert status["norm2_galerkin"] == "SKIPPED"
    assert status["alpha_root"] == "PASS"
    assert all(s in ("PASS", "SKIPPED") for s in status.values())


VERIFY_IDS = [
    "alpha_root", "alpha_residual", "delta_root", "alpha_delta_consistency",
    "lambda0_value", "fixed_point_Z", "bessel_zero_j0", "bessel_zero_j1",
    "bessel_zero_j2", "bessel_zero_j3", "bessel_zero_j4", "norm2_galerkin",
    "norm2_restricted_d1", "norm2_bracket", "beurling_isometry_matrix",
    "hardy_d1_profile_u1", "isometry_exact_sample", "solution_operator_identity",
    "boundary_real_part", "oracle_cauchy_w2", "oracle_area_moment",
    "angular_mean_series", "pinf_norm", "phi_gauss_limit", "phi_monotone_q1",
    "riesz_thorin_endpoint", "l1_at_zero_elliptic", "counterexample_norm",
    "counterexample_divergence",
]


def test_verify_ledger_order(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["check_id"] for r in rows] == VERIFY_IDS
    assert {r["status"] for r in rows} == {"PASS"}


def test_verify_low_degree_skipped_ids(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["check_id"] for r in rows] == VERIFY_IDS
    skipped = {r["check_id"] for r in rows if r["status"] == "SKIPPED"}
    assert skipped == {"norm2_galerkin", "norm2_restricted_d1", "norm2_bracket"}


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    keys = {"check_id", "reference", "expected", "computed", "abs_err", "tol", "status"}
    assert all(set(r) == keys for r in rows)


def test_verify_csv_crlf(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "4", "--format", "csv")
    assert code == 0
    assert "\r\n" in out


def test_verify_deterministic(capsys):
    a = run(capsys, "verify", "--max-degree", "4", "--format", "csv")
    b = run(capsys, "verify", "--max-degree", "4", "--format", "csv")
    assert a == b


def test_verify_solves_each_bessel_zero_once(capsys, monkeypatch):
    """The bessel_zero rows and the Galerkin bracket share one zero per order."""
    calls = []
    real = cli.bessel_zero
    monkeypatch.setattr(cli, "bessel_zero", lambda d: calls.append(d) or real(d))
    assert run(capsys, "verify")[0] == 0
    assert sorted(calls) == [0, 1, 2, 3, 4]


def test_verify_samples_no_grid(capsys, monkeypatch):
    """One verify pass evaluates phi once (the Gauss limit row), runs no
    monotonicity scan and sums three 2F1 (two in that phi value, one in the
    angular Parseval row): the two exact rows sample nothing."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or real(*a))

    count(extremal, "phi_fn")
    count(extremal, "monotonicity_scan")
    for module in (specfun, extremal, oracle):
        count(module, "hyp2f1")
    assert run(capsys, "verify")[0] == 0
    assert (calls["phi_fn"], calls["monotonicity_scan"], calls["hyp2f1"]) == (1, 0, 3)


def _seeded_samples(seed):
    """The two polynomials that verify --seed S checks its seeded rows on."""
    rng = random.Random(seed)
    return [cli._dense_exact_poly(rng) for _ in range(2)]


# a z^m zbar^n with a in {1, i} and m + n <= 6
REAL_BASIS = [DiskPolynomial({(m, k - m): a}) for a in (ExactScalar(1), ExactScalar(0, 1))
              for k in range(7) for m in range(k + 1)]
# 1e-9 z: real part 1e-9 cos(theta) on the circle
TINY_Z = DiskPolynomial({(1, 0): ExactScalar(Fraction(1, 10**9))})


@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_check_holds_for_T_and_P(seed):
    for phi in _seeded_samples(seed) + REAL_BASIS:
        assert cli._real_part_vanishes_on_circle(transforms.t_hs(phi))
        assert cli._real_part_vanishes_on_circle(transforms.cauchy_P(phi))


def test_boundary_check_fails_for_C_and_a_perturbed_T():
    assert len(REAL_BASIS) == 56
    for seed in (0, 1):
        phi = _seeded_samples(seed)[-1]
        assert not cli._real_part_vanishes_on_circle(transforms.cauchy_integral(phi))
        assert not cli._real_part_vanishes_on_circle(transforms.t_hs(phi) + TINY_Z)
    for phi in REAL_BASIS:
        (m, n), = phi.coeffs
        if m <= n:  # C maps the other monomials to 0
            assert not cli._real_part_vanishes_on_circle(transforms.cauchy_integral(phi))


def _real_part_vanishes_by_scalars(phi):
    """The boundary check summed in ExactScalar arithmetic: the reference
    for cli._real_part_vanishes_on_circle, which sums int fields."""
    by_degree: dict = {}
    for (m, n), a in phi.items():
        by_degree[m - n] = by_degree.get(m - n, 0) + a
    return not any(c.conjugate() + by_degree.get(-d, 0) for d, c in by_degree.items())


def test_boundary_check_matches_scalar_reference():
    cases = [p for seed in range(10) for p in _seeded_samples(seed)] + REAL_BASIS
    verdicts = Counter()
    for phi in cases:
        for img in (phi, transforms.t_hs(phi), transforms.cauchy_P(phi),
                    transforms.cauchy_integral(phi), transforms.t_hs(phi) + TINY_Z):
            got = cli._real_part_vanishes_on_circle(img)
            assert got == _real_part_vanishes_by_scalars(img), img
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def test_verify_fails_a_perturbed_T(capsys, monkeypatch):
    """The ledger's exact boundary row sees T[phi] + 1e-9 z."""
    real = transforms.t_hs
    monkeypatch.setattr(transforms, "t_hs", lambda phi: real(phi) + TINY_Z)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1
    status = {r["check_id"]: r["status"] for r in json.loads(out)}
    assert {k for k, v in status.items() if v != "PASS"} == {"boundary_real_part"}
    assert status["boundary_real_part"] == "FAIL"


MONOMIALS = [(m, k - m) for k in range(7) for m in range(k + 1)]


def test_verify_sample_is_two_dense_polynomials(capsys, monkeypatch):
    """verify --seed S hands _seeded_samples(S) to H and T (and to P twice:
    once for the identity, once inside T), and each holds every monomial of
    degree <= 6 with nonzero real and imaginary parts."""
    assert len(MONOMIALS) == 28
    for seed in range(10):
        seen = {"beurling_H": [], "cauchy_P": [], "t_hs": []}
        with monkeypatch.context() as mp:
            for name, args in seen.items():
                mp.setattr(transforms, name, lambda phi, real=getattr(transforms, name),
                           args=args: args.append(phi) or real(phi))
            assert run(capsys, "verify", "--seed", str(seed))[0] == 0
        samples = _seeded_samples(seed)
        assert seen == {"beurling_H": samples, "cauchy_P": samples + samples, "t_hs": samples}
        assert len(samples) == 2
        for phi in samples:
            assert sorted(phi.coeffs) == sorted(MONOMIALS)
            assert all(a.re and a.im for a in phi.coeffs.values())


def _planted(real, mono, target, antilinear):
    """real plus 1e-9 times phi's coefficient at mono (its conjugate when
    antilinear), put at target: a defect on the one monomial mono."""
    def wrong(phi):
        a = phi.coeffs.get(mono, ExactScalar(0))
        a = a.conjugate() if antilinear else a
        return real(phi) + DiskPolynomial({target: a.scaled(1, 10**9)})
    return wrong


@pytest.mark.parametrize("seed", range(10))
def test_seeded_rows_see_every_single_monomial_defect(seed):
    """A linear or antilinear 1e-9 defect on any one monomial of degree <= 6
    fails its row on the verify sample: H's and P's put at z^(m+1) zbar^n of
    the image, T's at z."""
    samples = _seeded_samples(seed)
    H, P, T = transforms.beurling_H, transforms.cauchy_P, transforms.t_hs

    def solves(P_):
        return all(P_(phi) == -transforms.cauchy_integral(phi)
                   - transforms.j0_op(diskalg.conjugate(phi)) for phi in samples)

    assert all(diskalg.norm_sq(H(phi)) == diskalg.norm_sq(phi) for phi in samples)
    assert solves(P)
    assert all(cli._real_part_vanishes_on_circle(T(phi)) for phi in samples)
    for (m, n) in MONOMIALS:
        for anti in (False, True):
            H_ = _planted(H, (m, n), (m + 1, n), anti)
            assert not all(diskalg.norm_sq(H_(phi)) == diskalg.norm_sq(phi)
                           for phi in samples), ("H", m, n, anti)
            assert not solves(_planted(P, (m, n), (m + 1, n), anti)), ("P", m, n, anti)
            T_ = _planted(T, (m, n), (1, 0), anti)
            assert not all(cli._real_part_vanishes_on_circle(T_(phi))
                           for phi in samples), ("T", m, n, anti)


@pytest.mark.parametrize("name, target, failing", [
    ("beurling_H", (1, 6), {"isometry_exact_sample"}),
    # t_hs calls cauchy_P, so P's defect reaches the boundary row too
    ("cauchy_P", (1, 6), {"solution_operator_identity", "boundary_real_part"}),
    ("t_hs", (1, 0), {"boundary_real_part"}),
])
def test_verify_fails_a_defect_on_zbar6(capsys, monkeypatch, name, target, failing):
    """The ledger sees an operator that is wrong on zbar^6 alone."""
    monkeypatch.setattr(transforms, name,
                        _planted(getattr(transforms, name), (0, 6), target, False))
    code, out, _ = run(capsys, "verify", "--seed", "0", "--format", "json")
    assert code == 1
    status = {r["check_id"]: r["status"] for r in json.loads(out)}
    assert {k for k, v in status.items() if v != "PASS"} == failing
    assert {status[k] for k in failing} == {"FAIL"}


@pytest.mark.parametrize("beta, factor", [
    (None, 1 - 1e-6), (None, 0.5), (3, 1 - 1e-9), (3, 1 + 1e-9)])
def test_verify_fails_a_scaled_H_form(capsys, monkeypatch, beta, factor):
    """The isometry row sees H's d <= 0 radial form scaled on every sector
    (beta None) or on sector d = -beta alone.  The blocks that are left
    alone keep H's top singular value at 1, so a bound on the norm passes
    the first three; their Gram matrices do not."""
    real = spectral._FORMS[transforms.TransformKind.BeurlingH]

    def lower(F, b, k):
        out = real.lower(F, b, k)
        out[slice(None) if beta is None else b == beta] *= factor
        return out

    monkeypatch.setitem(spectral._FORMS, transforms.TransformKind.BeurlingH,
                        dataclasses.replace(real, lower=lower))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1
    status = {r["check_id"]: r["status"] for r in json.loads(out)}
    assert {k for k, v in status.items() if v != "PASS"} == {"beurling_isometry_matrix"}
    assert status["beurling_isometry_matrix"] == "FAIL"


@pytest.mark.parametrize("max_degree", ["0", "1", "160"])
def test_verify_isometry_row_at_the_degree_edges(capsys, max_degree):
    code, out, _ = run(capsys, "verify", "--max-degree", max_degree, "--format", "json")
    assert code == 0
    row, = (r for r in json.loads(out) if r["check_id"] == "beurling_isometry_matrix")
    assert row["status"] == "PASS"


def test_cached_parser_leaks_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "verify", "--max-degree", "8")[0] == 0
    code, default, _ = run(capsys, "verify")
    assert code == 0
    assert "SKIPPED" not in default  # the D = 20 Galerkin rows ran
    assert run(capsys, "verify", "--seed", "3")[0] == 0
    assert run(capsys, "verify")[1] == default


def _render_by_asdict(rows, fmt):
    """emit's three formats, written from dataclasses.asdict of each row."""
    dicts = [dataclasses.asdict(r) for r in rows]
    fields = list(dicts[0])
    out = io.StringIO()
    if fmt == "json":
        json.dump(dicts, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(fields)
        writer.writerows([d[f] for f in fields] for d in dicts)
    else:
        widths = [max(len(f), *(len(d[f]) for d in dicts)) for f in fields]
        lines = [[f.ljust(w) for f, w in zip(fields, widths)]]
        lines += [[d[f].ljust(w) for f, w in zip(fields, widths)] for d in dicts]
        lines = ["  ".join(cells).rstrip() for cells in lines]
        lines.insert(1, "-" * len(lines[0]))
        out.write("\n".join(lines) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_emit_matches_asdict_rendering(fmt):
    rows = [cli.CheckRow("alpha_root", "a, \"quoted\" reference", "1.086",
                         "1.0862576676314728", "0.0002576676314728", "0.0005", "PASS"),
            cli.CheckRow("norm2_galerkin", "L2 norm", "requires --max-degree >= 10",
                         "", "", "", "SKIPPED"),
            cli.CheckRow("z", "ü", "True", "False", "0", "0", "FAIL")]
    out = io.StringIO()
    cli.emit(rows, fmt, out)
    assert out.getvalue() == _render_by_asdict(rows, fmt)


def test_norm_2_restricted(capsys):
    code, out, _ = run(capsys, "norm", "2", "--max-degree", "8", "--d-set", "1",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    est = float(rows[0]["computed"])
    assert abs(est - 0.8317) < 1e-3


def test_norm_2_degree40(capsys):
    code, out, _ = run(capsys, "norm", "2", "--max-degree", "40", "--format", "json")
    assert code == 0
    rows = {r["check_id"]: r for r in json.loads(out)}
    assert rows["norm2_residual"]["status"] == "PASS"


def test_norm_pinf(capsys):
    code, out, _ = run(capsys, "norm", "pinf", "--format", "json")
    assert code == 0
    rows = {r["check_id"]: r for r in json.loads(out)}
    assert rows["pinf_reference"]["status"] == "PASS"


def test_norm_pinf_p4(capsys):
    code, out, _ = run(capsys, "norm", "pinf", "--p", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] == "PASS" for r in rows)


def test_norm_rt(capsys):
    code, out, _ = run(capsys, "norm", "rt", "--p", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["status"] == "PASS"


def test_norm_1_grid(capsys):
    code, out, _ = run(capsys, "norm", "1", "--grid", "radial:3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    ids = [r["check_id"] for r in rows]
    assert sum(i.startswith("l1_F_at_") for i in ids) == 3
    conj_rows = [r for r in rows if r["status"] == "CONJECTURE"]
    assert len(conj_rows) == 1
    assert "w = 0" in conj_rows[0]["computed"]


def _diskt(blas_threads, *argv):
    """stdout of `diskt argv` in a fresh interpreter, with numpy's OpenBLAS
    held to one thread (blas_threads="1") or left at its default (None)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(disktransform.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "disktransform.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_norm_1_output_independent_of_threads():
    # the package starts no threads; numpy's BLAS thread count must not move output
    outs = [_diskt(threads, "norm", "1", "--grid", "radial:5", "--format", "json")
            for threads in ("1", None)]
    assert outs[0] == outs[1]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_matches_golden_ledger(seed):
    """`diskt verify --format json --seed S` prints tests/golden/verify.json
    byte for byte at both seeds, with numpy's BLAS on one thread and on its
    default: every seeded row is a bool, so the seed moves no byte.

    A change that moves a row regenerates the file with

        PYTHONPATH=src python -m disktransform.cli verify --format json \
            > tests/golden/verify.json

    and CHANGES.md lists every row that moved, with its old and new value."""
    golden = (GOLDEN / "verify.json").read_text()
    old = {row["check_id"]: row for row in json.loads(golden)}
    for threads in ("1", None):
        out = _diskt(threads, "verify", "--format", "json", "--seed", str(seed))
        new = {row["check_id"]: row for row in json.loads(out)}
        moved = []
        for k in {**old, **new}:
            a, b = old.get(k, {}), new.get(k, {})
            if a != b:  # computed always, then every other field that moved
                fields = ["computed"] + [f for f in {**a, **b}
                                         if f != "computed" and a.get(f) != b.get(f)]
                moved.append(f"{k}: " + ", ".join(f"{f} {a.get(f)} -> {b.get(f)}"
                                                  for f in fields))
        assert not moved, f"OPENBLAS_NUM_THREADS={threads} moved " + "; ".join(moved)
        assert out == golden, f"OPENBLAS_NUM_THREADS={threads}: same rows, other bytes"


@pytest.mark.parametrize("seed", range(2, 10))
def test_verify_matches_golden_ledger_in_process(capsys, seed):
    """At the other seeds too the seeded rows pass, so verify prints the
    golden bytes."""
    assert run(capsys, "verify", "--format", "json", "--seed", str(seed)) == (
        0, (GOLDEN / "verify.json").read_text(), "")


def test_verify_passes_the_budget_to_every_quadrature(capsys, monkeypatch):
    budgets = []
    real, real_trapezoid = oracle._adaptive, oracle._trapezoid

    def spy(F, panels, tol, budget):
        budgets.append(budget)
        return real(F, panels, tol, budget)

    def spy_trapezoid(z, F, tol, budget, *args):
        budgets.append(budget)
        return real_trapezoid(z, F, tol, budget, *args)

    monkeypatch.setattr(oracle, "_adaptive", spy)
    monkeypatch.setattr(extremal, "_adaptive", spy)
    monkeypatch.setattr(oracle, "_trapezoid", spy_trapezoid)
    assert run(capsys, "verify", "--budget", "1999999")[0] == 0
    assert budgets == [1999999] * 13


def test_norm_bad_inputs(capsys):
    """A ConfigError prints "config error: ..." wherever it is raised; any
    other ValueError prints "error: ...".  Both exit 2 with one stderr line
    and nothing on stdout."""
    for argv, prefix in ((("norm", "1", "--grid", "linear:5"), "config error: "),
                         (("norm", "pinf", "--p", "oops"), "config error: "),
                         (("norm", "2", "--d-set", "x"), "config error: "),
                         (("norm", "2", "--d-set", ""), "config error: "),
                         (("norm", "rt", "--p", "1.2"), "error: ")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and err.startswith(prefix), (argv, err)
    assert run(capsys, "norm", "2", "--d-set", "")[2] == "config error: invalid --d-set ''\n"


def test_norm_rt_small_p_is_config_error(capsys):
    code, _, err = run(capsys, "norm", "rt", "--p", "1.2")
    assert code == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
