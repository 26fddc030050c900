import csv
import io
import json
import math
from fractions import Fraction

import pytest

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
        with pytest.raises(ConfigError):
            RunConfig(tol_eigen=bad).validate()


# --- subcommands ----------------------------------------------------------------

def test_transform_table(capsys):
    code, out, _ = run(capsys, "transform", "P", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "z̄ - z"
    assert "0 1 1" in lines[0]


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
    code, _, err = run(capsys, "transform", "Q", "w")
    assert code == 2
    assert "unknown operator" in err


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


def test_bad_config_exit2(capsys):
    code, _, err = run(capsys, "--tol-quad", "-1", "verify")
    assert code == 2
    assert "config error" in err
    code, _, err = run(capsys, "verify", "--tol-eigen", "nan")
    assert code == 2
    assert "config error" in err


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


def test_norm_1_output_independent_of_threads(capsys, monkeypatch):
    # thread_cap clamps to the core count, so at most 2 workers start
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DISKT_THREADS", threads)
        code, out, _ = run(capsys, "norm", "1", "--grid", "radial:5", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_norm_bad_inputs(capsys):
    assert run(capsys, "norm", "1", "--grid", "linear:5")[0] == 2
    assert run(capsys, "norm", "pinf", "--p", "oops")[0] == 2
    assert run(capsys, "norm", "rt", "--p", "1.2")[0] == 2


def test_norm_rt_small_p_is_config_error(capsys):
    code, _, err = run(capsys, "norm", "rt", "--p", "1.2")
    assert code == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
