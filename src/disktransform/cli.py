"""Command-line front end.

Subcommands:
  verify      run the verification suite and emit a report
  transform   apply an operator to a polynomial given in the w-grammar
  norm        norm estimation runs (2 | pinf | 1 | rt); the rt row checks that
              the interpolation bound lies between alpha and 8/pi

Exit codes: 0 every check passed, 1 at least one check failed, 2 config or
parse error (a ValueError from the computational layers counts as one), 3
any other error during computation, such as an exhausted oracle budget or a
series that did not converge.  Exits 2 and 3 print nothing to stdout; stderr
gets one "config error: ..." line for every ConfigError (a flag, operator,
exponent, grid or d-set value the CLI rejects), argparse's usage text and a
"diskt: error: ..." line for a malformed command line, and one "error: ..."
line otherwise.

Report rows carry {check_id, reference, expected, computed, abs_err, tol,
status} with status PASS | FAIL | SKIPPED | CONJECTURE.  Output is
byte-identical across runs for a fixed configuration: fixed seed, fixed
summation orders, no timestamps.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import diskalg, extremal, oracle, spectral, transforms
from .diskalg import DiskPolynomial, ExactScalar
from .specfun import bessel_j, bessel_zero, gamma
from .transforms import TransformKind

__all__ = ["main", "RunConfig", "ConfigError", "PolyParseError", "parse_poly", "format_poly"]


class ConfigError(ValueError):
    pass


class PolyParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (column {pos + 1})")
        self.column = pos + 1


@dataclass(frozen=True)
class RunConfig:
    max_degree: int = 20
    tol_quad: float = 1e-8
    seed: int = 0
    fmt: str = "table"
    budget: int = oracle.DEFAULT_BUDGET

    def validate(self):
        if not 0 <= self.max_degree <= spectral.MAX_TOTAL_DEGREE:
            raise ConfigError(f"--max-degree must be in [0, {spectral.MAX_TOTAL_DEGREE}]")
        if not 0 < self.tol_quad < math.inf:
            raise ConfigError("--tol-quad must be positive and finite")
        if self.budget <= 0:
            raise ConfigError("--budget must be positive")
        if self.fmt not in ("json", "csv", "table"):
            raise ConfigError("--format must be json, csv or table")


# ---------------------------------------------------------------------------
# polynomial grammar: sum of terms  c * w^m * conj(w)^n
# coefficients: 3, 1.5, i, 2i, (1+2i), (0.5-0.25i); whitespace-insensitive

_TOKEN = re.compile(r"(?P<num>[0-9]+\.?[0-9]*|\.[0-9]+)|(?P<name>[A-Za-z]+)"
                    r"|(?P<op>[-^*+()])|(?P<bad>\S)")


def parse_poly(text: str) -> DiskPolynomial:
    """Parse the w-grammar (ASCII only); every error, an unexpected
    character included, is a PolyParseError naming its 1-based column."""
    if not text.strip():
        raise PolyParseError("empty polynomial", 0)
    toks = []  # (kind, text, position); an operator is its own kind
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise PolyParseError(f"unexpected character {m[0]!r}", m.start())
        toks.append((m[0] if m.lastgroup == "op" else m.lastgroup, m[0], m.start()))
    toks.append(("end", "", len(text)))
    k = 0

    def take(*kinds, word=None):
        """Consume and return the next token if it matches, else None."""
        nonlocal k
        t = toks[k]
        hit = t[0] in kinds and (word is None or t[1] == word)
        k += hit
        return t if hit else None

    def expected(what):
        raise PolyParseError(f"expected {what}, found {toks[k][1]!r}", toks[k][2])

    def scalar():
        """num [i] | i, or None when neither is next."""
        t = take("num")
        if t is None:
            return ExactScalar(0, 1) if take("name", word="i") else None
        mag = Fraction(t[1])
        return ExactScalar(0, mag) if take("name", word="i") else ExactScalar(mag)

    def signed_scalar():
        negative = False
        while t := take("+", "-"):
            negative ^= t[0] == "-"
        s = scalar()
        if s is None:
            expected("a number")
        return -s if negative else s

    def factor():  # -> (coefficient, m, n)
        s = scalar()
        if s is not None:
            return s, 0, 0
        if take("("):
            s = signed_scalar()
            while toks[k][0] in ("+", "-"):
                s = s + signed_scalar()
            take(")") or expected("')'")
            return s, 0, 0
        t = take("name") or expected("a term")
        if t[1] == "conj":
            take("(") or expected("'('")
            u = take("name") or expected("'name'")
            if u[1] != "w":
                raise PolyParseError("only conj(w) is supported", u[2])
            take(")") or expected("')'")
        elif t[1] != "w":
            raise PolyParseError(f"unknown name {t[1]!r}", t[2])
        power = 1
        if take("^"):
            e = take("num") or expected("'num'")
            if "." in e[1]:
                raise PolyParseError("exponent must be an integer", e[2])
            power = int(e[1])
        return (ExactScalar(1), 0, power) if t[1] == "conj" else (ExactScalar(1), power, 0)

    acc: dict = {}
    sign = take("+", "-")  # one optional leading sign, then one between terms
    while True:
        coeff, m, n = factor()
        while take("*"):
            c, m2, n2 = factor()
            coeff, m, n = coeff * c, m + m2, n + n2
        if sign and sign[0] == "-":
            coeff = -coeff
        acc[m, n] = acc.get((m, n), ExactScalar(0)) + coeff
        if take("end"):
            return DiskPolynomial(acc)
        sign = take("+", "-") or expected("'+' or '-'")


# ---------------------------------------------------------------------------
# polynomial printing: human-readable z / z-bar form

_ZBAR = "z̄"


def _fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_coeff(a: ExactScalar, lead_unit_ok: bool):
    """Returns (sign, body) where body omits a unit magnitude when the
    monomial part is nonempty (lead_unit_ok False)."""
    if a.im == 0:
        mag = abs(a.re)
        sign = "-" if a.re < 0 else "+"
        if mag == 1 and not lead_unit_ok:
            return sign, ""
        return sign, _fmt_fraction(mag)
    if a.re == 0:
        mag = abs(a.im)
        sign = "-" if a.im < 0 else "+"
        body = "i" if mag == 1 else f"{_fmt_fraction(mag)}i"
        return sign, body
    return "+", f"({_fmt_fraction(a.re)}{'+' if a.im > 0 else '-'}{_fmt_fraction(abs(a.im))}i)"


def format_poly(phi: DiskPolynomial) -> str:
    if len(phi) == 0:
        return "0"
    parts = []
    for (m, n) in sorted(phi.coeffs, key=lambda t: (-(t[0] + t[1]), t[0], t[1])):
        a = phi.coeffs[(m, n)]
        monos = []
        if m:
            monos.append("z" if m == 1 else f"z^{m}")
        if n:
            monos.append(_ZBAR if n == 1 else f"{_ZBAR}^{n}")
        sign, body = _fmt_coeff(a, lead_unit_ok=not monos)
        piece = " ".join(([body] if body else []) + monos)
        parts.append((sign, piece))
    first_sign, first_piece = parts[0]
    out = ("-" if first_sign == "-" else "") + first_piece
    for sign, piece in parts[1:]:
        out += f" {sign} {piece}"
    return out


# ---------------------------------------------------------------------------
# report rows


@dataclass
class CheckRow:
    check_id: str
    reference: str
    expected: str
    computed: str
    abs_err: str
    tol: str
    status: str


def _num(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(check_id, reference, expected, computed, tol) -> CheckRow:
    """PASS when |computed - expected| <= tol: the one rule of the ledger."""
    err = abs(computed - expected)
    return CheckRow(check_id, reference, _num(expected), _num(computed), _num(err),
                    _num(tol), "PASS" if err <= tol else "FAIL")


def _row_bool(check_id, reference, ok: bool) -> CheckRow:
    return _row(check_id, reference, True, bool(ok), 0)


def _row_report(check_id, reference, expected, computed="", abs_err="",
                status="PASS") -> CheckRow:
    """A row that states without checking: a report, a CONJECTURE or a SKIPPED."""
    return CheckRow(check_id, reference, expected, _num(computed), _num(abs_err), "", status)


# ---------------------------------------------------------------------------
# the verification ledger


def _dense_exact_poly(rng: random.Random) -> DiskPolynomial:
    """All 28 monomials z^m zbar^n with m + n <= 6, each with the coefficient
    p/q + (r/s) i, so no coefficient, real part or imaginary part is 0.

    |p|, q, |r| and s are 112 digits 1..9 from one rng.choices call, four per
    monomial in the order of the keys, and the signs of p and r are bits 2i
    and 2i + 1 of one rng.getrandbits(56) for the i-th monomial."""
    digits = rng.choices(range(1, 10), k=112)
    signs = rng.getrandbits(56)
    acc = {}
    for i, key in enumerate((m, k - m) for k in range(7) for m in range(k + 1)):
        p, q, r, s = digits[4 * i:4 * i + 4]
        if signs >> 2 * i & 1:
            p = -p
        if signs >> 2 * i + 1 & 1:
            r = -r
        acc[key] = ExactScalar(p * s, r * q).scaled(1, q * s)
    return DiskPolynomial(acc)


def _real_part_vanishes_on_circle(phi: DiskPolynomial) -> bool:
    """Re phi = 0 on |z| = 1, decided exactly on the coefficients.

    On the circle z^m zbar^n = e^{i d theta} with d = m - n, so phi is the
    Laurent series sum c_d e^{i d theta}, c_d the sum of the coefficients of
    degree d.  Its real part vanishes iff c_-d + conj(c_d) = 0 for every d.
    Each c_d is summed as unreduced int fields (x + y i)/g, and with
    c_-d = (u + v i)/h the test is u g + x h = 0 and v g - y h = 0."""
    by_degree: dict = {}
    for (m, n), a in phi.items():
        x, y, g = by_degree.get(m - n, (0, 0, 1))
        by_degree[m - n] = x * a._d + a._a * g, y * a._d + a._b * g, g * a._d
    for d, (x, y, g) in by_degree.items():
        u, v, h = by_degree.get(-d, (0, 0, 1))
        if u * g + x * h or v * g - y * h:
            return False
    return True


_BESSEL_TABLE = [2.4048, 3.8317, 5.1356, 6.3802, 7.5883]


def run_verify(cfg: RunConfig):
    """The ledger rows in order; alpha, delta, the Bessel zeros and the
    Galerkin estimates are each computed once and shared between rows.

    Four bool rows are exact certificates: phi_monotone_q1 (phi's
    derivative identity term by term at q = 1), and on the same two seeded
    polynomials from _dense_exact_poly the isometry, the solution operator
    identity and boundary_real_part (T's Laurent coefficients on the
    circle, c_-d + conj(c_d) = 0, decided on unreduced int fields).  The
    seed picks the coefficients only, and every seeded row is a bool, so
    --seed moves no output byte; the tests hold the seeded rows at seeds
    0-9.  beurling_isometry_matrix holds B^T B = I on every Galerkin block
    of H at --max-degree.  The five Bessel zeros each sum J_d and J_{d+1}
    in one fixed-point loop per Newton step (specfun._bessel_j_fixed)."""
    j = [bessel_zero(d) for d in range(len(_BESSEL_TABLE))]
    alpha = spectral.solve_alpha()
    delta = spectral.solve_delta()
    lam0 = alpha * alpha
    rows = [
        _row("alpha_root", "norm equation root, 3-decimal value 1.086", 1.086, alpha, 5e-4),
        _row("alpha_residual", "root-finder postcondition", 0.0,
             abs(2 * bessel_j(0, 2 / alpha) - alpha * bessel_j(1, 2 / alpha)), 1e-12),
        _row("delta_root", "auxiliary equation root, 3-decimal value 1.841", 1.841, delta, 5e-4),
        _row("alpha_delta_consistency", "algebraic identity alpha = 2/delta",
             2 / delta, alpha, 1e-10),
        _row("lambda0_value", "squared norm root, 3-decimal value 1.180", 1.180, lam0, 5e-4),
        _row("fixed_point_Z", "two-component reduction fixed point",
             lam0, spectral.restricted_Z(lam0), 1e-9),
        *(_row(f"bessel_zero_j{d}", "first Bessel zero, 4-decimal table", ref, j[d], 5e-5)
          for d, ref in enumerate(_BESSEL_TABLE)),
    ]

    if cfg.max_degree >= 10:
        est = spectral.estimate_norm(cfg.max_degree).value
        rest = spectral.estimate_norm(cfg.max_degree, {1}).value
        lo, hi = 2 / j[0], math.sqrt(1.5 + 2 / j[1] ** 2)
        rows += [
            _row("norm2_galerkin", "L2 norm estimate vs equation root", alpha, est, 1e-3),
            _row("norm2_restricted_d1", "single-component bound 2/j0", lo, rest, 1e-3),
            _row_bool("norm2_bracket", f"estimate inside ({lo:.4f}, {hi:.4f})", lo < est < hi),
        ]
    else:
        why = "requires --max-degree >= 10"
        rows += [_row_report(check_id, reference, why, status="SKIPPED")
                 for check_id, reference in (
                     ("norm2_galerkin", "L2 norm estimate vs equation root"),
                     ("norm2_restricted_d1", "single-component bound 2/j0"),
                     ("norm2_bracket", "estimate inside the step-3 interval"))]
    rng = random.Random(cfg.seed)
    samples = [_dense_exact_poly(rng) for _ in range(2)]
    isometric = all(diskalg.norm_sq(transforms.beurling_H(phi)) == diskalg.norm_sq(phi)
                    for phi in samples)
    identity = all(transforms.cauchy_P(phi) == -transforms.cauchy_integral(phi)
                   - transforms.j0_op(diskalg.conjugate(phi))
                   for phi in samples)
    boundary = all(_real_part_vanishes_on_circle(transforms.t_hs(phi)) for phi in samples)

    z = 0.3 + 0.4j
    w2 = parse_poly("w^2")
    closed = complex(diskalg.evaluate(transforms.cauchy_integral(w2), z))
    got = oracle.cauchy_eval(w2, z, cfg.tol_quad, cfg.budget)
    area = oracle.quad_disk(parse_poly("w*conj(w)"), cfg.tol_quad, cfg.budget)
    mean, series = oracle.angular_parseval_check(0.75, 0.6, budget=cfg.budget)
    cx = extremal.counterexample_p2(cfg.budget)
    return rows + [
        _row("beurling_isometry_matrix", "max |B^T B - I| over H's Galerkin blocks",
             0.0, spectral._isometry_defect(cfg.max_degree), 1e-13),
        _row("hardy_d1_profile_u1", "exact ratio 1/6 for the constant profile",
             1 / 6, float(spectral.hardy_ratio(1, [1])), 1e-15),
        _row_bool("isometry_exact_sample",
                  "exact rational norm equality on 2 seeded polynomials with all 28 "
                  "monomials of degree <= 6", isometric),
        _row_bool("solution_operator_identity",
                  "P = -C - J0(conj) on 2 seeded polynomials with all 28 monomials of "
                  "degree <= 6", identity),
        _row_bool("boundary_real_part",
                  "Re T = 0 on |z| = 1: c_-d + conj(c_d) = 0 for every angular degree d",
                  boundary),
        _row("oracle_cauchy_w2", "closed form vs centered-polar quadrature",
             closed, got.value, max(1e-6, 10 * got.err_estimate)),
        _row("oracle_area_moment", "second moment of the disk is 1/2",
             0.5, area.value.real, max(1e-8, 10 * area.err_estimate)),
        _row("angular_mean_series", "circle mean vs coefficient series", series, mean, 1e-8),
        _row("pinf_norm", "closed form 8/pi at p = inf",
             8 / math.pi, extremal.norm_p_to_inf(math.inf), 1e-12),
        _row("phi_gauss_limit", "comparison function at t = 1, q = 1",
             2 * gamma(1.0) / gamma(1.5) ** 2, extremal.phi_fn(1.0, 1.0), 1e-8),
        _row_bool("phi_monotone_q1",
                  "phi' = (q/2) F(q/2+1, q/2; 2; t) (t^(q/2-1) - 1) >= 0 by DLMF 15.5.1 "
                  "and 15.5.3; exact at q = 1 to order 40", extremal._phi_monotone_q1()),
        _row("riesz_thorin_endpoint", "interpolation bound at p = inf",
             8 / math.pi, extremal.riesz_thorin_bound(math.inf), 1e-12),
        _row("l1_at_zero_elliptic", "radial elliptic form, reference 2.10441",
             2.10441, extremal.l1_at_zero(5e-6, cfg.budget), 5e-6),
        _row("counterexample_norm", "squared L2 norm equals 2/log 2",
             cx["norm_sq_reference"], cx["norm_sq"], 1e-6),
        _row_bool("counterexample_divergence",
                  "annulus integrals strictly increasing over eps = 1e-1..1e-8",
                  cx["strictly_increasing"]),
    ]


# ---------------------------------------------------------------------------
# output


def emit(rows, fmt: str, stream) -> None:
    fields = ["check_id", "reference", "expected", "computed", "abs_err", "tol", "status"]
    if fmt == "json":
        stream.write(json.dumps([{f: getattr(r, f) for f in fields} for r in rows],
                                indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(fields)
        for r in rows:
            writer.writerow([getattr(r, f) for f in fields])
    else:
        widths = [max(len(f), max((len(getattr(r, f)) for r in rows), default=0))
                  for f in fields]
        header = "  ".join(f.ljust(w) for f, w in zip(fields, widths))
        stream.write(header.rstrip() + "\n")
        stream.write("-" * len(header.rstrip()) + "\n")
        for r in rows:
            line = "  ".join(getattr(r, f).ljust(w) for f, w in zip(fields, widths))
            stream.write(line.rstrip() + "\n")


def _exit_code(rows) -> int:
    return 1 if any(r.status == "FAIL" for r in rows) else 0


# ---------------------------------------------------------------------------
# subcommands

# every TransformKind by its value, and short names; a name not found as
# given is looked up upper-cased
_OPERATORS = {kind.value: kind for kind in TransformKind} | {
    "C": TransformKind.CauchyIntegral,
    "J0STAR": TransformKind.J0Star,
    "J0*": TransformKind.J0Star,
    "P": TransformKind.CauchyTransformP,
    "S": TransformKind.BeurlingS,
    "B": TransformKind.BergmanB,
    "H": TransformKind.BeurlingH,
    "T": TransformKind.HengartnerSchoberT,
}


def _resolve_operator(name: str) -> TransformKind:
    kind = _OPERATORS.get(name, _OPERATORS.get(name.upper()))
    if kind is None:
        raise ConfigError(f"unknown operator {name!r}; choose from "
                          + ", ".join(k.value for k in TransformKind))
    return kind


def cmd_transform(cfg: RunConfig, opname: str, polytext: str, stream) -> int:
    kind = _resolve_operator(opname)
    phi = parse_poly(polytext)
    out = transforms.apply_transform(kind, phi)
    rows = diskalg.to_tuples(out)
    if cfg.fmt == "json":
        stream.write(json.dumps({"operator": kind.value,
                                 "rows": [list(r) for r in rows],
                                 "pretty": format_poly(out)}, indent=2) + "\n")
    elif cfg.fmt == "csv":
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(["m", "n", "re", "im"])
        for r in rows:
            writer.writerow([_num(x) for x in r])
    else:
        for m, n, re_, im_ in rows:
            stream.write(f"{m} {n} {_num(re_)} {_num(im_)}\n")
        stream.write(format_poly(out) + "\n")
    return 0


def _parse_p(raw: str) -> float:
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"invalid exponent {raw!r}") from None


def _parse_grid(raw: str):
    if raw.startswith("radial:"):
        try:
            k = int(raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"invalid grid spec {raw!r}") from None
        if k < 1:
            raise ConfigError("radial grid needs at least one point")
        if k == 1:
            return [0j]
        return [complex(0.8 * j / (k - 1), 0.0) for j in range(k)]
    raise ConfigError(f"unknown grid spec {raw!r}; use radial:<count>")


def cmd_norm(cfg: RunConfig, kind: str, p_raw, grid_raw, d_set_raw, stream) -> int:
    rows = []
    if kind == "2":
        d_set = None
        if d_set_raw is not None:
            try:
                d_set = {int(x) for x in d_set_raw.split(",")}
            except ValueError:
                raise ConfigError(f"invalid --d-set {d_set_raw!r}") from None
        est = spectral.estimate_norm(cfg.max_degree, d_set)
        if d_set is None:
            rows.append(_row("norm2_estimate", "full-basis reference value",
                             spectral.solve_alpha(), est.value, 1e-3))
        else:
            rows.append(_row_report("norm2_estimate", "restricted basis (no reference)", "",
                                    est.value))
        rows.append(_row("norm2_residual", "singular-triple residual",
                         0, est.residual, 1e-10))
    elif kind == "pinf":
        p = _parse_p(p_raw if p_raw is not None else "inf")
        value = extremal.norm_p_to_inf(p)
        q = extremal.ExponentPair(p).q
        # independent route: series value at t = 1 instead of the gamma form
        check = 2.0 * (extremal.phi_fn(q, 1.0) / 2.0) ** (1.0 / q)
        rows.append(_row("pinf_closed_form", "cross-check through the t = 1 series limit",
                         check, value, 1e-8))
        if math.isinf(p):
            rows.append(_row("pinf_reference", "8/pi", 8 / math.pi, value, 1e-12))
    elif kind == "1":
        grid = _parse_grid(grid_raw if grid_raw is not None else "radial:5")
        ref = extremal.l1_at_zero(5e-6, cfg.budget)
        scan = extremal.l1_integrand_scan(grid, max(cfg.tol_quad, 1e-5), cfg.budget)
        rows += [_row_report(f"l1_F_at_{w.real:g}{w.imag:+g}i",
                             "kernel integral by singular quadrature", "", val, err)
                 for w, val, err in scan]
        # radial grids always start at the origin
        rows.append(_row("l1_zero_consistency", "scan at w = 0 vs radial elliptic form",
                         ref, scan[0][1], 2e-4))
        wb = max(scan, key=lambda s: s[1])[0]
        rows.append(_row_report("l1_argmax", "supremum location is unproven",
                                "w = 0 (conjectured)", f"w = {wb.real:g}{wb.imag:+g}i",
                                status="CONJECTURE"))
    elif kind == "rt":
        p = _parse_p(p_raw if p_raw is not None else "4")
        bound = extremal.riesz_thorin_bound(p)
        rows.append(_row_bool("riesz_thorin_bound", f"alpha <= {bound!r} <= 8/pi",
                              spectral.solve_alpha() <= bound <= 8 / math.pi))
    else:
        raise ConfigError(f"unknown norm kind {kind!r}; choose 2, pinf, 1 or rt")
    emit(rows, cfg.fmt, stream)
    return _exit_code(rows)


# ---------------------------------------------------------------------------


def _add_global_flags(ap, suppress: bool):
    # the defaults are RunConfig's; SUPPRESS on the subcommand copies so an
    # unset flag there never clobbers a value parsed before the subcommand
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--max-degree", type=int, default=d(RunConfig.max_degree), dest="max_degree")
    ap.add_argument("--tol-quad", type=float, default=d(RunConfig.tol_quad), dest="tol_quad")
    ap.add_argument("--seed", type=int, default=d(RunConfig.seed))
    ap.add_argument("--format", choices=("json", "csv", "table"),
                    default=d(RunConfig.fmt), dest="fmt")
    ap.add_argument("--budget", type=int, default=d(RunConfig.budget))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The diskt parser, built once per process; parse_args leaves no state
    in it."""
    ap = argparse.ArgumentParser(
        prog="diskt",
        description="Closed-form disk transforms with quadrature and spectral verification.")
    _add_global_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the verification suite", parents=[common])
    tp = sub.add_parser("transform", help="apply an operator to a polynomial",
                        parents=[common])
    tp.add_argument("operator")
    tp.add_argument("poly")
    np_ = sub.add_parser("norm", help="norm estimation runs", parents=[common])
    np_.add_argument("kind", choices=("2", "pinf", "1", "rt"))
    np_.add_argument("--p", dest="p", default=None)
    np_.add_argument("--grid", dest="grid", default=None)
    np_.add_argument("--d-set", dest="d_set", default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = RunConfig(max_degree=ns.max_degree, tol_quad=ns.tol_quad,
                    seed=ns.seed, fmt=ns.fmt, budget=ns.budget)
    out = io.StringIO()
    try:
        cfg.validate()
        if ns.command == "verify":
            rows = run_verify(cfg)
            emit(rows, cfg.fmt, out)
            code = _exit_code(rows)
        elif ns.command == "transform":
            code = cmd_transform(cfg, ns.operator, ns.poly, out)
        else:
            code = cmd_norm(cfg, ns.kind, ns.p, ns.grid, ns.d_set, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # PolyParseError and parameter validation from the computational
        # layer count as misuse at the CLI boundary too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not look like a check FAIL (exit 1)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
