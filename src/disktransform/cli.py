"""Command-line front end.

Subcommands:
  verify      run the verification suite and emit a report
  transform   apply an operator to a polynomial given in the w-grammar
  norm        norm estimation runs (2 | pinf | 1 | rt)

Exit codes: 0 every check passed, 1 at least one check failed, 2 config or
parse error (a ValueError from the computational layers counts as one), 3
any other error during computation, such as an exhausted oracle budget or a
series that did not converge.  Exits 2 and 3 print one "error:" line to
stderr and nothing to stdout.

Report rows carry {check_id, reference, expected, computed, abs_err, tol,
status} with status PASS | FAIL | SKIPPED | CONJECTURE.  Output is
byte-identical across runs for a fixed configuration: fixed seed, fixed
summation orders, no timestamps.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import diskalg, extremal, oracle, spectral, transforms
from .diskalg import DiskPolynomial, ExactScalar
from .specfun import bessel_j, bessel_zero
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
    tol_eigen: float = 1e-10
    seed: int = 0
    fmt: str = "table"
    budget: int = oracle.DEFAULT_BUDGET

    def validate(self):
        if self.max_degree < 0:
            raise ConfigError("--max-degree must be >= 0")
        if not 0 < self.tol_quad < math.inf:
            raise ConfigError("--tol-quad must be positive and finite")
        if not 0 < self.tol_eigen < math.inf:
            raise ConfigError("--tol-eigen must be positive and finite")
        if self.budget <= 0:
            raise ConfigError("--budget must be positive")
        if self.fmt not in ("json", "csv", "table"):
            raise ConfigError("--format must be json, csv or table")


# ---------------------------------------------------------------------------
# polynomial grammar: sum of terms  c * w^m * conj(w)^n
# coefficients: 3, 1.5, i, 2i, (1+2i), (0.5-0.25i); whitespace-insensitive


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "^*+-()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse_imag_unit_maybe(self) -> bool:
        if self.peek()[0] == "name" and self.peek()[1] == "i":
            self.next()
            return True
        return False

    def parse_signed_part(self):
        """[+|-] number ['i']  |  [+|-] 'i'  -> ExactScalar part."""
        sign = 1
        while self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -sign
        t = self.peek()
        if t[0] == "num":
            self.next()
            mag = Fraction(t[1])
            if self.parse_imag_unit_maybe():
                return ExactScalar(0, sign * mag)
            return ExactScalar(sign * mag, 0)
        if t[0] == "name" and t[1] == "i":
            self.next()
            return ExactScalar(0, sign)
        raise PolyParseError(f"expected a number, found {t[1]!r}", t[2])

    def parse_paren_coeff(self) -> ExactScalar:
        self.expect("(")
        total = self.parse_signed_part()
        while self.peek()[0] in "+-":
            total = total + self.parse_signed_part()
        self.expect(")")
        return total

    def parse_exponent(self) -> int:
        if self.peek()[0] == "^":
            self.next()
            t = self.expect("num")
            if "." in t[1]:
                raise PolyParseError("exponent must be an integer", t[2])
            return int(t[1])
        return 1

    def parse_factor(self):
        """Returns (coeff: ExactScalar, m, n)."""
        t = self.peek()
        if t[0] == "num":
            self.next()
            mag = Fraction(t[1])
            if self.parse_imag_unit_maybe():
                return ExactScalar(0, mag), 0, 0
            return ExactScalar(mag), 0, 0
        if t[0] == "(":
            return self.parse_paren_coeff(), 0, 0
        if t[0] == "name":
            if t[1] == "i":
                self.next()
                return ExactScalar(0, 1), 0, 0
            if t[1] == "w":
                self.next()
                return ExactScalar(1), self.parse_exponent(), 0
            if t[1] == "conj":
                self.next()
                self.expect("(")
                u = self.expect("name")
                if u[1] != "w":
                    raise PolyParseError("only conj(w) is supported", u[2])
                self.expect(")")
                return ExactScalar(1), 0, self.parse_exponent()
            raise PolyParseError(f"unknown name {t[1]!r}", t[2])
        raise PolyParseError(f"expected a term, found {t[1]!r}", t[2])

    def parse_term(self):
        coeff, m, n = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            c2, m2, n2 = self.parse_factor()
            coeff = coeff * c2
            m += m2
            n += n2
        return coeff, m, n

    def parse(self) -> DiskPolynomial:
        acc: dict = {}
        sign = 1
        if self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -1
        while True:
            coeff, m, n = self.parse_term()
            if sign < 0:
                coeff = -coeff
            key = (m, n)
            acc[key] = acc.get(key, ExactScalar(0)) + coeff
            t = self.next()
            if t[0] == "end":
                break
            if t[0] == "+":
                sign = 1
            elif t[0] == "-":
                sign = -1
            else:
                raise PolyParseError(f"expected '+' or '-', found {t[1]!r}", t[2])
        return DiskPolynomial(acc)


def parse_poly(text: str) -> DiskPolynomial:
    if not text.strip():
        raise PolyParseError("empty polynomial", 0)
    return _Parser(text).parse()


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
    err = abs(computed - expected)
    status = "PASS" if err <= tol else "FAIL"
    return CheckRow(check_id, reference, _num(float(expected)), _num(float(computed)),
                    _num(float(err)), _num(float(tol)), status)


def _row_bool(check_id, reference, ok: bool) -> CheckRow:
    return CheckRow(check_id, reference, "True", str(bool(ok)), "0" if ok else "1",
                    "0", "PASS" if ok else "FAIL")


def _row_skipped(check_id, reference, why: str) -> CheckRow:
    return CheckRow(check_id, reference, why, "", "", "", "SKIPPED")


# ---------------------------------------------------------------------------
# the verification registry


def _random_exact_poly(rng: random.Random, max_total: int, terms: int) -> DiskPolynomial:
    acc: dict = {}
    for _ in range(terms):
        m = rng.randint(0, max_total)
        n = rng.randint(0, max_total - m)
        c = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        acc[(m, n)] = acc.get((m, n), ExactScalar(0)) + c
    if not acc:
        acc[(0, 0)] = ExactScalar(1)
    return DiskPolynomial(acc)


_BESSEL_TABLE = [2.4048, 3.8317, 5.1356, 6.3802, 7.5883]


def _checks_roots(cfg: RunConfig):
    rows = []
    alpha = spectral.solve_alpha(cfg.tol_eigen if cfg.tol_eigen < 1e-10 else 1e-12)
    delta = spectral.solve_delta()
    lam0 = alpha * alpha
    rows.append(_row("alpha_root", "norm equation root, 3-decimal value 1.086",
                     1.086, alpha, 5e-4))
    res = abs(2 * bessel_j(0, 2 / alpha) - alpha * bessel_j(1, 2 / alpha))
    rows.append(_row("alpha_residual", "root-finder postcondition", 0.0, res, 1e-12))
    rows.append(_row("delta_root", "auxiliary equation root, 3-decimal value 1.841",
                     1.841, delta, 5e-4))
    rows.append(_row("alpha_delta_consistency", "algebraic identity alpha = 2/delta",
                     2 / delta, alpha, 1e-10))
    rows.append(_row("lambda0_value", "squared norm root, 3-decimal value 1.180",
                     1.180, lam0, 5e-4))
    rows.append(_row("fixed_point_Z", "two-component reduction fixed point",
                     lam0, spectral.restricted_Z(lam0), 1e-9))
    for d, ref in enumerate(_BESSEL_TABLE):
        rows.append(_row(f"bessel_zero_j{d}", "first Bessel zero, 4-decimal table",
                         ref, bessel_zero(d), 5e-5))
    return rows


def _checks_spectral(cfg: RunConfig):
    rows = []
    alpha = spectral.solve_alpha()
    if cfg.max_degree >= 10:
        est = spectral.estimate_norm(TransformKind.CauchyTransformP,
                                     spectral.TruncationSpec(cfg.max_degree), cfg.tol_eigen)
        rows.append(_row("norm2_galerkin", "L2 norm estimate vs equation root",
                         alpha, est.value, 1e-3))
        rest = spectral.estimate_norm(
            TransformKind.CauchyTransformP,
            spectral.TruncationSpec(cfg.max_degree, frozenset({1})), cfg.tol_eigen)
        rows.append(_row("norm2_restricted_d1", "single-component bound 2/j0",
                         2 / bessel_zero(0), rest.value, 1e-3))
        lo = 2 / bessel_zero(0)
        hi = math.sqrt(1.5 + 2 / bessel_zero(1) ** 2)
        rows.append(_row_bool("norm2_bracket",
                              f"estimate inside ({lo:.4f}, {hi:.4f})",
                              lo < est.value < hi))
    else:
        why = "requires --max-degree >= 10"
        rows.append(_row_skipped("norm2_galerkin", "L2 norm estimate vs equation root", why))
        rows.append(_row_skipped("norm2_restricted_d1", "single-component bound 2/j0", why))
        rows.append(_row_skipped("norm2_bracket", "estimate inside the step-3 interval", why))
    iso_trunc = spectral.TruncationSpec(min(cfg.max_degree, 8) or 2)
    iso = spectral.estimate_norm(TransformKind.BeurlingH, iso_trunc, cfg.tol_eigen)
    rows.append(_row("beurling_isometry_matrix", "matrix norm of the isometry",
                     1.0, iso.value, 1e-10))
    rows.append(_row("hardy_d1_profile_u1", "exact ratio 1/6 for the constant profile",
                     1 / 6, float(spectral.hardy_ratio(1, [1])), 1e-15))
    return rows


def _checks_exact(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    n_ok = 0
    trials = 20
    for _ in range(trials):
        phi = _random_exact_poly(rng, 6, 5)
        if diskalg.norm_sq(transforms.beurling_H(phi)) == diskalg.norm_sq(phi):
            n_ok += 1
    rows = [_row_bool("isometry_exact_sample",
                      f"exact rational norm equality on {trials} seeded polynomials",
                      n_ok == trials)]
    ident_ok = 0
    for _ in range(trials):
        phi = _random_exact_poly(rng, 6, 5)
        lhs = transforms.cauchy_P(phi)
        rhs = -transforms.cauchy_integral(phi) - transforms.j0_op(diskalg.conjugate(phi))
        if lhs == rhs:
            ident_ok += 1
    rows.append(_row_bool("solution_operator_identity",
                          f"P = -C - J0(conj) on {trials} seeded polynomials",
                          ident_ok == trials))
    phi = _random_exact_poly(rng, 6, 5)
    tphi = transforms.t_hs(phi)
    worst = 0.0
    for k in range(64):
        th = 2 * math.pi * k / 64
        worst = max(worst, abs(diskalg.evaluate(tphi, complex(math.cos(th), math.sin(th))).real))
    rows.append(_row("boundary_real_part", "normalized variant vanishes on the circle",
                     0.0, worst, 1e-12))
    return rows


def _checks_oracle(cfg: RunConfig):
    z = 0.3 + 0.4j
    phi = parse_poly("w^2")
    closed = complex(diskalg.evaluate(transforms.cauchy_integral(phi), z))
    got = oracle.cauchy_eval(phi, z, cfg.tol_quad, cfg.budget)
    err = abs(closed - got.value)
    tol = max(1e-6, 10 * got.err_estimate)
    rows = [CheckRow("oracle_cauchy_w2", "closed form vs centered-polar quadrature",
                     repr(closed), repr(got.value), _num(err), _num(tol),
                     "PASS" if err <= tol else "FAIL")]
    res = oracle.quad_disk(parse_poly("w*conj(w)"), cfg.tol_quad, cfg.budget)
    rows.append(_row("oracle_area_moment", "second moment of the disk is 1/2",
                     0.5, res.value.real, max(1e-8, 10 * res.err_estimate)))
    lhs, rhs = oracle.angular_parseval_check(0.75, 0.6)
    rows.append(_row("angular_mean_series", "circle mean vs coefficient series",
                     rhs, lhs, 1e-8))
    return rows


def _checks_extremal(cfg: RunConfig):
    rows = []
    rows.append(_row("pinf_norm", "closed form 8/pi at p = inf",
                     8 / math.pi, extremal.norm_p_to_inf(math.inf), 1e-12))
    q = 1.0
    from .specfun import gamma
    rows.append(_row("phi_gauss_limit", "comparison function at t = 1, q = 1",
                     2 * gamma(2 - q) / gamma(2 - q / 2) ** 2, extremal.phi_fn(q, 1.0), 1e-8))
    rows.append(_row_bool("phi_monotone_q1", "nondecreasing on a 200-point grid",
                          extremal.monotonicity_scan(1.0, 200)))
    rows.append(_row("riesz_thorin_endpoint", "interpolation bound at p = inf",
                     8 / math.pi, extremal.riesz_thorin_bound(math.inf), 1e-12))
    v1 = extremal.l1_at_zero(5e-6, cfg.budget)
    rows.append(_row("l1_at_zero_elliptic", "radial elliptic form, reference 2.10441",
                     2.10441, v1, 5e-4))
    cx = extremal.counterexample_p2(cfg.budget)
    rows.append(_row("counterexample_norm", "squared L2 norm equals 2/log 2",
                     cx["norm_sq_reference"], cx["norm_sq"], 1e-6))
    rows.append(_row_bool("counterexample_divergence",
                          "annulus integrals strictly increasing over eps = 1e-1..1e-8",
                          cx["strictly_increasing"]))
    return rows


def run_verify(cfg: RunConfig):
    rows = []
    rows.extend(_checks_roots(cfg))
    rows.extend(_checks_spectral(cfg))
    rows.extend(_checks_exact(cfg))
    rows.extend(_checks_oracle(cfg))
    rows.extend(_checks_extremal(cfg))
    return rows


# ---------------------------------------------------------------------------
# output


def emit(rows, fmt: str, stream) -> None:
    fields = ["check_id", "reference", "expected", "computed", "abs_err", "tol", "status"]
    if fmt == "json":
        json.dump([asdict(r) for r in rows], stream, indent=2)
        stream.write("\n")
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

_OPERATOR_ALIASES = {
    "C": TransformKind.CauchyIntegral,
    "J0": TransformKind.J0,
    "J0STAR": TransformKind.J0Star,
    "J0*": TransformKind.J0Star,
    "P": TransformKind.CauchyTransformP,
    "S": TransformKind.BeurlingS,
    "B": TransformKind.BergmanB,
    "H": TransformKind.BeurlingH,
    "T": TransformKind.HengartnerSchoberT,
}


def _resolve_operator(name: str) -> TransformKind:
    for kind in TransformKind:
        if name == kind.value:
            return kind
    key = name.upper()
    if key in _OPERATOR_ALIASES:
        return _OPERATOR_ALIASES[key]
    raise ConfigError(f"unknown operator {name!r}; choose from "
                      + ", ".join(k.value for k in TransformKind))


def cmd_transform(cfg: RunConfig, opname: str, polytext: str, stream) -> int:
    kind = _resolve_operator(opname)
    phi = parse_poly(polytext)
    out = transforms.apply_transform(kind, phi)
    rows = diskalg.to_tuples(out)
    if cfg.fmt == "json":
        json.dump({"operator": kind.value,
                   "rows": [list(r) for r in rows],
                   "pretty": format_poly(out)}, stream, indent=2)
        stream.write("\n")
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
        trunc_dset = None
        if d_set_raw:
            try:
                trunc_dset = frozenset(int(x) for x in d_set_raw.split(","))
            except ValueError:
                raise ConfigError(f"invalid --d-set {d_set_raw!r}") from None
        alpha = spectral.solve_alpha()
        est = spectral.estimate_norm(
            TransformKind.CauchyTransformP,
            spectral.TruncationSpec(cfg.max_degree, trunc_dset), cfg.tol_eigen)
        ref = "full-basis reference value" if trunc_dset is None else "restricted basis (no reference)"
        if trunc_dset is None:
            rows.append(_row("norm2_estimate", ref, alpha, est.value, 1e-3))
        else:
            rows.append(CheckRow("norm2_estimate", ref, "", _num(est.value), "", "", "PASS"))
        rows.append(CheckRow("norm2_residual", "singular-triple residual", "0",
                             _num(est.residual), _num(est.residual), _num(cfg.tol_eigen),
                             "PASS" if est.residual <= cfg.tol_eigen else "FAIL"))
    elif kind == "pinf":
        p = _parse_p(p_raw if p_raw is not None else "inf")
        value = extremal.norm_p_to_inf(p)
        pair = extremal.ExponentPair(p)
        # independent route: series value at t = 1 instead of the gamma form
        phi1 = extremal.phi_fn(pair.q, 1.0)
        check = 2.0 * (phi1 / 2.0) ** (1.0 / pair.q)
        rows.append(_row("pinf_closed_form", "cross-check through the t = 1 series limit",
                         check, value, 1e-8))
        if math.isinf(p):
            rows.append(_row("pinf_reference", "8/pi", 8 / math.pi, value, 1e-12))
    elif kind == "1":
        grid = _parse_grid(grid_raw if grid_raw is not None else "radial:5")
        ref = extremal.l1_at_zero(5e-6, cfg.budget)
        scan = extremal.l1_integrand_scan(grid, max(cfg.tol_quad, 1e-5), cfg.budget)
        best = max(range(len(scan)), key=lambda i: scan[i][1])
        for w, val, err in scan:
            rows.append(CheckRow(f"l1_F_at_{w.real:g}{w.imag:+g}i",
                                 "kernel integral by singular quadrature", "",
                                 _num(val), _num(err), "", "PASS"))
        # radial grids always start at the origin
        rows.append(_row("l1_zero_consistency", "scan at w = 0 vs radial elliptic form",
                         ref, scan[0][1], 2e-4))
        wb = scan[best][0]
        rows.append(CheckRow("l1_argmax", "supremum location is unproven",
                             "w = 0 (conjectured)", f"w = {wb.real:g}{wb.imag:+g}i",
                             "", "", "CONJECTURE"))
    elif kind == "rt":
        p = _parse_p(p_raw if p_raw is not None else "4")
        bound = extremal.riesz_thorin_bound(p)
        alpha = spectral.solve_alpha()
        w = 0.0 if math.isinf(p) else 2.0 / p
        rows.append(_row("riesz_thorin_bound", "interpolation between p = 2 and p = inf",
                         alpha**w * (8 / math.pi) ** (1 - w), bound, 1e-12))
    else:
        raise ConfigError(f"unknown norm kind {kind!r}; choose 2, pinf, 1 or rt")
    emit(rows, cfg.fmt, stream)
    return _exit_code(rows)


# ---------------------------------------------------------------------------


def _add_global_flags(ap, suppress: bool):
    # SUPPRESS on the subcommand copies so an unset flag there never
    # clobbers a value parsed before the subcommand
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--max-degree", type=int, default=d(20), dest="max_degree")
    ap.add_argument("--tol-quad", type=float, default=d(1e-8), dest="tol_quad")
    ap.add_argument("--tol-eigen", type=float, default=d(1e-10), dest="tol_eigen")
    ap.add_argument("--seed", type=int, default=d(0))
    ap.add_argument("--format", choices=("json", "csv", "table"),
                    default=d("table"), dest="fmt")
    ap.add_argument("--budget", type=int, default=d(oracle.DEFAULT_BUDGET))


def build_parser() -> argparse.ArgumentParser:
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
                    tol_eigen=ns.tol_eigen, seed=ns.seed, fmt=ns.fmt, budget=ns.budget)
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = io.StringIO()
    try:
        if ns.command == "verify":
            rows = run_verify(cfg)
            emit(rows, cfg.fmt, out)
            code = _exit_code(rows)
        elif ns.command == "transform":
            code = cmd_transform(cfg, ns.operator, ns.poly, out)
        else:
            code = cmd_norm(cfg, ns.kind, ns.p, ns.grid, ns.d_set, out)
    except (ConfigError, PolyParseError, ValueError) as exc:
        # parameter validation from the computational layer counts as
        # config misuse at the CLI boundary
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
