"""The three benchmark workloads.

Each workload turns the benchmark seed into inputs and splits its work into
passes of ops.  An op has a `run` callable, the only part that is timed, and
a `check` that validates the result afterwards, outside the timed interval,
and records the computed values that are printed beside the timings.  A
result outside its documented tolerance raises CheckFailed.

Layer functions are always called through their module (``oracle.quad_disk``,
never a from-imported name), so that the traced run sees every call.
"""
from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np

from disktransform import cli, diskalg, extremal, oracle, specfun, transforms
from disktransform.diskalg import DiskPolynomial, ExactScalar
from disktransform.extremal import ExponentPair


class CheckFailed(Exception):
    """An op's result is outside its documented tolerance."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def run_cli(argv) -> tuple:
    """`diskt <argv>` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli_rows(result, allowed=("PASS",)) -> dict:
    code, out = result
    _require(code == 0, f"exit code {code}")
    rows = json.loads(out)
    bad = [r["check_id"] for r in rows if r["status"] not in allowed]
    _require(not bad, f"rows not {'/'.join(allowed)}: {bad}")
    return {r["check_id"]: r for r in rows}


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


class Ledger:
    """`diskt verify --format json --seed S` with the default configuration."""

    name = "ledger"

    def __init__(self, seed: int):
        self.argv = ("verify", "--format", "json", "--seed", str(seed))
        self.params = {"argv": list(self.argv)}
        self.values: dict = {}
        self.digest = None

    def pass_ops(self, index: int) -> list:
        return [Op("verify", partial(run_cli, self.argv), self._check)]

    def _check(self, result) -> None:
        rows = _cli_rows(result, allowed=("PASS", "SKIPPED"))
        digest = hashlib.sha256(result[1].encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        # determinism contract: every repeat of one seed prints the same bytes
        _require(digest == self.digest, "stdout differs from the first repeat of this seed")
        statuses = [r["status"] for r in rows.values()]
        self.values.update(rows=len(rows), skipped=statuses.count("SKIPPED"),
                           stdout_sha256=digest,
                           alpha=float(rows["alpha_root"]["computed"]),
                           norm2_galerkin=float(rows["norm2_galerkin"]["computed"]))

    def final_ops(self) -> list:
        """`diskt norm 1` must print the same bytes under DISKT_THREADS=1 and
        DISKT_THREADS=2 (capped at the core count)."""
        return [Op("norm1_threads", self._norm1_by_threads, self._check_threads)]

    def _norm1_by_threads(self) -> dict:
        out = {}
        for threads in sorted({1, min(2, os.cpu_count() or 1)}):
            with _env("DISKT_THREADS", str(threads)):
                out[threads] = run_cli(("norm", "1", "--grid", "radial:5", "--format", "json"))
        return out

    def _check_threads(self, outputs: dict) -> None:
        for result in outputs.values():
            _cli_rows(result, allowed=("PASS", "CONJECTURE"))
        _require(len({out for _, out in outputs.values()}) == 1,
                 "norm 1 output depends on DISKT_THREADS")
        self.values["norm1_threads_compared"] = sorted(outputs)


def _random_poly(rng: random.Random, max_total: int, terms: int) -> DiskPolynomial:
    """Exact rational coefficients, the same shape as the ledger's samples."""
    acc: dict = {}
    for _ in range(terms):
        m = rng.randint(0, max_total)
        n = rng.randint(0, max_total - m)
        c = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        acc[(m, n)] = acc.get((m, n), ExactScalar(0)) + c
    acc = {k: v for k, v in acc.items() if v != ExactScalar(0)}
    return DiskPolynomial(acc or {(0, 0): ExactScalar(1)})


class Quadrature:
    """Closed form against the quadrature oracle for C, S and B at seeded
    polynomials and points.

    A pass is STRATA ops whose points are area-uniform on |z| <= R_MAX, one
    in each of STRATA equal-area rings in shuffled order.  The cost of an op
    grows towards the boundary, so stratifying keeps the radial mix, and
    with it the latency tail, the same from seed to seed."""

    name = "quadrature"
    MAX_TOTAL = 8
    TERMS = 6
    R_MAX = 0.95
    STRATA = 16
    TOL_C = 1e-8
    TOL_S = 1e-8
    TOL_B = 1e-9
    AGREE = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self.params = {"max_total_degree": self.MAX_TOTAL, "terms": self.TERMS,
                       "r_max": self.R_MAX, "strata": self.STRATA, "tol_c": self.TOL_C,
                       "tol_s": self.TOL_S, "tol_b": self.TOL_B, "agree": self.AGREE}
        self.values: dict = {"worst_abs_diff": 0.0, "oracle_evals_max": 0}

    def inputs(self, index: int) -> list:
        rng = random.Random(f"quadrature/{self.seed}/{index}")
        out = []
        for ring in rng.sample(range(self.STRATA), self.STRATA):
            phi = _random_poly(rng, self.MAX_TOTAL, self.TERMS)
            r = self.R_MAX * math.sqrt((ring + rng.random()) / self.STRATA)
            out.append((ring, phi, cmath.rect(r, 2 * math.pi * rng.random())))
        return out

    def pass_ops(self, index: int) -> list:
        return [Op(f"agree.ring{ring}", partial(self._agree, phi, z), self._check)
                for ring, phi, z in self.inputs(index)]

    def _agree(self, phi: DiskPolynomial, z: complex) -> tuple:
        def bergman_integrand(w):
            return diskalg.evaluate(phi, w) / (1 - z * np.conj(w)) ** 2

        pairs = (
            (transforms.cauchy_integral, oracle.cauchy_eval(phi, z, self.TOL_C)),
            (transforms.beurling_S, oracle.pv_beurling_eval(phi, z, self.TOL_S)),
            (transforms.bergman_B, oracle.quad_disk(bergman_integrand, self.TOL_B)),
        )
        diffs = [abs(complex(diskalg.evaluate(closed(phi), z)) - res.value)
                 for closed, res in pairs]
        return diffs, sum(res.evaluations for _, res in pairs)

    def _check(self, result) -> None:
        diffs, evals = result
        worst = max(diffs)
        self.values["worst_abs_diff"] = max(self.values["worst_abs_diff"], worst)
        self.values["oracle_evals_max"] = max(self.values["oracle_evals_max"], evals)
        _require(worst <= self.AGREE, f"closed form and oracle differ by {worst:.3e}")


# first positive zero j_{d,1} of J_d to four decimals, d = 0..20
BESSEL_ZEROS = (2.4048, 3.8317, 5.1356, 6.3802, 7.5883, 8.7715, 9.9361, 11.0864,
                12.2251, 13.3543, 14.4755, 15.5898, 16.6982, 17.8014, 18.9000,
                19.9944, 21.0851, 22.1725, 23.2568, 24.3382, 25.4171)


class Profiles:
    """The extremal toolkit's scalar profiles, all special-function work.
    Deterministic: the seed is unused.

    One op is one profile call: a monotonicity scan, phi near t = 1 at one q
    (t = 1 - 10^-k for every k), one Bessel zero, l1_at_zero, the p -> inf
    cross-check (every p) or the counterexample.  Taking phi's three points
    at one q as one op puts the median op among the scans and the middle
    Bessel zeros, whose costs lie close together, instead of at the gap
    below them, where it jumped from run to run."""

    name = "profiles"
    SCAN_Q = (1.0, 1.2, 1.5, 1.9)
    SCAN_GRID = 200
    PHI_Q = (1.2, 1.5, 1.9)
    PHI_K = (2, 3, 4)            # t = 1 - 10^-k
    ZERO_AGREE = 5e-5            # half a unit in the table's last digit
    L1_TOL = 1e-6
    L1_REF = 2.10441
    L1_AGREE = 5e-4
    PINF_P = (math.inf, 4.0)
    PINF_AGREE = 1e-8
    GAP = 1e-6
    MONOTONE_SLACK = 1e-10

    def __init__(self, seed: int):
        self.params = {"scan_q": list(self.SCAN_Q), "scan_grid": self.SCAN_GRID,
                       "phi_q": list(self.PHI_Q), "phi_k": list(self.PHI_K),
                       "bessel_orders": [0, len(BESSEL_ZEROS) - 1], "l1_tol": self.L1_TOL,
                       "pinf_p": [repr(p) for p in self.PINF_P]}
        # phi is nondecreasing on [0, 1]; its t = 1 value is the Gauss limit
        self.phi_range = {q: (extremal.phi_fn(q, 0.0), extremal.phi_fn(q, 1.0))
                          for q in self.PHI_Q}
        self.values: dict = {}

    def pass_ops(self, index: int) -> list:
        ops = [Op(f"scan.q{q}", partial(extremal.monotonicity_scan, q, self.SCAN_GRID),
                  partial(self._check_scan, q))
               for q in self.SCAN_Q]
        ops += [Op(f"phi.q{q}", partial(self._phi_near_one, q), partial(self._check_phi, q))
                for q in self.PHI_Q]
        ops += [Op(f"bessel_zero.d{d}", partial(specfun.bessel_zero, d),
                   partial(self._check_zero, d))
                for d in range(len(BESSEL_ZEROS))]
        ops.append(Op("l1_at_zero", partial(extremal.l1_at_zero, self.L1_TOL), self._check_l1))
        ops.append(Op("pinf", self._pinf, self._check_pinf))
        ops.append(Op("counterexample_p2", extremal.counterexample_p2, self._check_gap))
        return ops

    def _check_scan(self, q, monotone) -> None:
        _require(monotone is True, f"phi(q={q}) not nondecreasing on the grid")
        self.values[f"scan.q{q}"] = monotone

    def _phi_near_one(self, q) -> list:
        return [extremal.phi_fn(q, 1.0 - 10.0 ** -k) for k in self.PHI_K]

    def _check_phi(self, q, values) -> None:
        at_zero, at_one = self.phi_range[q]
        for k, value in zip(self.PHI_K, values):
            _require(at_zero - self.MONOTONE_SLACK <= value <= at_one + self.MONOTONE_SLACK,
                     f"phi({q}, 1-1e-{k}) = {value!r} outside [{at_zero!r}, {at_one!r}]")
            self.values[f"phi.q{q}.k{k}"] = value

    def _check_zero(self, d, x) -> None:
        _require(abs(x - BESSEL_ZEROS[d]) <= self.ZERO_AGREE,
                 f"j_{d},1 = {x!r}, table {BESSEL_ZEROS[d]}")
        self.values[f"bessel_zero.d{d}"] = x

    def _check_l1(self, value) -> None:
        _require(abs(value - self.L1_REF) <= self.L1_AGREE, f"l1_at_zero = {value!r}")
        self.values["l1_at_zero"] = value

    def _pinf(self) -> list:
        out = []
        for p in self.PINF_P:
            q = ExponentPair(p).q
            out.append((p, extremal.norm_p_to_inf(p), extremal.phi_fn(q, 1.0), q))
        return out

    def _check_pinf(self, results) -> None:
        for p, value, phi1, q in results:
            # the CLI's independent route: the series value at t = 1
            check = 2.0 * (phi1 / 2.0) ** (1.0 / q)
            _require(abs(value - check) <= self.PINF_AGREE,
                     f"norm_p_to_inf({p}) = {value!r} vs {check!r}")
            if math.isinf(p):
                _require(abs(value - 8 / math.pi) <= 1e-12, f"norm_p_to_inf(inf) = {value!r}")
            self.values[f"pinf.p{p}"] = value

    def _check_gap(self, cx) -> None:
        _require(cx["norm_sq_abs_err"] < self.GAP, f"norm gap {cx['norm_sq_abs_err']:.3e}")
        _require(cx["strictly_increasing"], "annulus integrals not strictly increasing")
        self.values["counterexample_gap"] = cx["norm_sq_abs_err"]


WORKLOADS = {w.name: w for w in (Ledger, Quadrature, Profiles)}
