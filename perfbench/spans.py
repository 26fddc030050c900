"""Timing spans around the entry points of each disktransform layer.

Only the traced run uses this module.  `traced()` swaps every module-level
binding of a layer entry point for a wrapper that records a span, and puts
every original object back when it exits.  Nothing under src/ is edited:
a layer is seen only from outside, at its calls.

Entry points are the public functions of a layer (its ``__all__``), wherever
they are bound: in the defining module, in the modules that from-import them
(``oracle.evaluate``, ``cli.bessel_zero``, ``spectral.norm_sq`` ...) and in the
package namespace.  Private functions that another layer imports
(``extremal._adaptive_1d``) count as entry points of their home layer too,
so that the importing layer's self time excludes them.  ``cli.emit`` is
wrapped as well, to count the ledger rows it prints.

A span's self time is its duration minus the time covered by its child
spans; a layer's busy time is the sum of the self times of its spans.  A call
is a layer call when its caller is not in the same layer.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from disktransform.diskalg import DiskPolynomial

LAYERS = ("cli", "spectral", "extremal", "oracle", "transforms", "diskalg", "specfun")
PACKAGE = "disktransform"
EXTRA_ENTRY_POINTS = {("cli", "emit")}  # wrapped although not in __all__

_MARK = "__perfbench_span__"
_PANEL_EVALS = 320  # 8x8 plus 16x16 Gauss-Legendre nodes per 2-D oracle panel


class Tracer:
    """In-memory span aggregates for one traced phase (single caller)."""

    def __init__(self):
        self.stack: list = []                 # open spans: [layer, child_ns]
        self.open_depth: Counter = Counter()  # function key -> open spans
        self.self_ns: Counter = Counter()     # layer -> self time
        self.layer_ns: Counter = Counter()    # layer -> duration of layer calls
        self.layer_calls: Counter = Counter()
        self.fn_ns: Counter = Counter()       # function key -> outermost duration
        self.fn_calls: Counter = Counter()
        self.errors: Counter = Counter()      # (layer, exception type) of layer calls
        self.counts: Counter = Counter()      # work counters, see _NOTES
        self.maxima: dict = defaultdict(float)

    def span(self, layer: str, key: str, fn):
        note = _NOTES.get(key) or _LAYER_NOTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            layer_call = parent is None or parent[0] != layer
            frame = [layer, 0]
            stack.append(frame)
            self.open_depth[key] += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if layer_call:
                    self.errors[layer, type(exc).__name__] += 1
                raise
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                self.open_depth[key] -= 1
                self.self_ns[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not self.open_depth[key]:
                    self.fn_ns[key] += dur
                self.fn_calls[key] += 1
                if layer_call:
                    self.layer_ns[layer] += dur
                    self.layer_calls[layer] += 1
            if note is not None:
                note(self, layer_call, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


# ---------------------------------------------------------------------------
# work counters, read from the arguments and results of a call


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _note_bessel_j(tr, layer_call, args, kwargs, result):
    alpha, x = _arg(args, kwargs, 0, "alpha"), _arg(args, kwargs, 1, "x")
    # the same test bessel_j applies before its exact-rational series
    if alpha == int(alpha) and x > 8:
        tr.counts["specfun.bessel_j.exact_path_calls"] += 1


def _note_evaluate(tr, layer_call, args, kwargs, result):
    z = _arg(args, kwargs, 1, "z")
    tr.counts["diskalg.evaluate.points"] += getattr(z, "size", 1)


def _note_transforms(tr, layer_call, args, kwargs, result):
    if layer_call:
        tr.counts["transforms.monomials_in"] += sum(
            len(a) for a in (*args, *kwargs.values()) if isinstance(a, DiskPolynomial))


def _note_oracle(tr, layer_call, args, kwargs, result):
    if not layer_call:
        return
    evals = getattr(result, "evaluations", None)
    if evals is None and isinstance(result, tuple) and len(result) == 3:
        evals = result[2]  # (value, err, evaluations) of the raw integrators
    if isinstance(evals, int):
        tr.counts["oracle.evals"] += evals


def _note_assemble(tr, layer_call, args, kwargs, result):
    tr.maxima["spectral.basis_size"] = max(tr.maxima["spectral.basis_size"], len(result.basis))


def _note_norm(tr, layer_call, args, kwargs, result):
    tr.maxima["spectral.residual_max"] = max(tr.maxima["spectral.residual_max"], result.residual)


def _note_emit(tr, layer_call, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    tr.counts["cli.rows"] += len(rows)
    tr.counts["cli.rows_skipped"] += sum(r.status == "SKIPPED" for r in rows)


_NOTES = {
    "specfun.bessel_j": _note_bessel_j,
    "diskalg.evaluate": _note_evaluate,
    "spectral.assemble": _note_assemble,
    "spectral.operator_norm": _note_norm,
    "spectral.estimate_P_norm": _note_norm,
    "cli.emit": _note_emit,
}
_LAYER_NOTES = {"transforms": _note_transforms, "oracle": _note_oracle}


# ---------------------------------------------------------------------------
# swapping bindings in and out


def _holders():
    pkg = sys.modules[PACKAGE]
    return [pkg] + [sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS]


def _entry_points():
    """Yield (holder module, attribute name, function, layer) for every
    binding of a layer entry point."""
    for holder in _holders():
        for name, obj in list(vars(holder).items()):
            if not inspect.isfunction(obj):
                continue
            home_name, _, layer = obj.__module__.rpartition(".")
            if home_name != PACKAGE or layer not in LAYERS:
                continue
            home = sys.modules[obj.__module__]
            public = (obj.__name__ in getattr(home, "__all__", ())
                      or (layer, obj.__name__) in EXTRA_ENTRY_POINTS)
            if public or holder is not home:
                yield holder, name, obj, layer


@contextmanager
def traced(tracer: Tracer):
    """Wrap every entry-point binding for the duration of the block."""
    wrappers: dict = {}
    swapped = []
    try:
        for holder, name, fn, layer in list(_entry_points()):
            if fn not in wrappers:
                wrappers[fn] = tracer.span(layer, f"{layer}.{fn.__name__}", fn)
            setattr(holder, name, wrappers[fn])
            swapped.append((holder, name, fn))
        yield swapped
    finally:
        for holder, name, fn in reversed(swapped):
            setattr(holder, name, fn)


def leftovers(swapped) -> list:
    """Bindings that are not the original object again after `traced`."""
    bad = [f"{h.__name__}.{n}" for h, n, fn in swapped if getattr(h, n) is not fn]
    for holder in _holders():
        bad += [f"{holder.__name__}.{n}" for n, obj in vars(holder).items()
                if getattr(obj, _MARK, False)]
    return sorted(set(bad))


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(tr: Tracer, passes: int, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}.

    Times and counts are per pass of the workload, so that runs fitting
    different numbers of passes compare; rates, the largest basis and the
    largest residual are not divided."""
    def sec(ns):
        return ns / 1e9 / passes

    def per_pass(count):
        return count / passes

    def rate(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    c = tr.counts
    evals = c["oracle.evals"]
    return {
        "specfun.busy_s": (sec(tr.self_ns["specfun"]), "s"),
        "specfun.calls": (per_pass(tr.layer_calls["specfun"]), "count"),
        "specfun.bessel_j.calls": (per_pass(tr.fn_calls["specfun.bessel_j"]), "count"),
        "specfun.bessel_j.exact_path_calls": (
            per_pass(c["specfun.bessel_j.exact_path_calls"]), "count"),
        "specfun.bessel_zero.s": (sec(tr.fn_ns["specfun.bessel_zero"]), "s"),
        "specfun.hyp2f1.s": (sec(tr.fn_ns["specfun.hyp2f1"]), "s"),
        "specfun.elliptic_e.s": (sec(tr.fn_ns["specfun.elliptic_e"]), "s"),
        "specfun.elliptic_e.calls": (per_pass(tr.fn_calls["specfun.elliptic_e"]), "count"),
        "diskalg.busy_s": (sec(tr.self_ns["diskalg"]), "s"),
        "diskalg.evaluate.s": (sec(tr.fn_ns["diskalg.evaluate"]), "s"),
        "diskalg.evaluate.points": (per_pass(c["diskalg.evaluate.points"]), "count"),
        "diskalg.norm_sq.s": (sec(tr.fn_ns["diskalg.norm_sq"]), "s"),
        "transforms.busy_s": (sec(tr.self_ns["transforms"]), "s"),
        "transforms.calls": (per_pass(tr.layer_calls["transforms"]), "count"),
        "transforms.monomials_in": (per_pass(c["transforms.monomials_in"]), "count"),
        "transforms.monomials_per_s": (
            rate(c["transforms.monomials_in"], tr.layer_ns["transforms"]), "1/s"),
        "oracle.busy_s": (sec(tr.self_ns["oracle"]), "s"),
        "oracle.calls": (per_pass(tr.layer_calls["oracle"]), "count"),
        "oracle.evals": (per_pass(evals), "count"),
        "oracle.evals_per_s": (rate(evals, tr.layer_ns["oracle"]), "1/s"),
        "oracle.panels_computed": (per_pass(evals / _PANEL_EVALS), "count"),
        "oracle.budget_errors": (per_pass(tr.errors["oracle", "OracleBudgetError"]), "count"),
        "oracle.cauchy_eval.s": (sec(tr.fn_ns["oracle.cauchy_eval"]), "s"),
        "oracle.pv_beurling_eval.s": (sec(tr.fn_ns["oracle.pv_beurling_eval"]), "s"),
        "oracle.quad_disk.s": (sec(tr.fn_ns["oracle.quad_disk"]), "s"),
        "spectral.busy_s": (sec(tr.self_ns["spectral"]), "s"),
        "spectral.assemble.s": (sec(tr.fn_ns["spectral.assemble"]), "s"),
        "spectral.operator_norm.s": (sec(tr.fn_ns["spectral.operator_norm"]), "s"),
        "spectral.basis_size": (int(tr.maxima["spectral.basis_size"]), "count"),
        "spectral.residual_max": (tr.maxima["spectral.residual_max"], "1"),
        "spectral.solve_alpha.s": (sec(tr.fn_ns["spectral.solve_alpha"]), "s"),
        "extremal.busy_s": (sec(tr.self_ns["extremal"]), "s"),
        "extremal.monotonicity_scan.s": (sec(tr.fn_ns["extremal.monotonicity_scan"]), "s"),
        "extremal.l1_at_zero.s": (sec(tr.fn_ns["extremal.l1_at_zero"]), "s"),
        "extremal.counterexample_p2.s": (sec(tr.fn_ns["extremal.counterexample_p2"]), "s"),
        "cli.busy_s": (sec(tr.self_ns["cli"]), "s"),
        "cli.rows": (per_pass(c["cli.rows"]), "count"),
        "cli.rows_skipped": (per_pass(c["cli.rows_skipped"]), "count"),
        "trace.overhead_s": (overhead_s / passes, "s"),
    }
