"""Benchmark of the disktransform toolkit: one workload per run.

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  One
process, one caller, one thread (DISKT_THREADS=1, and numpy's BLAS held to
one thread): a closed loop that starts an op only after the previous one has
returned, in whole passes, until --seconds of op time and at least MIN_OPS
ops have run.  Every op's result is checked after its timing ends; an op
that raises or lands outside its tolerance counts as failed and the run goes
on.  The host-speed reference (reference.py) is timed before the first op,
after every REF_EVERY_S of op time and at the end of each pass, and each
op's time is also given in refs: its seconds divided by the mean of the
reference timings over its pass.

--trace 0 prints the end-to-end metrics: op times in refs, set-up seconds
and peak memory; the op times in seconds are printed beside them.
--trace 1 runs whole passes untraced for half of --seconds, runs the same
passes again with a span around every layer entry point (spans.py), and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 11           # the tail percentile needs ten samples beyond it
SETUP_PROBES = 4       # fresh processes timed besides this one
REF_EVERY_S = 0.1      # op seconds between two timings of the reference
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("ledger", "quadrature", "profiles")
ONE_THREAD = ("DISKT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def prepare() -> None:
    """Put ./src first on the import path and hold the program and numpy to
    one thread; exit 2 when ./src has no package.  Runs before numpy is
    imported, which reads its thread count once."""
    if not (SRC / "disktransform" / "__init__.py").is_file():
        print(f"perfbench: no disktransform package under {SRC}", file=sys.stderr)
        sys.exit(2)
    for name in ONE_THREAD:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))


def setup(name: str, seed: int):
    """Import the package, build the CLI parser, make the workload's inputs
    and run its first op, untimed and checked.  Returns (a Loop over the
    workload with that op attempted, set-up seconds)."""
    t0 = time.perf_counter()
    import workloads

    workloads.cli.build_parser()
    loop = Loop(workloads.WORKLOADS[name](seed))
    loop.attempt(loop.wl.pass_ops(0)[0])
    return loop, time.perf_counter() - t0


def probe_setups(loop, name: str, seed: int) -> list:
    """Set-up seconds of SETUP_PROBES fresh interpreters; each probe counts
    as an attempted op, and one that fails as a failed op."""
    out = []
    for _ in range(SETUP_PROBES):
        loop.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
            out.append(float(proc.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            loop.record_failure("setup_probe", exc)
    return out


class Loop:
    """Closed-loop op runner with failure containment."""

    def __init__(self, wl):
        self.wl = wl
        self.samples: list = []   # (op name, seconds, passed, ref seconds) of timed ops
        self.pass_times: list = []  # (ops passed, seconds, ref seconds) of timed passes
        self.attempted = 0
        self.failed: dict = {}    # "op: exception type" -> count

    def attempt(self, op) -> tuple:
        """Run and check one op.  Returns (seconds spent in op.run, whether
        the op passed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            try:
                result = op.run()
            finally:
                dt = time.perf_counter() - t0
            op.check(result)
        except Exception as exc:  # one bad op must not stop the benchmark
            self.record_failure(op.name, exc)
            return dt, False
        return dt, True

    def record_failure(self, what: str, exc: BaseException) -> None:
        key = f"{what}: {type(exc).__name__}"
        if key not in self.failed:
            print(f"failed: {key}: {exc}", file=sys.stderr)
        self.failed[key] = self.failed.get(key, 0) + 1

    def passes(self, seconds: float = 0.0, min_ops: int = 0, count: int | None = None) -> int:
        """Whole passes until `seconds` of op time and `min_ops` ops, or
        exactly `count` passes.  The reference is timed before the first op,
        after each REF_EVERY_S of op time and at the end of every pass; a
        pass's ops get the mean of the timings from the last one before the
        pass to its end.  Returns the number of passes run."""
        import reference  # imports numpy, so only after prepare()

        busy, done, index, since = 0.0, 0, 0, 0.0
        refs = [reference.sample()]
        while (index < count) if count is not None else (busy < seconds or done < min_ops):
            timed, first = [], len(refs) - 1
            for op in self.wl.pass_ops(index):
                dt, ok = self.attempt(op)
                timed.append((op.name, dt, ok))
                busy += dt
                done += 1
                since += dt
                if since >= REF_EVERY_S:
                    refs.append(reference.sample())
                    since = 0.0
            if since:
                refs.append(reference.sample())
                since = 0.0
            ref = statistics.fmean(refs[first:])
            self.samples += [(name, dt, ok, ref) for name, dt, ok in timed]
            self.pass_times.append(
                (sum(ok for *_, ok in timed), sum(dt for _, dt, _ in timed), ref))
            index += 1
        return index

    def final_checks(self) -> None:
        """The workload's untimed checks after the timed phase."""
        for op in getattr(self.wl, "final_ops", list)():
            self.attempt(op)

    def busy(self) -> float:
        return sum(sample[1] for sample in self.samples)

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def tail(durations: list) -> tuple:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(durations)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(ordered)} samples are too few for a tail")
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def op_figures(loop: Loop, in_refs: bool) -> dict:
    """Throughput (the median over passes of ops passed per unit of op time),
    median and tail of the timed ops, in refs or in seconds."""
    unit = "ref" if in_refs else "s"
    times = [dt / ref if in_refs else dt for _, dt, _, ref in loop.samples]
    rates = [passed / (dt / ref if in_refs else dt) for passed, dt, ref in loop.pass_times]
    return {
        f"ops_per_{unit}": (statistics.median(rates), f"1/{unit}"),
        f"op_{unit}.p50": (statistics.median(times), unit),
        f"op_{unit}.tail": (tail(times)[0], unit),
    }


def end_to_end(loop: Loop, setups: list) -> dict:
    """Every end-to-end metric of BENCHMARK.json, as {name: (value, unit)}."""
    return {
        **op_figures(loop, in_refs=True),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, wl) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": wl.params, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), **{name: os.environ[name] for name in ONE_THREAD},
            "loop": "closed, 1 caller, 1 thread"}


def print_report(loop: Loop, metrics: dict) -> None:
    _, pct, n = tail([sample[1] for sample in loop.samples])
    refs = sorted({ref for *_, ref in loop.samples})
    tail_note = f"p{pct:.1f} of {n} ops, 10 beyond it"
    notes = {"op_ref.tail": tail_note, "op_s.tail": tail_note,
             "setup_s": f"median of {SETUP_PROBES + 1} set-ups, {SETUP_PROBES} in fresh processes"}
    for name, (value, unit) in {**metrics, **op_figures(loop, in_refs=False)}.items():
        print(f"{name:<14} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"{'ref':<14} {1000 * statistics.median(refs):.6g} ms  "
          f"(median; {1000 * refs[0]:.4g} to {1000 * refs[-1]:.4g} ms over the run)")
    print(f"{'failed_ratio':<14} {loop.n_failed / loop.attempted:.6g}  "
          f"({loop.n_failed} of {loop.attempted} attempted ops)")


def print_layers(metrics: dict) -> None:
    busy = {name.split(".")[0]: value for name, (value, _) in metrics.items()
            if name.endswith(".busy_s")}
    total = sum(busy.values()) or 1.0
    print("layer self time, largest first:")
    for layer, value in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<11} {value:10.4f} s  {100 * value / total:5.1f} %")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    prepare()

    loop, setup_s = setup(args.workload, args.seed)
    wl = loop.wl
    print("stamp " + json.dumps(stamp(args, wl), sort_keys=True))

    leftover = []
    if args.trace:
        import spans

        n_passes = loop.passes(seconds=args.seconds / 2)
        untraced = loop.busy()
        tracer = spans.Tracer()
        with spans.traced(tracer) as swapped:
            loop.passes(count=n_passes)
        leftover = spans.leftovers(swapped)
        traced = loop.busy() - untraced
        loop.final_checks()
        metrics = spans.per_layer_metrics(tracer, n_passes, traced - untraced)
        print(f"{n_passes} passes traced in {traced:.4f} s, untraced in {untraced:.4f} s; "
              "per-layer figures are per pass")
        if leftover:
            print(f"bindings not restored after tracing: {leftover}", file=sys.stderr)
        print_layers(metrics)
    else:
        loop.passes(seconds=args.seconds, min_ops=MIN_OPS)
        loop.final_checks()
        setups = [setup_s] + probe_setups(loop, args.workload, args.seed)
        metrics = end_to_end(loop, setups)
        print_report(loop, metrics)
    print("values " + json.dumps(wl.values, sort_keys=True, default=repr))
    print(json.dumps({
        "correct": loop.n_failed == 0 and not leftover,
        "attempted": loop.attempted,
        "failed": loop.n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
