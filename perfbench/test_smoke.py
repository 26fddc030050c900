"""Smoke test of the benchmark: one op of each workload, the metric names
against BENCHMARK.json, failure containment, and a traced op that leaves
every binding as it found it.

    python3 -m pytest perfbench/test_smoke.py
"""
import json

import pytest

import run

run.prepare()

import spans  # noqa: E402
import workloads  # noqa: E402
from disktransform import cli, diskalg, oracle, specfun, spectral  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def _reported(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workload_names_match():
    names = tuple(w["name"] for w in BENCH["workloads"])
    assert names == tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_op_passes(name):
    loop, setup_s = run.setup(name, seed=1)
    assert setup_s > 0 and loop.attempted == 1 and loop.n_failed == 0


def test_end_to_end_metric_names():
    loop = run.Loop(workloads.Profiles(seed=1))
    loop.passes(count=1)
    metrics = run.end_to_end(loop, [0.5])
    assert _reported(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_op_figures_in_refs_are_seconds_over_the_reference():
    loop = run.Loop(None)
    loop.samples = [("op", 0.1 * (i + 1), True, 0.004) for i in range(12)]
    loop.pass_times = [(12, sum(sample[1] for sample in loop.samples), 0.004)]
    secs, refs = run.op_figures(loop, in_refs=False), run.op_figures(loop, in_refs=True)
    assert refs["op_ref.p50"][0] == pytest.approx(secs["op_s.p50"][0] / 0.004)
    assert refs["op_ref.tail"][0] == pytest.approx(secs["op_s.tail"][0] / 0.004)
    assert refs["ops_per_ref"][0] == pytest.approx(secs["ops_per_s"][0] * 0.004)


def test_failed_op_is_contained():
    def exhaust():
        raise oracle.OracleBudgetError("budget")

    loop = run.Loop(None)
    dt, ok = loop.attempt(workloads.Op("exhaust", exhaust, lambda r: None))
    assert not ok and dt >= 0
    assert loop.failed == {"exhaust: OracleBudgetError": 1} and loop.attempted == 1


def test_traced_op_reports_every_layer_and_restores_bindings():
    originals = (oracle.evaluate, cli.bessel_zero, spectral.norm_sq, specfun.bessel_j)
    loop = run.Loop(workloads.Ledger(seed=1))
    tracer = spans.Tracer()
    with spans.traced(tracer) as swapped:
        assert oracle.evaluate is not originals[0] and oracle.evaluate is diskalg.evaluate
        loop.passes(count=1)
    assert spans.leftovers(swapped) == []
    assert (oracle.evaluate, cli.bessel_zero, spectral.norm_sq, specfun.bessel_j) == originals
    assert oracle.evaluate is diskalg.evaluate
    metrics = spans.per_layer_metrics(tracer, 1, 0.0)
    assert _reported(metrics) == _declared("per_layer")
    # the ledger touches every layer
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.busy_s"][0] > 0, layer
    assert metrics["cli.rows"][0] == 29 and loop.n_failed == 0
