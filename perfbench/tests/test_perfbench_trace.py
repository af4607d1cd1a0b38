"""The traced run wraps the program from outside and changes none of its answers."""

import importlib

import pytest

from repro.obs import runtime as obs_runtime
from repro.sim import runtime as sim_runtime

from perfbench import harness
from perfbench.layertrace import ENTRY_POINTS, LayerTracer, layer_totals
from perfbench.workloads import WORKLOADS, wal_records_and_bytes


def _first_simulated(workload, inputs):
    """Index of an operation that runs the whole path (chaos skips infeasible ones)."""
    for i in range(workload.pool_size(inputs)):
        if all(answer.digest for answer in workload.operation(inputs, i)):
            return i
    raise AssertionError("no simulated operation in the pool")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_operation_gives_the_untraced_answers(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(5, str(tmp_path))
    i = _first_simulated(workload, inputs)
    plain = workload.operation(inputs, i)
    tracer = LayerTracer()
    with tracer.installed():
        tracer.op = i
        traced = workload.operation(inputs, i)
    assert len(plain) == len(traced) == workload.exchanges_per_op
    for before, after in zip(plain, traced):
        assert (before.feasible, before.unsafe, before.digest) == (
            after.feasible, after.unsafe, after.digest,
        )
        assert before.stats == after.stats
        assert (before.kills, before.restarts) == (after.kills, after.restarts)
        if workload.networked:
            assert wal_records_and_bytes(before.run_dir)[0] == wal_records_and_bytes(
                after.run_dir
            )[0]
    totals = layer_totals(tracer.spans, [1.0] * (i + 1))
    assert {"core.sequencing", "core.reduction", "sim.safety"} <= set(totals)
    assert all(entry.self_s >= 0 for entry in totals.values())
    assert all(span[4] == i for span in tracer.spans)


def test_uninstall_restores_every_original():
    tracer = LayerTracer()
    tracer.install()
    sites = list(tracer.sites)
    try:
        rebound = {(id(owner), attr) for owner, attr, _ in sites}
        for _, module_name, path, _ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            assert (id(owner), attr) in rebound, path
        reduce_sites = {owner.__name__ for owner, attr, _ in sites if attr == "reduce_graph"}
        assert {
            "repro.core.reduction",
            "repro.core.feasibility",
            "repro.core.problem",
            "repro.core.indemnity",
        } <= reduce_sites
        for owner, attr, original in sites:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("trace", [False, True])
def test_no_repro_obs_tracer_is_active(trace, monkeypatch):
    real = obs_runtime.active
    seen = []

    def spy():
        value = real()
        seen.append(value)
        return value

    monkeypatch.setattr(sim_runtime, "_active_tracer", spy)
    report = harness.run_workload("paper", seed=0, seconds=0.2, trace=trace)
    assert report["correct"]
    assert seen and all(value is None for value in seen)


def test_traced_report_has_every_layer_metric_and_the_double_reduction():
    report = harness.run_workload("chain", seed=0, seconds=0.2, trace=True)
    assert report["correct"]
    line = harness.result_line(report)
    for entry in harness.contract()["per_layer"]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    layers = report["per_layer"]
    # feasibility() and Simulation.from_problem each build and reduce the graph.
    assert layers["core.reduction.calls"]["value"] == 2
    assert layers["core.sequencing.edges"]["value"] == 2 * 258
