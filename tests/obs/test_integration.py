"""End-to-end observability: traced pipeline replays, rule firings, faults.

These tests exercise the instrumented production code paths (reduction,
verdict loop, simulator, batch map) rather than the obs primitives directly —
the determinism contract only matters if the wired-up stack honors it.
"""

import warnings

from repro.analysis.batch import instrumented_map
from repro.core.flatcore import check_feasibility_flat
from repro.core.reduction import reduce_graph
from repro.obs import active, metrics_scope, snapshot_digest, span_digest, tracing
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.runtime import simulate
from repro.workloads import example1, resale_chain


def _traced_pipeline():
    problem = example1()
    with tracing() as tracer:
        trace = reduce_graph(problem.sequencing_graph())
        check_feasibility_flat(problem.sequencing_graph())
        if trace.feasible:
            simulate(problem)
    return tracer


def _count_firings(item: int) -> int:
    obs = active()
    assert obs is not None  # instrumented_map installs a scope per item
    obs.metrics.inc("test.items")
    obs.metrics.histogram("test.sizes").observe(item)
    return item * item


class TestReplayStability:
    def test_full_pipeline_span_digest_is_byte_identical(self):
        first, second = _traced_pipeline(), _traced_pipeline()
        assert span_digest(first) == span_digest(second)
        assert first.metrics.digest() == second.metrics.digest()

    def test_pipeline_records_the_expected_span_families(self):
        tracer = _traced_pipeline()
        names = {span.name for span in tracer.spans}
        assert {"reduce.flat", "verdict.flat", "sim.run", "message"} <= names
        assert not any(name.startswith(("reduce.indexed", "reduce.batch")) for name in names)
        assert tracer.open_span_ids() == []


class TestRuleFirings:
    def test_firings_match_the_trace_steps(self):
        graph = resale_chain(4).sequencing_graph()
        with metrics_scope() as tracer:
            trace = reduce_graph(graph)
        stats = tracer.metrics.to_dict()
        for rule in (1, 2):
            fired = sum(1 for step in trace.steps if step.rule == rule)
            assert stats[f"reduction.firings.rule{rule}"] == fired
        assert stats["reduction.worklist_depth"]["count"] == len(trace.steps)
        assert not any(key.startswith("arena.") for key in stats)


class TestFaultedSimulation:
    def test_message_trace_records_drops_and_outcomes(self):
        plan = FaultPlan(seed=7, links=(LinkFault(drop=1.0),), heal_at=3.0)
        with tracing() as tracer:
            simulate(example1(), fault_plan=plan)
        lines = [span.name for span in tracer.spans]
        assert "message" in lines
        message_spans = [s for s in tracer.spans if s.name == "message"]
        fates = {s.attrs.get("fate") for s in message_spans}
        assert fates <= {"delivered", "abandoned", "unresolved"}
        # Every pre-heal send was dropped at least once, so some message
        # span must carry a drop event.
        event_names = {
            name for s in message_spans for _, name, _ in s.events
        }
        assert "drop" in event_names

    def test_faulted_replay_is_still_deterministic(self):
        plan = FaultPlan(seed=7, links=(LinkFault(drop=0.5, duplicate=0.25),))
        digests = []
        for _ in range(2):
            with tracing() as tracer:
                simulate(example1(), fault_plan=plan)
            digests.append(span_digest(tracer))
        assert digests[0] == digests[1]


class TestInstrumentedMap:
    def test_serial_and_pooled_snapshots_match(self):
        items = list(range(12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            serial_results, serial_snapshot = instrumented_map(
                _count_firings, items, processes=1
            )
            pooled_results, pooled_snapshot = instrumented_map(
                _count_firings, items, processes=2
            )
        assert serial_results == pooled_results == [n * n for n in items]
        assert serial_snapshot == pooled_snapshot
        assert snapshot_digest(serial_snapshot) == snapshot_digest(pooled_snapshot)

    def test_merged_counters_sum_across_items(self):
        _, snapshot = instrumented_map(_count_firings, list(range(5)), processes=1)
        by_name = {name: values for name, _, values in snapshot}
        assert by_name["test.items"] == (5,)
