"""Every per-item record the pipeline builds has its class's shape.

The hot sites build their records from a tuple of all their fields with
``repro.records.new_record``, which checks no arity and applies no defaults.
A site that passes one field too few or too many builds a record of the
wrong length that still claims the class.  Each pipeline here runs from spec
text to safety verdicts, and every record it builds at those sites must have
exactly ``len(type(r)._fields)`` fields and equal ``type(r)(*r)``, the same
record built by calling its class (which, for the validated value types,
also re-runs their checks).

The pipelines: Example 1, Example 2 under its minimal indemnity plan, a
resale chain of 8 brokers, and Example 1 again under a seeded fault plan
with lossy, duplicating and delaying links.
"""

from __future__ import annotations

import sys
from typing import Any

import pytest

from repro.core.indemnity import minimal_indemnity_plan
from repro.core.problem import ExchangeProblem
from repro.core.reduction import reduce_graph
from repro.sim.faults import CLEAN, LOST, FaultPlan, LinkFault
from repro.sim.runtime import Simulation
from repro.sim.safety import SafetyReport, evaluate_safety
from repro.spec.compiler import compile_spec
from repro.spec.formatter import format_problem
from repro.spec.lexer import tokenize
from repro.spec.parser import parse
from repro.workloads import example1, example2, resale_chain

FAULTS = FaultPlan(
    seed=3, links=(LinkFault(drop=0.2, duplicate=0.3, max_delay=2.0),)
).validate()


def _safety(problem: ExchangeProblem, result: Any) -> tuple[SafetyReport, list[Any]]:
    """``evaluate_safety``'s report and the ``EdgeOutcome`` records it built.

    The outcomes are local to it, so a trace function keeps every
    ``outcomes`` list that the function's frame holds.
    """
    lists: dict[int, list[Any]] = {}
    code = evaluate_safety.__code__

    def local(frame, event, arg):
        outcomes = frame.f_locals.get("outcomes")
        if outcomes is not None:
            lists[id(outcomes)] = outcomes
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        report = evaluate_safety(problem, result)
    finally:
        sys.settrace(previous)
    return report, [outcome for outcomes in lists.values() for outcome in outcomes]


def _records(name: str) -> dict[str, list[Any]]:
    """The records one pipeline builds, by kind."""
    if name == "example2-plan":
        source = example2()
    elif name == "chain-8":
        source = resale_chain(8, retail=100.0)
    else:
        source = example1()
    text = format_problem(source)
    tokens = tokenize(text)
    spec = parse(text)
    clauses = [clause for exchange in spec.exchanges for clause in exchange.clauses]
    declarations = [
        *spec.principals,
        *spec.trusted,
        *spec.exchanges,
        *clauses,
        *spec.priorities,
        *spec.trusts,
    ]
    problem: ExchangeProblem = compile_spec(spec)
    graph = problem.sequencing_graph()
    if name == "example2-plan":
        sim = Simulation.from_plan(problem, minimal_indemnity_plan(problem), deadline=100.0)
    else:
        faults = FAULTS if name == "example1-faulted" else None
        sim = Simulation.from_problem(problem, deadline=100.0, fault_plan=faults)
    result = sim.run(max_time=5000.0)
    assert result.quiescent
    report, outcomes = _safety(problem, result)
    records = {
        "tokens": tokens,
        "positions": [declaration.position for declaration in declarations],
        "declarations": declarations,
        "parties": list(problem.interaction.parties),
        "interaction edges": list(problem.interaction.edges),
        "commitments": list(graph.commitments),
        "conjunctions": list(graph.conjunctions),
        "sequencing edges": list(graph.edges),
        "reduction steps": list(reduce_graph(graph).steps),
        "execution steps": list(result.protocol.sequence.steps),
        "escrow entries": [
            entry
            for escrow in result.protocol.trusted_specs.values()
            for entry in escrow.entries
        ],
        "actions": result.delivered,
        "deliveries": list(sim.core.log),
        "edge outcomes": outcomes,
        "verdicts": list(report.verdicts),
    }
    if name == "example1-faulted":
        records["fates"] = [
            FAULTS.fate(envelope.sender, envelope.recipient, key, attempt, envelope.sent_at)
            for key, envelope in sim.core.envelopes.items()
            for attempt in range(1, envelope.attempts + 1)
        ]
    return records


@pytest.mark.parametrize("name", ["example1", "example2-plan", "chain-8", "example1-faulted"])
def test_every_record_has_its_class_shape(name):
    records = _records(name)
    for kind, found in records.items():
        assert found, f"{name}: no {kind} built"
        for record in found:
            cls = type(record)
            assert issubclass(cls, tuple) and hasattr(cls, "_fields"), f"{kind}: {record!r}"
            assert len(record) == len(cls._fields), f"{name} {kind}: {record!r}"
            assert cls(*record) == record, f"{name} {kind}: {record!r}"
    if "fates" in records:  # some attempt went through the rolls, not a constant
        assert any(fate is not CLEAN and fate is not LOST for fate in records["fates"])
