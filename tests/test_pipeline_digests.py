"""Pinned outputs of the exchange pipeline, problem by problem.

For every input problem two digests cover what each stage after reduction
produced.  The fault-free digest covers the §5 execution sequence under both
schedulers (or the error text), the synthesized roles with their
preconditions and the escrow specs, the reliable run's ledger digests,
delivery log and safety verdicts, and, for an infeasible bundle, the
minimal indemnity plan and the run it unlocks.  The fault-run digest covers
the same run record under a seeded fault plan.  Keeping them apart means a
change to the fault model re-records only the second half, and the first
half still proves that nothing fault-free moved.

``tests/data/pipeline_digests.json`` maps each input to its pair of
digests.  A mismatch means a stage's output changed; re-record only for an
intended change, by running this file as a script from the repository root
under ``PYTHONPATH=src`` and writing its output over the fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections.abc import Callable, Iterator
from typing import Any

import pytest

from repro.core.execution import recover_execution
from repro.core.indemnity import (
    IndemnityPlan,
    minimal_indemnity_plan,
    splittable_conjunctions,
)
from repro.core.problem import ExchangeProblem
from repro.core.protocol import Protocol, synthesize_protocol
from repro.core.reduction import reduce_graph
from repro.errors import ReproError
from repro.sim.faults import FaultConfig, FaultPlan, random_fault_plan
from repro.sim.runtime import Simulation, SimulationResult
from repro.sim.safety import evaluate_safety
from repro.spec import load
from repro.workloads import (
    RandomProblemConfig,
    broker_bundle,
    example1,
    example2,
    example2_broker_trusts_source,
    example2_source_trusts_broker,
    figure7,
    oversale,
    poor_broker,
    random_problem,
    resale_chain,
    simple_purchase,
    star,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "data", "pipeline_digests.json")
DEADLINE = 100.0
FAULT_DEADLINE = 200.0
FAULT_MAX_TIME = 5000.0

Inputs = Iterator[tuple[str, ExchangeProblem]]


def _paper() -> Inputs:
    for build in (
        simple_purchase,
        example1,
        poor_broker,
        example2,
        example2_source_trusts_broker,
        example2_broker_trusts_source,
        figure7,
    ):
        problem = build()
        yield problem.name, problem
    for stem in ("example1", "example2", "scan_ring"):
        with open(os.path.join(ROOT, "examples", "specs", f"{stem}.exchange")) as handle:
            problem = load(handle.read(), validate=False)
        yield f"spec/{stem}", problem.validate(allow_multiparty=True)


def _shapes() -> Inputs:
    for n in range(1, 34):
        yield f"chain/{n}", resale_chain(n, retail=100.0, margin=1.5)
    for n in (1, 2, 3):
        yield f"chain-poor/{n}", resale_chain(n, solvent=False)
    for n in (1, 2, 5, 9):
        yield f"star/{n}", star(n)
    for n in (2, 3, 5):
        yield f"oversale/{n}", oversale(n)
    for k in range(1, 7):
        retail = [10.0 * (i + 1) for i in range(k)]
        plain = broker_bundle(k, retail)
        yield f"bundle/{k}", plain
        trusting = plain.copy()
        for i in range(k):
            trusting = trusting.with_trust(f"Source{i + 1}", f"Broker{i + 1}")
        yield f"bundle-trust/{k}", trusting


# About half of these are feasible; the rest exercise the error and
# indemnity paths.
RANDOM_CONFIGS = {
    "chaos": RandomProblemConfig(n_principals=12, n_exchanges=9, priority_probability=0.5),
    "red": RandomProblemConfig(n_principals=8, n_exchanges=7, priority_probability=1.0),
    "cycles": RandomProblemConfig(n_principals=8, n_exchanges=7, allow_cycles=True),
    "hubs": RandomProblemConfig(
        n_principals=10, n_exchanges=9, priority_probability=1.0, hub_probability=0.7
    ),
}
RANDOM_PER_CONFIG = 150


def _random() -> Inputs:
    for label, config in RANDOM_CONFIGS.items():
        rng = random.Random(f"pipeline-digests/{label}")
        for i in range(RANDOM_PER_CONFIG):
            yield f"random/{label}/{i}", random_problem(config, rng=random.Random(rng.random()))


FAMILIES: dict[str, Callable[[], Inputs]] = {
    "paper": _paper,
    "shapes": _shapes,
    "random": _random,
}


def _attempt(lines: list[str], stage: str, run: Callable[..., Any], *args: Any) -> Any:
    """``run(*args)``; an error becomes a line of the record instead (None)."""
    try:
        return run(*args)
    except ReproError as exc:
        lines.append(f"{stage} raised {type(exc).__name__}: {exc}")
        return None


def _run_lines(
    lines: list[str], stage: str, problem: ExchangeProblem, result: SimulationResult
) -> None:
    stats = result.stats
    lines.append(
        f"{stage}: initial={result.initial.digest()} final={result.final.digest()} "
        f"duration={result.duration} quiescent={result.quiescent} "
        f"stranded={result.stranded_messages} sent={stats.messages_sent} "
        f"delivered={stats.messages_delivered} attempts={stats.attempts} "
        f"dropped={stats.dropped} retransmits={stats.retransmits} "
        f"deferred={stats.deferred} abandoned={stats.abandoned}"
    )
    lines.extend(f"  {action}|{action.deadline}" for action in result.delivered)
    report = evaluate_safety(problem, result)
    for verdict in report.verdicts:
        lines.append(
            f"  verdict {verdict.party.name} ok={verdict.ok} "
            f"delta={verdict.money_delta_cents} "
            f"forfeits={verdict.forfeits_received_cents} {list(verdict.reasons)}"
        )


def _reliable_run(problem: ExchangeProblem, protocol: Protocol) -> SimulationResult:
    return Simulation(problem, protocol).run()


def _faulty_run(problem: ExchangeProblem, plan: FaultPlan) -> SimulationResult:
    sim = Simulation.from_problem(problem, deadline=FAULT_DEADLINE, fault_plan=plan)
    return sim.run(max_time=FAULT_MAX_TIME)


def _indemnified_run(problem: ExchangeProblem, plan: IndemnityPlan) -> SimulationResult:
    return Simulation.from_plan(problem, plan, deadline=DEADLINE).run()


def record(problem: ExchangeProblem, fault_seed: int) -> tuple[list[str], list[str]]:
    """Every post-reduction output for *problem*, one string per fact: the
    fault-free lines, then the fault-run lines."""
    lines: list[str] = []
    faulted: list[str] = []
    trace = reduce_graph(problem.sequencing_graph())
    lines.append(f"feasible={trace.feasible}")
    sequence = None
    for scheduler in ("possession", "paper-strict"):
        result = _attempt(lines, scheduler, recover_execution, trace, scheduler)
        if result is None:
            continue
        lines.append(scheduler)
        lines.extend(
            f"  {s.index}|{s.kind.value}|{s.action}|"
            f"{s.commitment.label if s.commitment else ''}"
            for s in result.steps
        )
        if scheduler == "possession":
            sequence = result
    if sequence is not None:
        protocol = synthesize_protocol(problem.interaction, sequence, problem.name, DEADLINE)
        for party, role in protocol.roles.items():
            lines.append(f"role {party.name}")
            lines.extend(
                f"  {i.global_index}|{i.action}|{sorted(str(a) for a in i.preconditions)}"
                for i in role.instructions
            )
        for agent, spec in protocol.trusted_specs.items():
            # No plan here, so the escrow table holds swap deposits only.
            receives = {e.recipient: e.item for e in spec.entries}
            deposits = [(e.depositor.name, str(e.item)) for e in spec.entries]
            entitlements = [(e.depositor.name, str(receives[e.depositor])) for e in spec.entries]
            lines.append(
                f"escrow {agent.name} deadline={spec.deadline} "
                f"deposits={deposits} entitlements={entitlements}"
            )
        run = _attempt(lines, "reliable", _reliable_run, problem, protocol)
        if run is not None:
            _run_lines(lines, "reliable", problem, run)
        faults = random_fault_plan(
            principals=[p.name for p in problem.interaction.principals],
            trusted=[t.name for t in problem.interaction.trusted_components],
            seed=fault_seed,
            config=FaultConfig(),
        )
        faulty = _attempt(faulted, "faults", _faulty_run, problem, faults)
        if faulty is not None:
            _run_lines(faulted, f"faults {faults.digest()}", problem, faulty)
    elif len(splittable_conjunctions(problem)) == 1:
        plan = minimal_indemnity_plan(problem)
        lines.append(f"plan feasible={plan.feasible}")
        lines.extend(f"  {offer}" for offer in plan.offers)
        if plan.feasible:
            unlocked = _attempt(lines, "indemnified", _indemnified_run, problem, plan)
            if unlocked is not None:
                _run_lines(lines, "indemnified", problem, unlocked)
    return lines, faulted


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


#: The two halves of an input's record, in the order :func:`record` returns them.
HALVES = ("fault_free", "faults")


def family_digests(family: str) -> dict[str, dict[str, str]]:
    """``{input key: {half: digest}}`` for one input family."""
    return {
        key: dict(zip(HALVES, map(_digest, record(problem, fault_seed=index))))
        for index, (key, problem) in enumerate(FAMILIES[family]())
    }


def _pinned(family: str) -> dict[str, dict[str, str]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)["families"][family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pipeline_outputs_match_pinned_digests(family):
    pinned = _pinned(family)
    actual = family_digests(family)
    assert sorted(actual) == sorted(pinned)
    changed = {
        half: sorted(key for key in actual if actual[key][half] != pinned[key][half])
        for half in HALVES
    }
    assert not any(changed.values()), f"outputs changed: {changed}"


if __name__ == "__main__":
    families = {name: family_digests(name) for name in sorted(FAMILIES)}
    print(json.dumps({"families": families}, indent=1))
