"""The four workloads: seeded inputs, one closed-loop operation, answer checks.

Operations call the program through module attributes (``sim_runtime.simulate``
rather than a name imported into this module), so the wrappers a traced run
binds into ``repro.*`` modules see every call the benchmark makes.

Every workload is a closed loop: one client, one operation in flight, the next
operation issued when the previous one returns.  In-process workloads run on
the calling thread and never use an ``analysis.batch`` pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro.core import indemnity
from repro.core.reduction_reference import reference_reduce
from repro.net import supervisor
from repro.sim import runtime as sim_runtime
from repro.sim import safety as sim_safety
from repro.sim.faults import FaultConfig, FaultPlan, PartyFault, random_fault_plan
from repro.spec import compiler
from repro.spec.formatter import format_problem
from repro.workloads.chains import resale_chain
from repro.workloads.examples import example1
from repro.workloads.random_graphs import RandomProblemConfig, random_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: NetworkStats fields every answer carries, in this order.
STAT_FIELDS = ("messages_delivered", "attempts", "retransmits", "dropped", "deferred", "abandoned")

# Expected answer (a module constant so a test can plant a wrong one).
EXAMPLE2_INDEMNITY_CENTS = 1200

PAPER_DEADLINE = 100.0  # `repro simulate` default
CHAIN_BROKERS = 64
CHAIN_RETAIL = 1000.0
CHAOS_POOL = 512
CHAOS_PROBLEMS = RandomProblemConfig(n_principals=12, n_exchanges=9, priority_probability=0.5)
CHAOS_DEADLINE = 200.0  # `repro chaos` defaults
CHAOS_MAX_TIME = 5000.0
NET_CONFIG = supervisor.NetRunConfig(spawn="task", deadline=60.0)  # `repro serve` defaults
NET_CRASH = FaultPlan(parties=(PartyFault("Producer", crash_at=2.0, restart_at=10.0),))


@dataclass(frozen=True)
class Answer:
    """One exchange's outcome, reduced to what the checks compare."""

    problem: str
    feasible: bool
    indemnity_cents: int
    unsafe: tuple[str, ...]  # parties whose safety verdict failed
    digest: str  # final ledger digest ("" when not simulated)
    stats: tuple[int, ...]  # STAT_FIELDS of the run's NetworkStats
    quiescent: bool = True
    kills: int = 0
    restarts: int = 0
    run_dir: str = ""  # networked runs only

    def same_outcome(self, other: "Answer") -> bool:
        """Equal in everything but where the run's artifacts were written."""
        return self.__dict__ | {"run_dir": ""} == other.__dict__ | {"run_dir": ""}


NOT_SIMULATED = (0,) * len(STAT_FIELDS)


def _stats(stats: Any) -> tuple[int, ...]:
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


def _unsafe(report: Any) -> tuple[str, ...]:
    return tuple(v.party.name for v in report.verdicts if not v.ok)


def simulate_path(text: str) -> Answer:
    """The ``repro simulate`` path from spec text to safety verdict."""
    problem = compiler.load(text)
    verdict = problem.feasibility()
    indemnity_cents = 0
    if verdict.feasible:
        result = sim_runtime.simulate(problem, deadline=PAPER_DEADLINE)
    else:
        plan = indemnity.minimal_indemnity_plan(problem)
        indemnity_cents = plan.total_cents
        sim = sim_runtime.Simulation.from_plan(problem, plan, deadline=PAPER_DEADLINE)
        result = sim.run()
    report = sim_safety.evaluate_safety(problem, result)
    return Answer(
        problem.name,
        verdict.feasible,
        indemnity_cents,
        _unsafe(report),
        result.final.digest(),
        _stats(result.stats),
    )


class Workload:
    """One workload: how to build its inputs, run one operation, check it."""

    name = ""
    exchanges_per_op = 1
    warmup_ops = 1
    networked = False

    def make_inputs(self, seed: int, workdir: str) -> Any:
        raise NotImplementedError

    def pool_size(self, inputs: Any) -> int:
        """Operations cycle over this many inputs; timed loops end on a whole pass."""
        return 1

    def warm(self, inputs: Any) -> None:
        for i in range(self.warmup_ops):
            self.operation(inputs, i)

    def operation(self, inputs: Any, i: int) -> list[Answer]:
        raise NotImplementedError

    def check(self, inputs: Any, i: int, answers: list[Answer]) -> str | None:
        """Why operation *i*'s answers are wrong, or None when they are right."""
        raise NotImplementedError

    def input_digest(self, inputs: Any) -> str:
        raise NotImplementedError


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n\x00".join(parts).encode("utf-8")).hexdigest()[:16]


@dataclass
class SpecInputs:
    texts: list[str]


class Paper(Workload):
    """Example 1, then Example 2, from the shipped spec files (seed-independent)."""

    name = "paper"
    exchanges_per_op = 2
    warmup_ops = 20

    def make_inputs(self, seed: int, workdir: str) -> SpecInputs:
        texts = []
        for stem in ("example1", "example2"):
            path = os.path.join(ROOT, "examples", "specs", f"{stem}.exchange")
            with open(path, encoding="utf-8") as handle:
                texts.append(handle.read())
        return SpecInputs(texts)

    def operation(self, inputs: SpecInputs, i: int) -> list[Answer]:
        return [simulate_path(text) for text in inputs.texts]

    def check(self, inputs: SpecInputs, i: int, answers: list[Answer]) -> str | None:
        first, second = answers
        if first.problem != "example1" or not first.feasible:
            return f"example1 not shown feasible: {first}"
        if second.problem != "example2" or second.feasible:
            return f"example2 should be not shown feasible as specified: {second}"
        if second.indemnity_cents != EXAMPLE2_INDEMNITY_CENTS:
            return (
                f"example2 indemnity {second.indemnity_cents} cents, "
                f"expected {EXAMPLE2_INDEMNITY_CENTS}"
            )
        for answer in answers:
            if answer.unsafe:
                return f"{answer.problem}: unsafe parties {answer.unsafe}"
        return None

    def input_digest(self, inputs: SpecInputs) -> str:
        return _digest(inputs.texts)


class Chain(Workload):
    """Figure 1 generalised to a 64-broker resale chain, given as spec text."""

    name = "chain"
    warmup_ops = 2

    def make_inputs(self, seed: int, workdir: str) -> SpecInputs:
        # The seed sets prices only; the graph (258 sequencing edges) is fixed.
        margin = random.Random(seed).randint(1, 15)
        problem = resale_chain(CHAIN_BROKERS, retail=CHAIN_RETAIL, margin=margin)
        return SpecInputs([format_problem(problem)])

    def operation(self, inputs: SpecInputs, i: int) -> list[Answer]:
        return [simulate_path(inputs.texts[0])]

    def check(self, inputs: SpecInputs, i: int, answers: list[Answer]) -> str | None:
        (answer,) = answers
        if not answer.feasible:
            return f"{answer.problem} not shown feasible"
        if answer.unsafe:
            return f"{answer.problem}: unsafe parties {answer.unsafe}"
        return None

    def input_digest(self, inputs: SpecInputs) -> str:
        return _digest(inputs.texts)


@dataclass
class ChaosInputs:
    pool: list[tuple[Any, FaultPlan]]
    reference: dict[int, bool] = field(default_factory=dict)  # filled by check()


class Chaos(Workload):
    """Seeded random problems, each under a random fault plan, as ``repro chaos`` runs them."""

    name = "chaos"
    warmup_ops = 8

    def make_inputs(self, seed: int, workdir: str) -> ChaosInputs:
        rng = random.Random(seed)
        pool = []
        for _ in range(CHAOS_POOL):
            problem = random_problem(CHAOS_PROBLEMS, rng=random.Random(rng.random()))
            plan = random_fault_plan(
                principals=[p.name for p in problem.interaction.principals],
                trusted=[t.name for t in problem.interaction.trusted_components],
                seed=rng.randrange(2**31),
                config=FaultConfig(),
            )
            pool.append((problem, plan))
        return ChaosInputs(pool)

    def pool_size(self, inputs: ChaosInputs) -> int:
        return len(inputs.pool)

    def warm(self, inputs: ChaosInputs) -> None:
        # Fill the per-object hash caches of every pooled problem, so each
        # pass of the timed loop does the same work as the next.
        for problem, _ in inputs.pool:
            problem.feasibility()
        super().warm(inputs)

    def operation(self, inputs: ChaosInputs, i: int) -> list[Answer]:
        problem, plan = inputs.pool[i % len(inputs.pool)]
        if not problem.feasibility().feasible:
            return [Answer(problem.name, False, 0, (), "", NOT_SIMULATED)]
        sim = sim_runtime.Simulation.from_problem(
            problem, deadline=CHAOS_DEADLINE, fault_plan=plan
        )
        result = sim.run(max_time=CHAOS_MAX_TIME)
        report = sim_safety.evaluate_safety(problem, result)
        return [
            Answer(
                problem.name,
                True,
                0,
                _unsafe(report),
                result.final.digest(),
                _stats(result.stats),
                quiescent=result.quiescent,
            )
        ]

    def check(self, inputs: ChaosInputs, i: int, answers: list[Answer]) -> str | None:
        index = i % len(inputs.pool)
        problem, plan = inputs.pool[index]
        if index not in inputs.reference:
            inputs.reference[index] = reference_reduce(problem.sequencing_graph()).feasible
        (answer,) = answers
        if answer.feasible != inputs.reference[index]:
            return f"pool[{index}]: verdict {answer.feasible} disagrees with the reference engine"
        wrongly_unsafe = set(answer.unsafe) - plan.permanently_silent()
        if wrongly_unsafe:
            return f"pool[{index}]: unsafe parties {sorted(wrongly_unsafe)}"
        return None

    def input_digest(self, inputs: ChaosInputs) -> str:
        parts = []
        for problem, plan in inputs.pool:
            parts += [problem.name, format_problem(problem), plan.digest()]
        return _digest(parts)


@dataclass
class NetInputs:
    problem: Any
    run_root: str
    reference_digest: str = ""  # filled by check()


class Net(Workload):
    """Example 1 over loopback TCP, fault-free and then with a Producer crash."""

    name = "net"
    exchanges_per_op = 2
    networked = True

    def make_inputs(self, seed: int, workdir: str) -> NetInputs:
        return NetInputs(example1(), workdir)

    def operation(self, inputs: NetInputs, i: int) -> list[Answer]:
        answers = []
        for plan in (None, NET_CRASH):
            run_dir = tempfile.mkdtemp(prefix=f"op{i}-", dir=inputs.run_root)
            run = supervisor.run_networked_exchange(
                inputs.problem, run_dir, NET_CONFIG, fault_plan=plan
            )
            answers.append(
                Answer(
                    inputs.problem.name,
                    True,
                    0,
                    _unsafe(run.report),
                    run.result.final.digest(),
                    _stats(run.result.stats),
                    quiescent=run.result.quiescent,
                    kills=run.kills,
                    restarts=run.restarts,
                    run_dir=run_dir,
                )
            )
        return answers

    def check(self, inputs: NetInputs, i: int, answers: list[Answer]) -> str | None:
        if not inputs.reference_digest:
            reference = sim_runtime.simulate(example1(), deadline=NET_CONFIG.deadline)
            inputs.reference_digest = reference.final.digest()
        plain, crashed = answers
        for answer in answers:
            if answer.digest != inputs.reference_digest:
                return f"final ledger digest {answer.digest} != simulator's {inputs.reference_digest}"
            if not answer.quiescent:
                return "networked run did not reach quiescence"
            if answer.unsafe:
                return f"unsafe parties {answer.unsafe}"
        if (plain.kills, plain.restarts) != (0, 0):
            return f"fault-free run shows {plain.kills} kills, {plain.restarts} restarts"
        if (crashed.kills, crashed.restarts) != (1, 1):
            return f"crash run shows {crashed.kills} kills, {crashed.restarts} restarts"
        return None

    def input_digest(self, inputs: NetInputs) -> str:
        return _digest([format_problem(inputs.problem), NET_CRASH.digest()])


def wal_records_and_bytes(run_dir: str) -> tuple[int, int]:
    """Records and bytes across every WAL of one networked run."""
    records = size = 0
    wal_dir = os.path.join(run_dir, "wal")
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as handle:
            data = handle.read()
        records += data.count(b"\n")
        size += len(data)
    return records, size


def last_delivery_time(run_dir: str) -> float:
    """Sim time of the run's last delivery, from its ``deliveries.jsonl``."""
    last = 0.0
    with open(os.path.join(run_dir, "deliveries.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            last = max(last, float(json.loads(line)["time"]))
    return last


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Paper(), Chain(), Chaos(), Net())}
