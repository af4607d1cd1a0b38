"""Socket-parity differential arm: simulator vs. networked runtime.

The §5 safety theorem is transport-independent: whether messages die in a
discrete-event queue or on a real TCP socket, every honest party that is
not permanently silent must end the exchange safe.  This module checks
that claim *differentially* — one seeded problem and one seeded
:class:`~repro.sim.faults.FaultPlan` run through the in-process simulator
(:class:`repro.sim.runtime.Simulation`) and the socket runtime
(:func:`repro.net.supervisor.run_networked_exchange`), where party crashes
are real process kills.

Both runtimes interpret one transport core whose fault rolls are keyed by
envelope and attempt, so an envelope meets the same fate on every attempt
both make.  Which attempts they make still depends on wall-clock timing —
an acknowledgement can race a retransmission, a respawn takes real time —
so this arm asserts what the theorem guarantees:

* the per-party safety verdict (``ok``) for every party that is not
  permanently silent, in both arms;
* the identically-derived initial ledger (digest equality);
* money conservation across the networked run (initial total == final
  total — every transfer double-entry, nothing minted by the wire).

Seed derivation mirrors :func:`repro.analysis.chaos_study.chaos_scenarios`
(``rng.random()`` problem seeds, ``rng.randrange(2**31)`` fault seeds from
one master generator), so a master seed pins the whole sweep.  Every case
draws its problem with the chaos study's low priority density and its plan
from the default :class:`~repro.sim.faults.FaultConfig`, and both arms run
at unit latency with a :data:`DEADLINE` of 60 and a :data:`MAX_SIM_TIME` of
400 sim units.  Infeasible problems are recorded but not run — the theorem
says nothing about them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.batch import ProblemSpec
from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.sim.faults import random_fault_plan
from repro.sim.runtime import Simulation
from repro.sim.safety import evaluate_safety
from repro.workloads.random_graphs import RandomProblemConfig

#: The problems of the sweep: most are feasible at this priority density.
PROBLEMS = RandomProblemConfig(priority_probability=0.1)
#: The trusted components' deadline, in both arms.
DEADLINE = 60.0
#: The sim-time cap on both arms; the socket arm reports reaching it as a timeout.
MAX_SIM_TIME = 400.0


@dataclass(frozen=True)
class ParityCase:
    """One problem-seed × fault-seed cell of the parity sweep."""

    index: int
    problem_seed: float
    fault_seed: int


@dataclass(frozen=True)
class ParityConfig:
    """How the socket arm runs its nodes; the rest of a case is fixed."""

    time_scale: float = 0.01  # wall seconds per sim unit in the net arm
    spawn: str = "task"  # parity sweeps favor the fast in-process nodes


@dataclass(frozen=True)
class ParityVerdict:
    """Both arms' outcomes for one case, flattened for reporting."""

    index: int
    problem_seed: float
    fault_seed: int
    fault_digest: str
    feasible: bool
    simulated: bool
    sim_safe: bool = True
    net_safe: bool = True
    verdicts_match: bool = True
    initial_match: bool = True
    conserved: bool = True
    mismatches: tuple[str, ...] = ()
    silent_parties: tuple[str, ...] = ()
    crashed_parties: tuple[str, ...] = ()
    kills: int = 0
    restarts: int = 0
    net_outcome: str = "not-run"

    @property
    def ok(self) -> bool:
        return self.verdicts_match and self.initial_match and self.conserved

    def describe(self) -> str:
        if not self.simulated:
            return f"case {self.index}: infeasible (skipped)"
        status = "ok" if self.ok else "MISMATCH " + ", ".join(self.mismatches)
        return (
            f"case {self.index}: {status} "
            f"(sim_safe={self.sim_safe}, net_safe={self.net_safe}, "
            f"kills={self.kills}, restarts={self.restarts}, "
            f"outcome={self.net_outcome})"
        )


def parity_cases(count: int, master_seed: int = 0) -> list[ParityCase]:
    """Derive *count* cases from one master seed (chaos-study discipline)."""
    rng = random.Random(master_seed)
    return [
        ParityCase(
            index=i,
            problem_seed=rng.random(),
            fault_seed=rng.randrange(2**31),
        )
        for i in range(count)
    ]


def run_parity_case(
    case: ParityCase,
    run_dir: str,
    config: ParityConfig = ParityConfig(),
) -> ParityVerdict:
    """Run one case through both runtimes and compare what must agree."""
    problem = ProblemSpec(config=PROBLEMS, seed=case.problem_seed).build()
    plan = random_fault_plan(
        principals=[p.name for p in problem.interaction.principals],
        trusted=[t.name for t in problem.interaction.trusted_components],
        seed=case.fault_seed,
    )
    silent = tuple(sorted(plan.permanently_silent()))
    crashed = tuple(sorted(plan.faulted_parties() - set(silent)))
    if not problem.feasibility().feasible:
        return ParityVerdict(
            index=case.index,
            problem_seed=case.problem_seed,
            fault_seed=case.fault_seed,
            fault_digest=plan.digest(),
            feasible=False,
            simulated=False,
            silent_parties=silent,
            crashed_parties=crashed,
        )

    sim = Simulation.from_problem(
        problem, deadline=DEADLINE, fault_plan=plan, seed=case.problem_seed
    )
    sim_result = sim.run(max_time=MAX_SIM_TIME)
    sim_report = evaluate_safety(problem, sim_result)

    net_run = run_networked_exchange(
        problem,
        run_dir,
        NetRunConfig(
            time_scale=config.time_scale,
            deadline=DEADLINE,
            max_sim_time=MAX_SIM_TIME,
            spawn=config.spawn,
        ),
        fault_plan=plan,
    )
    net_result, net_report = net_run.result, net_run.report

    excluded = frozenset(silent)
    sim_ok = {
        v.party.name: v.ok for v in sim_report.verdicts if v.party.name not in excluded
    }
    net_ok = {
        v.party.name: v.ok for v in net_report.verdicts if v.party.name not in excluded
    }
    verdict_mismatches: list[str] = []
    if set(sim_ok) != set(net_ok):
        verdict_mismatches.append(
            f"party sets differ: sim={sorted(sim_ok)} net={sorted(net_ok)}"
        )
    else:
        for name in sorted(sim_ok):
            if sim_ok[name] != net_ok[name]:
                verdict_mismatches.append(
                    f"{name}: sim ok={sim_ok[name]} net ok={net_ok[name]}"
                )

    mismatches = list(verdict_mismatches)
    initial_match = sim_result.initial.digest() == net_result.initial.digest()
    if not initial_match:
        mismatches.append("initial ledgers differ")
    conserved = sum(net_result.initial.balances.values()) == sum(
        net_result.final.balances.values()
    )
    if not conserved:
        mismatches.append("money not conserved in net arm")

    return ParityVerdict(
        index=case.index,
        problem_seed=case.problem_seed,
        fault_seed=case.fault_seed,
        fault_digest=plan.digest(),
        feasible=True,
        simulated=True,
        sim_safe=all(sim_ok.values()),
        net_safe=all(net_ok.values()),
        verdicts_match=not verdict_mismatches,
        initial_match=initial_match,
        conserved=conserved,
        mismatches=tuple(mismatches),
        silent_parties=silent,
        crashed_parties=crashed,
        kills=net_run.kills,
        restarts=net_run.restarts,
        net_outcome=net_run.outcome,
    )
