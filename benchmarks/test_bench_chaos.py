"""CHAOS — the protection claim under transport and process faults.

The paper proves the no-honest-loss guarantee on a perfect wire; the
fault-injection layer re-checks it on a hostile one.  These benchmarks time
the chaos sweep (random problems × seeded fault plans, run to quiescence
through the safety monitor) and assert its two headline results: zero
violations for feasible exchanges under the synthesized protocol, and ≥1
detected honest loss for the naive direct exchange under the same fault
schedules (the differential proves the detector is live).
"""

from repro.analysis.chaos_study import ChaosConfig, chaos_study
from repro.sim.faults import FaultConfig, FaultPlan, LinkFault
from repro.sim.runtime import Simulation
from repro.sim.safety import evaluate_safety
from repro.workloads import example1

SMOKE = ChaosConfig(scenarios=120, seed=1996)


def test_bench_chaos_sweep_no_honest_loss(benchmark):
    report = benchmark(chaos_study, SMOKE, processes=1)
    assert report.simulated >= 100
    assert report.violation_count == 0, "\n".join(report.describe())
    assert report.differential_ok, "direct baseline showed no harm"


def test_bench_chaos_crash_heavy_reversals(benchmark):
    config = ChaosConfig(
        scenarios=80,
        seed=7,
        faults=FaultConfig(
            crash_probability=0.9, permanent_silence_probability=0.7
        ),
    )
    report = benchmark(chaos_study, config, processes=1)
    assert report.violation_count == 0, "\n".join(report.describe())
    counts = report.recovery_counts
    assert counts.get("reversed", 0) + counts.get("mixed", 0) > 0


def test_bench_single_faulty_run_example1(benchmark):
    # The partition window loses every attempt made before t=1 — the first
    # sends — whatever the seed's rolls, so retransmission is certain.
    plan = FaultPlan(
        seed=5,
        links=(
            LinkFault(drop=0.3, duplicate=0.2, max_delay=2.0, partitions=((0.0, 1.0),)),
        ),
        heal_at=30.0,
    )

    def run():
        problem = example1()
        sim = Simulation.from_problem(problem, deadline=200.0, fault_plan=plan)
        result = sim.run(max_time=5000.0)
        return problem, result

    problem, result = benchmark(run)
    report = evaluate_safety(problem, result)
    assert report.honest_parties_safe(), "\n".join(report.describe())
    assert result.stats.retransmits > 0  # the faults actually bit
