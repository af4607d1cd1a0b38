"""Integration tests: honest simulations of synthesized protocols."""

import pytest

from repro.core.indemnity import plan_indemnities
from repro.errors import ProtocolError, SimulationError
from repro.sim import Simulation, evaluate_safety, simulate
from repro.workloads import example1, example2, figure7, resale_chain, simple_purchase


def _party(problem, name):
    return next(p for p in problem.interaction.parties if p.name == name)


class TestHonestExample1:
    def test_both_exchanges_complete(self):
        problem = example1()
        result = simulate(problem)
        assert {p.name for p in result.completed_agents} == {"Trusted1", "Trusted2"}
        assert result.reversed_agents == frozenset()

    def test_final_ownership(self):
        problem = example1()
        result = simulate(problem)
        consumer = _party(problem, "Consumer")
        assert result.final.documents_of(consumer) == frozenset({"d"})

    def test_money_flows(self):
        problem = example1()
        result = simulate(problem)
        assert result.money_delta(_party(problem, "Consumer")) == -1200
        assert result.money_delta(_party(problem, "Broker")) == 200  # margin
        assert result.money_delta(_party(problem, "Producer")) == 1000
        for name in ("Trusted1", "Trusted2"):
            assert result.money_delta(_party(problem, name)) == 0

    def test_message_count_is_ten(self):
        # 8 transfers + 2 notifies, matching the §5 listing exactly.
        result = simulate(example1())
        assert result.stats.messages_delivered == 10
        assert result.stats.transfers == 8
        assert result.stats.notifies == 2

    def test_safety_report_all_ok(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        assert report.honest_parties_safe()
        assert all(v.ok for v in report.verdicts)

    def test_deterministic(self):
        r1 = simulate(example1())
        r2 = simulate(example1())
        assert [str(a) for a in r1.delivered] == [str(a) for a in r2.delivered]
        assert r1.duration == r2.duration


class TestHonestOtherTopologies:
    def test_simple_purchase(self):
        problem = simple_purchase()
        result = simulate(problem)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe()
        assert len(result.completed_agents) == 1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_chains_complete(self, n):
        problem = resale_chain(n, retail=100.0)
        result = simulate(problem)
        assert len(result.completed_agents) == n + 1
        consumer = _party(problem, "Consumer")
        assert result.final.documents_of(consumer) == frozenset({"d"})
        assert evaluate_safety(problem, result).honest_parties_safe()

    def test_latency_scales_duration(self):
        fast = simulate(example1(), latency=1.0)
        slow = simulate(example1(), latency=2.0)
        assert slow.duration == 2 * fast.duration


class TestIndemnitySimulations:
    def _plan(self, problem, via_name="Trusted1"):
        cover = next(
            e
            for e in problem.interaction.edges
            if e.principal.name == "Consumer" and e.trusted.name == via_name
        )
        return plan_indemnities(problem, [cover])

    def test_example2_completes_with_plan(self):
        problem = example2()
        plan = self._plan(problem)
        result = Simulation.from_plan(problem, plan, deadline=100.0).run()
        assert len(result.completed_agents) == 4
        consumer = _party(problem, "Consumer")
        assert result.final.documents_of(consumer) == frozenset({"d1", "d2"})
        assert evaluate_safety(problem, result).honest_parties_safe()

    def test_escrow_refunded_on_success(self):
        problem = example2()
        plan = self._plan(problem)
        result = Simulation.from_plan(problem, plan, deadline=100.0).run()
        broker1 = _party(problem, "Broker1")
        # Broker1 nets its margin; the $22 escrow came back.
        assert result.money_delta(broker1) == 200

    def test_figure7_greedy_plan_completes(self):
        from repro.core.indemnity import minimal_indemnity_plan

        problem = figure7()
        plan = minimal_indemnity_plan(problem)
        result = Simulation.from_plan(problem, plan, deadline=200.0).run()
        assert len(result.completed_agents) == 6
        consumer = _party(problem, "Consumer")
        assert result.final.documents_of(consumer) == frozenset({"d1", "d2", "d3"})
        assert evaluate_safety(problem, result).honest_parties_safe()


class TestRuntimeGuards:
    @pytest.mark.parametrize("deadline", [-1.0, 0.0, float("nan")])
    def test_deadline_not_positive_is_rejected_before_the_run(self, deadline):
        # A spec may not say `deadline 0` either; a bad run-wide default
        # used to fail mid-run, at the first deadline stamp or timer.
        with pytest.raises(ProtocolError, match=f"deadlines must be positive, got {deadline}"):
            Simulation.from_problem(example1(), deadline=deadline)

    @pytest.mark.parametrize("deadline", [-1.0, 0.0])
    def test_plan_deadline_not_positive_is_rejected_before_the_run(self, deadline):
        problem = example2()
        cover = problem.interaction.find_edge("Consumer", "Trusted1")
        with pytest.raises(ProtocolError, match=f"deadlines must be positive, got {deadline}"):
            Simulation.from_plan(problem, plan_indemnities(problem, [cover]), deadline=deadline)

    def test_max_time_enforced(self):
        sim = Simulation.from_problem(example1())
        with pytest.raises(SimulationError, match="max_time"):
            sim.run(max_time=0.5)

    def test_conservation_holds_throughout(self):
        # seal() totals vs final totals — the ledger checks after every hop,
        # so simply completing the run certifies conservation.
        result = simulate(example1())
        initial_total = sum(result.initial.balances.values())
        final_total = sum(result.final.balances.values())
        assert initial_total == final_total

    def test_global_state_contains_all_transfers(self):
        result = simulate(example1())
        assert len(result.global_state.transfers()) == 8
