"""Adversarial simulations: the protocol's safety claim under defection.

The paper's core promise: following the recovered execution sequence, "the
interests of all parties will be protected" — whatever a deviating
participant does, every honest party ends in one of its acceptable states.
"""

import pytest

from repro.core.indemnity import plan_indemnities
from repro.errors import FaultInjectionError
from repro.sim import (
    Simulation,
    evaluate_safety,
    simulate,
    withholder,
    wrong_item_sender,
)
from repro.workloads import example1, example2, resale_chain, simple_purchase

DEADLINE = 60.0


def _run(problem, adversaries):
    return simulate(problem, adversaries=adversaries, deadline=DEADLINE)


class TestWithholdersExample1:
    @pytest.mark.parametrize("cheat", ["Consumer", "Broker", "Producer"])
    def test_total_noshow_harms_no_honest_party(self, cheat):
        problem = example1()
        result = _run(problem, {cheat: withholder(0)})
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({cheat})), report.describe()

    @pytest.mark.parametrize("cheat", ["Consumer", "Broker", "Producer"])
    def test_noshow_leaves_everyone_at_status_quo(self, cheat):
        problem = example1()
        result = _run(problem, {cheat: withholder(0)})
        for party in problem.interaction.parties:
            assert result.money_delta(party) == 0, party.name
        assert result.completed_agents == frozenset()

    def test_broker_reneging_midway_harms_nobody_honest(self):
        # Broker pays Trusted2 (first instruction) but never delivers to
        # Trusted1: deadline reversal refunds the consumer and... the broker
        # itself got the document it paid for, so Trusted2's exchange stands.
        problem = example1()
        result = _run(problem, {"Broker": withholder(1)})
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({"Broker"}))

    def test_partial_renege_consumer_refunded(self):
        problem = example1()
        result = _run(problem, {"Broker": withholder(1)})
        consumer = next(p for p in problem.interaction.parties if p.name == "Consumer")
        assert result.money_delta(consumer) == 0


class TestWrongItem:
    def test_bogus_document_rejected_and_harmless(self):
        problem = example1()
        result = _run(problem, {"Producer": wrong_item_sender("d")})
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({"Producer"}))
        # The bogus document bounced back to the producer.
        producer = next(p for p in problem.interaction.parties if p.name == "Producer")
        assert "bogus" in result.final.documents_of(producer)

    def test_exchange_does_not_complete_with_bogus_goods(self):
        problem = example1()
        result = _run(problem, {"Producer": wrong_item_sender("d")})
        trusted2 = next(p for p in problem.interaction.parties if p.name == "Trusted2")
        assert trusted2 not in result.completed_agents

    def test_simple_purchase_bogus_seller(self):
        problem = simple_purchase()
        result = _run(problem, {"Producer": wrong_item_sender("d")})
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({"Producer"}))


class TestChainsUnderAttack:
    @pytest.mark.parametrize("cheat", ["Consumer", "Broker1", "Broker2", "Producer"])
    def test_any_single_defector_harms_no_honest_party(self, cheat):
        problem = resale_chain(2, retail=100.0)
        result = _run(problem, {cheat: withholder(0)})
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({cheat})), report.describe()

    def test_two_simultaneous_defectors(self):
        problem = resale_chain(3, retail=100.0)
        cheats = {"Broker1": withholder(0), "Broker3": withholder(0)}
        result = _run(problem, cheats)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset(cheats))


class TestIndemnityForfeit:
    def test_broker1_reneges_consumer_compensated(self):
        # §6's raison d'être: Broker1 escrows $22 then never delivers d1.
        # The consumer buys d2 anyway and is made whole by the forfeit.
        problem = example2()
        cover = problem.interaction.find_edge("Consumer", "Trusted1")
        plan = plan_indemnities(problem, [cover])
        sim = Simulation.from_plan(
            problem, plan, adversaries={"Broker1": withholder(1)}, deadline=DEADLINE
        )
        result = sim.run()
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({"Broker1"})), report.describe()
        consumer = next(p for p in problem.interaction.parties if p.name == "Consumer")
        verdict = report.verdict_of("Consumer")
        assert verdict.forfeits_received_cents == 2200
        assert result.money_delta(consumer) == 0  # d2 outlay offset by forfeit
        assert result.final.documents_of(consumer) == frozenset({"d2"})

    def test_cheating_broker_pays_for_it(self):
        problem = example2()
        cover = problem.interaction.find_edge("Consumer", "Trusted1")
        plan = plan_indemnities(problem, [cover])
        sim = Simulation.from_plan(
            problem, plan, adversaries={"Broker1": withholder(1)}, deadline=DEADLINE
        )
        result = sim.run()
        broker1 = next(p for p in problem.interaction.parties if p.name == "Broker1")
        assert result.money_delta(broker1) == -2200  # escrow forfeited

    def test_honest_run_refunds_escrow(self):
        problem = example2()
        cover = problem.interaction.find_edge("Consumer", "Trusted1")
        plan = plan_indemnities(problem, [cover])
        result = Simulation.from_plan(problem, plan, deadline=DEADLINE).run()
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe()
        assert report.verdict_of("Consumer").forfeits_received_cents == 0


class TestAdversaryNames:
    @pytest.mark.parametrize("name", ["Brokr", "Trusted1"])
    def test_an_adversary_must_name_a_principal(self, name):
        # A misspelled principal would run honestly, and a trusted
        # component follows §2.5 by definition.
        with pytest.raises(FaultInjectionError, match="not a principal"):
            simulate(example1(), adversaries={name: withholder(0)})


class TestAdversaryStrategyObjects:
    def test_describe(self):
        assert "first 0" in withholder(0).describe()
        strategy = wrong_item_sender("d", "junk")
        assert "substitutes" in strategy.describe()
