"""Tests for the fault-injection layer: plans, unreliable transport, and
full simulations under chaos."""

import dataclasses
import pickle

import pytest

from repro.core.actions import pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.core.protocol import derive_protocol
from repro.errors import FaultInjectionError, SimulationError
from repro.sim.faults import (
    CLEAN,
    LOST,
    FaultConfig,
    FaultPlan,
    LinkFault,
    PartyFault,
    RetryPolicy,
    fault_rolls,
    random_fault_plan,
)
from repro.sim.ledger import WIRE, Ledger
from repro.sim.network import Arrival, TransportCore
from repro.sim.runtime import Simulation
from repro.sim.safety import evaluate_safety
from repro.workloads import example1

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")
M = money(10)


class TestFaultPlan:
    def test_validate_rejects_bad_probability(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(links=(LinkFault(drop=1.5),)).validate()

    def test_validate_rejects_restart_before_crash(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(parties=(PartyFault("c", 5.0, 3.0),)).validate()

    def test_validate_rejects_partition_past_heal(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(
                links=(LinkFault(partitions=((0.0, 40.0),)),), heal_at=30.0
            ).validate()

    def test_validate_rejects_duplicate_party_fault(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(
                parties=(PartyFault("c", 1.0, 2.0), PartyFault("c", 5.0))
            ).validate()

    def test_crashed_windows(self):
        fault = PartyFault("c", 2.0, 5.0)
        assert not fault.crashed(1.0)
        assert fault.crashed(2.0)
        assert fault.crashed(4.9)
        assert not fault.crashed(5.0)
        assert PartyFault("c", 2.0).crashed(1e9)  # permanent

    def test_digest_stable_and_sensitive(self):
        plan = random_fault_plan(["a", "b"], seed=3)
        assert plan.digest() == random_fault_plan(["a", "b"], seed=3).digest()
        assert plan.digest() != random_fault_plan(["a", "b"], seed=4).digest()

    def test_plan_is_picklable(self):
        plan = random_fault_plan(["a", "b"], ["t"], seed=9)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_random_plan_never_silences_trusted(self):
        for seed in range(200):
            plan = random_fault_plan(
                ["a"], ["t1", "t2"], seed=seed,
                config=FaultConfig(crash_probability=1.0,
                                   permanent_silence_probability=1.0),
            )
            for name in plan.permanently_silent():
                assert name == "a"

    @pytest.mark.parametrize("field", ["crash_probability", "permanent_silence_probability"])
    def test_config_rejects_a_party_fault_probability_above_one(self, field):
        with pytest.raises(
            FaultInjectionError, match=rf"{field} must be a probability in \[0, 1\], got 2.0"
        ):
            FaultConfig(**{field: 2.0})

    def test_retry_policy_caps(self):
        policy = RetryPolicy(base_timeout=4.0, backoff=2.0, max_timeout=16.0)
        assert [policy.timeout_for(i) for i in (1, 2, 3, 4, 5)] == [
            4.0, 8.0, 16.0, 16.0, 16.0
        ]


class TestFaultRolls:
    """One keyed roll per attempt: fates depend on the envelope, not on order."""

    @pytest.mark.parametrize(
        "seed, key, attempt, rolls",
        [
            (0, "Customer:1", 1, (0.6831594962497808, 0.7233039636701171, 0.9612612005343546)),
            (7, "Trusted:3", 2, (0.26826805100365014, 0.364936623544862, 0.3993135023210924)),
            (1996, "Broker1:12", 5, (0.31303180577988243, 0.6002575759171646, 0.7681461909410453)),
        ],
    )
    def test_rolls_are_pinned(self, seed, key, attempt, rolls):
        assert fault_rolls(seed, key, attempt) == rolls

    def test_fate_reads_partition_then_drop_delay_and_duplicate(self):
        link = LinkFault(drop=0.6, duplicate=0.97, max_delay=2.0, partitions=((0.0, 1.0),))
        plan = FaultPlan(seed=0, links=(link,), heal_at=10.0)
        assert plan.fate("Customer", "T", "Customer:1", 1, 0.5) == LOST  # partitioned
        dropped, jitter, duplicated = plan.fate("Customer", "T", "Customer:1", 1, 2.0)
        assert not dropped  # drop roll 0.683 >= 0.6
        assert jitter == 0.7233039636701171 * 2.0
        assert duplicated  # duplicate roll 0.961 < 0.97
        assert plan.fate("Customer", "T", "Customer:1", 1, 10.0) == CLEAN  # healed

    def test_opposite_send_orders_give_every_attempt_the_same_fate(self):
        plan = FaultPlan(seed=11, links=(LinkFault(drop=0.4, duplicate=0.4, max_delay=2.0),))
        # Each envelope has a link of its own, so the FIFO floor cannot
        # couple one envelope's arrival times to another's.
        senders = [consumer(f"c{i}") for i in range(12)]
        keys = [f"c{i}:1" for i in range(12)]

        def arrivals(order):
            order = list(order)
            core = TransportCore(plan=plan)
            seen = {}
            for i in order:
                _, seen[keys[i]] = core.send(0.0, pay(senders[i], T, M), keys[i])
            # Every copy of attempt 1 arrives by 0 + 1 + 2 + 1 = 4.
            for i in order:
                envelope = core.envelopes[keys[i]]
                for time in seen[keys[i]]:
                    if core.arrive(time, envelope, down=False) is Arrival.FIRST:
                        core.deliver(time, envelope)
            for i in order:
                seen[keys[i]] = seen[keys[i]] + core.retransmit(5.0, keys[i])
            return seen, core.stats

        forward, forward_stats = arrivals(range(12))
        backward, backward_stats = arrivals(reversed(range(12)))
        assert forward == backward
        assert forward_stats == backward_stats
        assert forward_stats.dropped and forward_stats.duplicates  # the faults bit
        assert forward_stats.retransmits == 12


class TestUnreliableTransport:
    """The wire core's decisions at explicit times, and how a simulation
    hands copies and timers to crashed, silent and live parties."""

    def test_drop_all_never_delivers(self):
        core = TransportCore(plan=FaultPlan(seed=1, links=(LinkFault(drop=1.0),)))
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        assert arrivals == []
        assert not envelope.delivered
        assert core.stats.dropped == 1

    def test_retransmit_after_heal_delivers(self):
        plan = FaultPlan(seed=1, links=(LinkFault(drop=1.0),), heal_at=5.0)
        core = TransportCore(plan=plan)
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        assert arrivals == []
        assert core.retransmit(6.0, envelope.key) == [7.0]
        assert core.arrive(7.0, envelope, down=False) is Arrival.FIRST
        assert core.deliver(7.0, envelope)
        assert envelope.delivered and envelope.attempts == 2
        assert core.log[0].delivered_at == 7.0

    def test_duplicate_delivers_same_key_twice(self):
        core = TransportCore(plan=FaultPlan(seed=1, links=(LinkFault(duplicate=1.0),)))
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        assert arrivals == [1.0, 2.0]
        assert core.arrive(1.0, envelope, down=False) is Arrival.FIRST
        assert core.deliver(1.0, envelope)
        assert core.arrive(2.0, envelope, down=False) is Arrival.DUPLICATE
        assert core.stats.messages_delivered == 1
        assert core.stats.duplicate_deliveries == 1
        assert len(core.log) == 1  # the log records the message once

    def test_duplicate_for_crashed_recipient_is_dropped_not_parked(self):
        plan = FaultPlan(
            seed=1,
            links=(LinkFault(duplicate=1.0),),
            parties=(PartyFault("Trusted1", 0.5, 10.0),),
        )
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)
        handled = _handled(sim)
        result = sim.run(max_time=5000.0)
        # The consumer's deposit lands at 1 while Trusted1 is down: its first
        # copy is parked and handled at the restart; the second, arriving at
        # 2, counts as a duplicate and goes nowhere.  Copies for a live
        # party are handed over twice.
        assert [now for now, name, key in handled if key == "Consumer:1"] == [10.0]
        assert [now for now, name, key in handled if key == "Trusted1:1"] == [11.0, 12.0]
        assert result.stats.deferred == 1
        assert result.stats.duplicate_deliveries == result.stats.messages_sent == 10

    def test_partition_drops_everything_in_window(self):
        plan = FaultPlan(
            seed=1, links=(LinkFault(partitions=((0.0, 10.0),)),), heal_at=20.0
        )
        core = TransportCore(plan=plan)
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        assert arrivals == [] and core.stats.dropped == 1
        assert core.retransmit(10.0, envelope.key) == [11.0]  # the window closed

    def test_crashed_recipient_mailbox_replayed_at_restart(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("Trusted1", 0.5, 10.0),))
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)
        handled = _handled(sim)
        result = sim.run(max_time=5000.0)
        # Delivered (asset landed, sender acknowledged) at t=1 but handled
        # only at restart.
        deposit = sim.core.envelopes["Consumer:1"]
        assert deposit.delivered and deposit.delivered_at == 1.0
        assert handled[0] == (10.0, "Trusted1", "Consumer:1")
        assert result.stats.deferred == 1 and result.stats.retransmits == 0
        assert evaluate_safety(sim.problem, result).honest_parties_safe()

    def test_permanently_silent_recipient_never_handles(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("Consumer", 0.5),))
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)
        handled = _handled(sim)
        result = sim.run(max_time=5000.0)
        goods = sim.core.envelopes["Trusted1:2"]
        assert goods.recipient == "Consumer"
        assert goods.delivered  # the host took it; the process is gone
        assert "d" in result.final.documents_of(goods.action.effective_recipient)
        assert [entry for entry in handled if entry[1] == "Consumer"] == []
        assert result.stats.deferred == 1

    def test_abandon_invokes_custody_return_and_blocks_late_copies(self):
        core = TransportCore(plan=FaultPlan(seed=1, links=(LinkFault(max_delay=5.0),)))
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        # The runtime returns custody of the envelope abandon hands back.
        assert core.abandon(0.0, envelope.key) is envelope
        # The copy already on its way must not deliver.
        assert core.arrive(arrivals[0], envelope, down=False) is Arrival.BOUNCED
        assert not envelope.delivered and core.log == []
        assert core.retransmit(1.0, envelope.key) is None
        assert core.abandon(1.0, envelope.key) is None  # idempotent
        assert core.stats.abandoned == 1 and core.unresolved["c"] == 0

    def test_schedule_for_defers_across_crash_window(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("Consumer", 0.5, 20.0),))
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)
        fired = _fired(sim)
        sim.run(max_time=5000.0)
        # The consumer's retry timer for its deposit is due at 4.0, inside
        # the crash: it runs at the restart.
        assert [(now, key) for now, name, key in fired if name == "Consumer"] == [
            (20.0, "Consumer:1")
        ]

    def test_schedule_for_dies_with_permanently_silent_party(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("Consumer", 0.5),))
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)
        fired = _fired(sim)
        result = sim.run(max_time=5000.0)
        assert [entry for entry in fired if entry[1] == "Consumer"] == []
        assert result.duration == 11.0
        assert all(not slot.timers for slot in sim._slots.values())

    def test_schedule_for_cancel(self):
        sim = Simulation.from_problem(example1(), deadline=100.0, fault_plan=FaultPlan(seed=1))
        fired = _fired(sim)
        result = sim.run(max_time=5000.0)
        # Each trusted component arms its deadline at its first deposit and
        # cancels it on completion, long before the expiry.
        for party in sim.protocol.trusted_specs:
            (expiry,) = [record[1] for record in sim.logs[party] if record[0] == "armed"]
            assert expiry > result.duration
        assert [entry for entry in fired if entry[2] == "deadline"] == []
        assert result.duration == 11.0 and result.completed_agents == frozenset(
            sim.protocol.trusted_specs
        )
        assert all(not slot.timers for slot in sim._slots.values())

    def test_resolve_stranded_abandons_in_flight(self):
        core = TransportCore(plan=FaultPlan(seed=1, links=(LinkFault(drop=1.0),)))
        envelope, _ = core.send(0.0, pay(C, T, M))
        assert core.resolve_stranded(10.0) == [envelope]
        assert core.in_flight == [] and envelope.abandoned
        assert core.unresolved["c"] == 0

    def test_reliable_network_rejects_two_arg_only_behaviour(self):
        problem = example1()
        protocol = derive_protocol(problem, 100.0)
        without = {t: s for t, s in protocol.trusted_specs.items() if t.name != "Trusted1"}
        # Sanity: the reliable path still refuses a recipient outside the run,
        # which a hand-built protocol can name.
        sim = Simulation(problem, dataclasses.replace(protocol, trusted_specs=without))
        with pytest.raises(SimulationError, match="no party Trusted1 in this run"):
            sim.run()


def _handled(sim):
    """``(time, party name, key)`` of every copy a party's driver is handed."""
    return _spy(sim, "delivered")


def _fired(sim):
    """``(time, party name, timer name)`` of every timer a driver sees fire."""
    return _spy(sim, "fired")


def _spy(sim, method):
    seen = []
    for party, driver in sim.drivers.items():

        def spy(now, key, *rest, original=getattr(driver, method), name=party.name):
            seen.append((now, name, key))
            return original(now, key, *rest)

        setattr(driver, method, spy)
    return seen


class TestWireCustody:
    def _ledger(self):
        ledger = Ledger()
        ledger.endow_money(C, 1000)
        ledger.endow_document(P, "d")
        ledger.seal()
        return ledger

    def test_hold_then_release_moves_via_wire(self):
        ledger = self._ledger()
        ledger.move(C, WIRE, M)
        assert ledger.balance(C) == 0 and ledger.balance(WIRE) == 1000
        ledger.check()
        ledger.move(WIRE, T, M)
        assert ledger.balance(T) == 1000 and ledger.balance(WIRE) == 0
        ledger.check()

    def test_hold_then_return_restores_sender(self):
        ledger = self._ledger()
        ledger.move(P, WIRE, document("d"))
        assert ledger.holder("d") == WIRE
        ledger.move(WIRE, P, document("d"))
        assert ledger.holder("d") == P
        ledger.check()

    def test_in_transit_reports_holdings(self):
        ledger = self._ledger()
        ledger.move(C, WIRE, M)
        cash, docs = ledger.in_transit()
        assert cash == 1000 and docs == frozenset()


class TestSimulationUnderFaults:
    def _plan(self, seed=5, **kwargs):
        defaults = dict(
            links=(LinkFault(drop=0.3, duplicate=0.2, max_delay=2.0),),
            heal_at=30.0,
        )
        defaults.update(kwargs)
        return FaultPlan(seed=seed, **defaults)

    def test_feasible_run_completes_and_stays_safe(self):
        problem = example1()
        sim = Simulation.from_problem(
            problem, deadline=200.0, fault_plan=self._plan()
        )
        result = sim.run(max_time=5000.0)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe()
        assert result.quiescent and result.stranded_messages == 0
        assert result.final.balance(WIRE) == 0
        assert result.final.documents_of(WIRE) == frozenset()

    def test_identical_plans_reproduce_identical_runs(self):
        outcomes = []
        for _ in range(2):
            problem = example1()
            sim = Simulation.from_problem(
                problem, deadline=200.0, fault_plan=self._plan(seed=17)
            )
            result = sim.run(max_time=5000.0)
            outcomes.append(
                (result.duration, result.delivered, result.stats.retransmits)
            )
        assert outcomes[0] == outcomes[1]

    def test_provenance_recorded(self):
        problem = example1()
        plan = self._plan(seed=23)
        sim = Simulation.from_problem(
            problem, deadline=200.0, fault_plan=plan, seed=99
        )
        result = sim.run(max_time=5000.0)
        assert result.provenance.fault_seed == 23
        assert result.provenance.fault_digest == plan.digest()
        assert result.provenance.seed == 99
        assert result.provenance.deadline == 200.0

    def test_reliable_run_has_reliable_provenance(self):
        result = Simulation.from_problem(example1(), deadline=100.0).run()
        assert result.provenance.fault_seed is None
        assert result.provenance.fault_digest is None
        assert result.quiescent

    def test_plan_targeting_unknown_party_rejected(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("nobody", 1.0, 2.0),))
        with pytest.raises(FaultInjectionError, match="unknown party"):
            Simulation.from_problem(example1(), deadline=100.0, fault_plan=plan)

    def test_plan_silencing_trusted_component_rejected(self):
        problem = example1()
        victim = next(iter(problem.interaction.trusted_components)).name
        plan = FaultPlan(seed=1, parties=(PartyFault(victim, 1.0),))
        with pytest.raises(FaultInjectionError, match="permanently"):
            Simulation.from_problem(problem, deadline=100.0, fault_plan=plan)

    def test_crash_restart_trusted_component_still_safe(self):
        problem = example1()
        victim = next(iter(sorted(
            problem.interaction.trusted_components, key=lambda p: p.name
        ))).name
        plan = FaultPlan(
            seed=3,
            links=(LinkFault(drop=0.2, max_delay=1.0),),
            parties=(PartyFault(victim, 2.0, 12.0),),
            heal_at=30.0,
        )
        sim = Simulation.from_problem(problem, deadline=200.0, fault_plan=plan)
        result = sim.run(max_time=5000.0)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe()

    def test_permanently_silent_principal_cannot_harm_others(self):
        problem = example1()
        victim = sorted(problem.interaction.principals, key=lambda p: p.name)[0]
        plan = FaultPlan(
            seed=3,
            links=(LinkFault(drop=0.2, max_delay=1.0),),
            parties=(PartyFault(victim.name, 0.5),),
            heal_at=30.0,
        )
        sim = Simulation.from_problem(problem, deadline=60.0, fault_plan=plan)
        result = sim.run(max_time=5000.0)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({victim.name}))
        # Conduits stay clean even though the run was cut short.
        for component in problem.interaction.trusted_components:
            assert report.verdict_of(component.name).ok
