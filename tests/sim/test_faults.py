"""Tests for the fault-injection layer: plans, unreliable transport, and
full simulations under chaos."""

import pickle

import pytest

from repro.core.actions import give, pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.errors import FaultInjectionError, SimulationError
from repro.sim.events import EventQueue
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
from repro.sim.network import Network
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
            queue, network = _faulty_network(plan)
            seen = {key: [] for key in keys}
            network.register(T, lambda action, key: seen[key].append(queue.now))
            for i in order:
                network.send(pay(senders[i], T, M), keys[i])
            queue.schedule_at(
                5.0, lambda: [network.retransmit(keys[i]) for i in order]
            )
            _drain(queue)
            return seen, network.stats

        forward, forward_stats = arrivals(range(12))
        backward, backward_stats = arrivals(reversed(range(12)))
        assert forward == backward
        assert forward_stats == backward_stats
        assert forward_stats.dropped and forward_stats.duplicates  # the faults bit


def _drain(queue):
    while (event := queue.pop()) is not None:
        event.callback()


def _faulty_network(plan, latency=1.0):
    queue = EventQueue()
    network = Network(queue, latency=latency, fault_plan=plan)
    return queue, network


class TestUnreliableTransport:
    def test_drop_all_never_delivers(self):
        plan = FaultPlan(seed=1, links=(LinkFault(drop=1.0),))
        queue, network = _faulty_network(plan)
        received = []
        network.register(T, lambda a, key: received.append(a))
        envelope = network.send(pay(C, T, M))
        _drain(queue)
        assert received == []
        assert not envelope.delivered
        assert network.stats.dropped == 1

    def test_retransmit_after_heal_delivers(self):
        plan = FaultPlan(seed=1, links=(LinkFault(drop=1.0),), heal_at=5.0)
        queue, network = _faulty_network(plan)
        received = []
        network.register(T, lambda a, key: received.append(a))
        envelope = network.send(pay(C, T, M))
        _drain(queue)
        assert received == []
        queue.schedule_at(6.0, lambda: network.retransmit(envelope.key))
        _drain(queue)
        assert received == [pay(C, T, M)]
        assert envelope.delivered and envelope.attempts == 2

    def test_duplicate_delivers_same_key_twice(self):
        plan = FaultPlan(seed=1, links=(LinkFault(duplicate=1.0),))
        queue, network = _faulty_network(plan)
        keys = []
        network.register(T, lambda a, key: keys.append(key))
        network.send(pay(C, T, M))
        _drain(queue)
        assert len(keys) == 2 and keys[0] == keys[1]
        assert network.stats.messages_delivered == 1
        assert network.stats.duplicate_deliveries == 1
        assert len(network.log) == 1  # the log records the message once

    def test_duplicate_for_crashed_recipient_is_dropped_not_parked(self):
        plan = FaultPlan(
            seed=1, links=(LinkFault(duplicate=1.0),), parties=(PartyFault("t", 0.0, 10.0),)
        )
        queue, network = _faulty_network(plan)
        keys = []
        network.register(T, lambda a, key: keys.append(key))
        network.send(pay(C, T, M))
        _drain(queue)
        # The first copy is parked and handled at restart; the second,
        # arriving while t is down, counts as a duplicate and goes nowhere.
        assert len(keys) == 1
        assert network.stats.deferred == 1
        assert network.stats.duplicate_deliveries == 1

    def test_partition_drops_everything_in_window(self):
        plan = FaultPlan(
            seed=1, links=(LinkFault(partitions=((0.0, 10.0),)),), heal_at=20.0
        )
        queue, network = _faulty_network(plan)
        received = []
        network.register(T, lambda a, key: received.append(a))
        network.send(pay(C, T, M))
        _drain(queue)
        assert received == [] and network.stats.dropped == 1

    def test_crashed_recipient_mailbox_replayed_at_restart(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("t", 0.0, 10.0),))
        queue, network = _faulty_network(plan)
        arrivals = []
        network.register(T, lambda a, key: arrivals.append(queue.now))
        envelope = network.send(pay(C, T, M))
        _drain(queue)
        # Delivered (asset landed) at t=1 but handled only at restart.
        assert envelope.delivered and envelope.delivered_at == 1.0
        assert arrivals == [10.0]
        assert network.stats.deferred == 1

    def test_permanently_silent_recipient_never_handles(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("t", 0.0),))
        queue, network = _faulty_network(plan)
        arrivals = []
        network.register(T, lambda a, key: arrivals.append(a))
        envelope = network.send(pay(C, T, M))
        _drain(queue)
        assert envelope.delivered  # the host took it; the process is gone
        assert arrivals == []

    def test_abandon_invokes_custody_return_and_blocks_late_copies(self):
        plan = FaultPlan(seed=1, links=(LinkFault(max_delay=5.0),))
        queue, network = _faulty_network(plan)
        returned = []
        network.custody_return_hook = lambda env: returned.append(env.key)
        received = []
        network.register(T, lambda a, key: received.append(a))
        envelope = network.send(pay(C, T, M))
        assert network.abandon(envelope.key)
        _drain(queue)  # the already-scheduled copy must not deliver
        assert received == [] and returned == [envelope.key]
        assert not network.abandon(envelope.key)  # idempotent

    def test_schedule_for_defers_across_crash_window(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("c", 2.0, 8.0),))
        queue, network = _faulty_network(plan)
        network.register(C, lambda a, key: None)
        fired = []
        network.schedule_for(C, 3.0, lambda: fired.append(queue.now))
        _drain(queue)
        assert fired == [8.0]  # due at 3.0 inside the crash, runs at restart

    def test_schedule_for_dies_with_permanently_silent_party(self):
        plan = FaultPlan(seed=1, parties=(PartyFault("c", 2.0),))
        queue, network = _faulty_network(plan)
        network.register(C, lambda a, key: None)
        fired = []
        network.schedule_for(C, 3.0, lambda: fired.append(queue.now))
        _drain(queue)
        assert fired == []

    def test_schedule_for_cancel(self):
        queue, network = _faulty_network(FaultPlan(seed=1))
        fired = []
        handle = network.schedule_for(C, 3.0, lambda: fired.append(1))
        handle.cancel()
        _drain(queue)
        assert fired == []

    def test_resolve_stranded_abandons_in_flight(self):
        plan = FaultPlan(seed=1, links=(LinkFault(drop=1.0),))
        queue, network = _faulty_network(plan)
        network.register(T, lambda a, key: None)
        network.send(pay(C, T, M))
        _drain(queue)
        stranded = network.resolve_stranded()
        assert len(stranded) == 1 and network.in_flight == []

    def test_reliable_network_rejects_two_arg_only_behaviour(self):
        # Sanity: the reliable path still refuses unknown recipients.
        queue = EventQueue()
        network = Network(queue)
        with pytest.raises(SimulationError):
            network.send(pay(C, T, M))


class TestWireCustody:
    def _ledger(self):
        ledger = Ledger()
        ledger.endow_money(C, 1000)
        ledger.endow_document(P, "d")
        ledger.seal()
        return ledger

    def test_hold_then_release_moves_via_wire(self):
        ledger = self._ledger()
        action = pay(C, T, M)
        ledger.hold_in_transit(action)
        assert ledger.balance(C) == 0 and ledger.balance(WIRE) == 1000
        ledger.check()
        ledger.release_from_transit(action)
        assert ledger.balance(T) == 1000 and ledger.balance(WIRE) == 0
        ledger.check()

    def test_hold_then_return_restores_sender(self):
        ledger = self._ledger()
        action = give(P, T, document("d"))
        ledger.hold_in_transit(action)
        assert ledger.holder("d") == WIRE
        ledger.return_from_transit(action)
        assert ledger.holder("d") == P
        ledger.check()

    def test_in_transit_reports_holdings(self):
        ledger = self._ledger()
        ledger.hold_in_transit(pay(C, T, M))
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
