"""Unit tests for the network transport and the principal's driver."""

import dataclasses

import pytest

from repro.core.actions import give, notify, pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.core.protocol import PrincipalRole, SendInstruction, derive_protocol
from repro.errors import SimulationError
from repro.sim.agents import slow_party, withholder, wrong_item_sender
from repro.sim.driver import PrincipalDriver
from repro.sim.faults import FaultPlan
from repro.sim.network import Arrival, TransportCore
from repro.sim.runtime import Simulation
from repro.workloads import example1
from tests.sim.driver_harness import Harness

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")
M = money(10)


class TestNetwork:
    """The wire core on the reliable wire, and the simulator's routing."""

    def test_delivery_after_latency(self):
        core = TransportCore(latency=3.0)
        envelope, arrivals = core.send(0.0, pay(C, T, M))
        assert arrivals == [3.0]
        assert core.arrive(3.0, envelope, down=False) is Arrival.FIRST
        assert core.deliver(3.0, envelope)
        assert [delivery.action for delivery in core.log] == [pay(C, T, M)]

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError, match="latency must be non-negative"):
            TransportCore(latency=-1.0)
        with pytest.raises(SimulationError, match="latency must be non-negative"):
            Simulation.from_problem(example1(), latency=-1.0)

    def test_unregistered_recipient_rejected(self):
        problem = example1()
        protocol = derive_protocol(problem, 100.0)
        without = {t: s for t, s in protocol.trusted_specs.items() if t.name != "Trusted1"}
        # A hand-built protocol can name a party the run does not have.
        sim = Simulation(
            problem,
            dataclasses.replace(protocol, trusted_specs=without),
            fault_plan=FaultPlan(seed=1),
        )
        with pytest.raises(SimulationError, match="no party Trusted1 in this run"):
            sim.run()

    def test_inverted_transfer_routes_to_original_sender(self):
        core = TransportCore()
        refund = pay(C, T, M).inverse()  # t returns money to c
        envelope, arrivals = core.send(0.0, refund)
        assert (envelope.sender, envelope.recipient) == ("t", "c")
        assert arrivals == [1.0]
        assert core.stats.by_sender == {T: 1}

    def test_stats_counters(self):
        core = TransportCore()
        for action in (pay(C, T, M), notify(T, C)):
            envelope, (arrival,) = core.send(0.0, action)
            assert core.arrive(arrival, envelope, down=False) is Arrival.FIRST
            core.deliver(arrival, envelope)
        assert core.stats.messages_sent == 2
        assert core.stats.messages_delivered == 2
        assert core.stats.transfers == 1
        assert core.stats.notifies == 1
        assert core.stats.by_sender[C] == 1
        assert core.stats.by_sender[T] == 1
        assert core.unresolved == {"c": 0, "t": 0}

    def test_delivery_log_records_times(self):
        core = TransportCore(latency=2.0)
        envelope, (arrival,) = core.send(0.0, pay(C, T, M))
        core.deliver(arrival, envelope)
        assert not core.deliver(arrival, envelope)  # once only
        (delivery,) = core.log
        assert delivery.sent_at == 0.0
        assert delivery.delivered_at == 2.0


def _principal(strategy=None, cents=1000, documents=("d",)):
    """A principal driver for c, endowed with *cents* and *documents*."""
    first = SendInstruction(1, pay(C, T, M), frozenset())
    second = SendInstruction(3, give(C, trusted("t2"), D), frozenset({notify(T, C)}))
    role = PrincipalRole(C, (first, second))
    return Harness(PrincipalDriver(C, role, cents, documents, strategy, retransmit=False))


class TestPrincipalAgent:
    """The principal's driver: events in, first offers out."""

    def test_unguarded_instruction_fires_at_start(self):
        runtime = _principal()
        runtime.start()
        assert runtime.out == [pay(C, T, M)]

    def test_guarded_instruction_waits_for_observation(self):
        runtime = _principal()
        runtime.start()
        assert len(runtime.out) == 1
        runtime.deliver(notify(T, C))
        assert len(runtime.out) == 2

    def test_observation_with_deadline_still_matches_guard(self):
        runtime = _principal()
        runtime.start()
        stamped = notify(T, C)._replace(deadline=42.0)
        runtime.deliver(stamped)
        assert len(runtime.out) == 2

    def test_asset_gating_blocks_until_funds(self):
        runtime = _principal(cents=0)
        runtime.start()
        assert runtime.out == []
        runtime.deliver(pay(P, C, M))  # the funds arrive
        assert runtime.out == [pay(C, T, M)]

    def test_withholder_stops_at_position(self):
        runtime = _principal(withholder(1))
        runtime.start()
        runtime.deliver(notify(T, C))
        assert runtime.out == [pay(C, T, M)]  # second instruction withheld

    def test_wrong_item_sender_substitutes(self):
        runtime = _principal(wrong_item_sender("d", "junk"), documents=("d", "junk"))
        runtime.start()
        runtime.deliver(notify(T, C))
        assert runtime.out[1].item.label == "junk"

    def test_slow_party_defers_into_queue(self):
        runtime = _principal(slow_party(5.0))
        runtime.start()
        assert runtime.out == []  # a timer is set, nothing is sent
        runtime.fire_all()
        assert runtime.out == [pay(C, T, M)]
        assert runtime.now == 5.0
