"""Unit tests for the network transport and the principal's driver."""

import pytest

from repro.core.actions import give, notify, pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.core.protocol import PrincipalRole, SendInstruction
from repro.errors import SimulationError
from repro.sim.agents import slow_party, withholder, wrong_item_sender
from repro.sim.driver import PrincipalDriver
from repro.sim.events import EventQueue
from repro.sim.network import Network
from tests.sim.driver_harness import Harness

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")
M = money(10)


def _network(latency=1.0):
    queue = EventQueue()
    return queue, Network(queue, latency=latency)


def _drain(queue):
    while (event := queue.pop()) is not None:
        event.callback()


class TestNetwork:
    def test_delivery_after_latency(self):
        queue, network = _network(latency=3.0)
        received = []
        network.register(T, lambda a, key: received.append(a))
        network.send(pay(C, T, M))
        _drain(queue)
        assert received == [pay(C, T, M)]
        assert queue.now == 3.0

    def test_negative_latency_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            Network(queue, latency=-1.0)

    def test_unregistered_recipient_rejected(self):
        _, network = _network()
        with pytest.raises(SimulationError, match="no node registered"):
            network.send(pay(C, T, M))

    def test_double_registration_rejected(self):
        _, network = _network()
        network.register(T, lambda a, key: None)
        with pytest.raises(SimulationError, match="already registered"):
            network.register(T, lambda a, key: None)

    def test_inverted_transfer_routes_to_original_sender(self):
        queue, network = _network()
        received = []
        network.register(C, lambda a, key: received.append(a))
        network.register(T, lambda a, key: None)
        refund = pay(C, T, M).inverse()  # t returns money to c
        network.send(refund)
        _drain(queue)
        assert received == [refund]

    def test_stats_counters(self):
        queue, network = _network()
        network.register(T, lambda a, key: None)
        network.register(C, lambda a, key: None)
        network.send(pay(C, T, M))
        network.send(notify(T, C))
        _drain(queue)
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 2
        assert network.stats.transfers == 1
        assert network.stats.notifies == 1
        assert network.stats.by_sender[C] == 1
        assert network.stats.by_sender[T] == 1

    def test_delivery_log_records_times(self):
        queue, network = _network(latency=2.0)
        network.register(T, lambda a, key: None)
        network.send(pay(C, T, M))
        _drain(queue)
        (delivery,) = network.log
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
