"""Exact quiescence: a networked run ends when nothing can move any more.

The proxy's predicate is driven directly with hand-written frames from raw
loopback connections, then checked end to end through the supervisor: a
run ends at its last delivery (not after a quiet period), late duplicate
copies still land, and a node that dies ends the run with its own error.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.core.actions import transfer
from repro.core.items import money
from repro.core.parties import consumer, trusted
from repro.errors import NetRuntimeError
from repro.net.proxy import NetFaultProxy
from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.net.wire import action_to_json, read_frame, write_frame
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.runtime import simulate
from repro.workloads import simple_purchase

FAST = NetRunConfig(time_scale=0.005, deadline=60.0, spawn="task")
WAIT = 5.0  # wall seconds any single step of the predicate test may take

CUSTOMER = consumer("Customer")
TRUSTED = trusted("Trusted")


class RawNode:
    """One hand-driven loopback connection to the proxy, speaking raw frames."""

    def __init__(self, name: str, reader, writer) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.handled = 0

    @classmethod
    async def connect(cls, name: str, port: int) -> RawNode:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        node = cls(name, reader, writer)
        await node.send({"type": "hello", "party": name, "pid": 0, "resumed": False})
        return node

    async def send(self, frame: dict) -> None:
        write_frame(self.writer, frame)
        await self.writer.drain()

    async def recv(self) -> dict:
        frame = await asyncio.wait_for(read_frame(self.reader), WAIT)
        assert frame is not None
        self.handled += 1
        return frame

    async def report(self, proxy: NetFaultProxy, pending: int = 0, armed: bool = False) -> None:
        """Report, and wait until the proxy has read the report."""
        frame = {
            "type": "report",
            "party": self.name,
            "handled": self.handled,
            "pending": pending,
            "armed": armed,
        }
        await self.send(frame)
        assert await proxy.until(lambda: proxy.reports.get(self.name) == frame, WAIT)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _predicate_scenario() -> None:
    # Every envelope is duplicated; the copy trails the original by one
    # latency (0.2 s wall), long enough to observe the settled-but-not-idle
    # window in between.
    plan = FaultPlan(seed=0, links=(LinkFault(duplicate=1.0),))
    proxy = NetFaultProxy(
        expected=frozenset({"Customer", "Trusted"}), plan=plan, time_scale=0.2
    )
    port = await proxy.start()
    nodes: list[RawNode] = []
    try:
        customer = await RawNode.connect("Customer", port)
        nodes.append(customer)
        assert await proxy.until(lambda: proxy.missing() == ["Trusted"], WAIT)
        assert not proxy.quiescent()  # a live party is not connected
        trusted_node = await RawNode.connect("Trusted", port)
        nodes.append(trusted_node)
        assert await proxy.wait_connected(WAIT)
        proxy.open_for_business()
        for node in nodes:
            assert (await node.recv())["type"] == "welcome"

        await customer.report(proxy)
        assert not proxy.quiescent()  # Trusted's welcome is not covered by a report
        await trusted_node.report(proxy)
        assert proxy.quiescent()

        await customer.report(proxy, pending=1)
        assert not proxy.quiescent()  # an unacknowledged send
        await customer.report(proxy)
        assert proxy.quiescent()
        await trusted_node.report(proxy, armed=True)
        assert not proxy.quiescent()  # an armed deadline
        await trusted_node.report(proxy)
        assert proxy.quiescent()

        deposit = transfer(CUSTOMER, TRUSTED, money(10))
        await customer.send(
            {"type": "act", "key": "Customer:1", "action": action_to_json(deposit), "attempt": 1}
        )
        assert await proxy.until(lambda: proxy.stats.attempts == 1, WAIT)
        assert not proxy.quiescent()  # the delivery timer is outstanding

        delivery = await trusted_node.recv()
        assert delivery["key"] == "Customer:1"
        assert not proxy.quiescent()  # the forwarded frame is not covered yet
        await trusted_node.send({"type": "got", "key": "Customer:1"})
        await trusted_node.report(proxy)
        assert await customer.recv() == {"type": "ack", "key": "Customer:1"}
        assert not proxy.quiescent()  # the ack is not covered yet
        await customer.report(proxy)
        assert proxy.stats.duplicate_deliveries == 0
        assert not proxy.quiescent()  # everyone settled, but the copy is on the wire

        copy = await trusted_node.recv()
        assert copy["key"] == "Customer:1"
        assert proxy.stats.duplicate_deliveries == 1
        assert not proxy.quiescent()
        await trusted_node.report(proxy)
        assert proxy.quiescent()

        # A restart is pending from the moment of the kill until the
        # replacement's hello and first report, even while the old
        # connection still looks settled.
        proxy.crashed("Trusted", permanent=False)
        assert not proxy.quiescent()
        await trusted_node.close()
        replacement = await RawNode.connect("Trusted", port)
        nodes.append(replacement)
        assert (await replacement.recv())["type"] == "welcome"
        assert not proxy.quiescent()
        await replacement.report(proxy)
        assert proxy.quiescent()

        # A disconnected live party holds the run; a dead one does not.
        await customer.close()
        assert await proxy.until(lambda: proxy.missing() == ["Customer"], WAIT)
        assert not proxy.quiescent()
        proxy.crashed("Customer", permanent=True)
        assert proxy.quiescent()
    finally:
        for node in nodes:
            node.writer.close()
        await proxy.close()


def test_proxy_predicate_tracks_every_clause():
    asyncio.run(_predicate_scenario())


def _last_delivery_time(run_dir: str) -> float:
    with open(os.path.join(run_dir, "deliveries.jsonl"), encoding="utf-8") as fh:
        return max(float(json.loads(line)["time"]) for line in fh)


def test_run_ends_at_its_last_delivery(net_run_dir):
    run = run_networked_exchange(simple_purchase(), net_run_dir, FAST)
    assert run.outcome == "quiescent" and run.result.quiescent
    # The predicate holds a few frame round trips after the last delivery;
    # a quiet period of wire silence would add tens of units here.
    assert run.result.duration - _last_delivery_time(net_run_dir) <= 10.0


def test_late_duplicate_copies_land_before_the_run_ends(net_run_dir):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)
    plan = FaultPlan(seed=1, links=(LinkFault(duplicate=1.0),))
    run = run_networked_exchange(problem, net_run_dir, FAST, fault_plan=plan)
    stats = run.result.stats
    assert stats.duplicates == 5
    assert stats.duplicate_deliveries == stats.duplicates
    assert run.result.quiescent
    assert run.result.final.digest() == oracle.final.digest()


def test_failed_node_ends_the_run_with_its_error(net_run_dir):
    wal_dir = os.path.join(net_run_dir, "wal")
    os.makedirs(wal_dir)
    with open(os.path.join(wal_dir, "Customer.wal"), "wb") as fh:
        fh.write(b'{"balance":0,"docs":[],"rec":"endow"}\nnot json\n{"key":"k","rec":"ack"}\n')
    with pytest.raises(NetRuntimeError) as info:
        run_networked_exchange(simple_purchase(), net_run_dir, FAST)
    message = str(info.value)
    assert message.startswith("node Customer failed:"), message
    cause = info.value.__cause__
    assert isinstance(cause, NetRuntimeError)
    assert "corrupt WAL record" in str(cause)
