"""Multi-process integration: real ``repro client`` subprocesses end-to-end.

Marked ``net``: run with ``pytest -m net``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.protocol import derive_protocol
from repro.errors import NetRuntimeError
from repro.net.proxy import NetFaultProxy
from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.sim.ledger import initial_ledger
from repro.sim.runtime import simulate
from repro.spec.formatter import format_problem
from repro.workloads import simple_purchase

pytestmark = pytest.mark.net

TIME_SCALE = 0.02


def test_supervised_process_run_matches_simulator(net_run_dir):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)
    run = run_networked_exchange(
        problem,
        net_run_dir,
        NetRunConfig(time_scale=TIME_SCALE, deadline=60.0, spawn="process"),
    )
    result = run.result
    assert run.outcome == "quiescent" and result.quiescent
    assert all(v.ok for v in run.report.verdicts)
    assert result.final.digest() == oracle.final.digest()
    assert {name for name in run.node_reports} == {"Customer", "Producer", "Trusted"}
    assert run.node_reports["Trusted"]["phase"] == "completed"
    # Every node ran as its own process with its own log and WAL.
    for name in ("Customer", "Producer", "Trusted"):
        assert os.path.exists(os.path.join(net_run_dir, "logs", f"{name}.log"))
        assert os.path.getsize(os.path.join(net_run_dir, "wal", f"{name}.wal")) > 0


def test_process_ready_timeout_lists_exit_status(net_run_dir):
    # A WAL the Customer cannot replay: its process exits before saying hello.
    wal_dir = os.path.join(net_run_dir, "wal")
    os.makedirs(wal_dir)
    with open(os.path.join(wal_dir, "Customer.wal"), "wb") as fh:
        fh.write(b'{"balance":0,"docs":[],"rec":"endow"}\nnot json\n{"key":"k","rec":"ack"}\n')
    config = NetRunConfig(
        time_scale=TIME_SCALE, deadline=60.0, spawn="process", ready_timeout=10.0
    )
    with pytest.raises(NetRuntimeError, match=r"\['Customer \(exited with status \d+\)'\]"):
        run_networked_exchange(simple_purchase(), net_run_dir, config)


def _setup(tmp_path, problem):
    protocol = derive_protocol(problem, 60.0)
    spec_path = tmp_path / "problem.spec"
    spec_path.write_text(format_problem(problem))
    names = [p.name for p in problem.interaction.principals] + [
        p.name for p in protocol.trusted_specs
    ]
    return str(spec_path), names


async def _finish(proxy):
    """The supervisor's ending, on the proxy's own predicate and event."""
    assert await proxy.until(proxy.quiescent, timeout=60.0), "exchange never quiesced"
    assert await proxy.shutdown(timeout=10.0), "nodes never hung up"


def test_externally_spawned_clients_complete_exchange(client_spawner, tmp_path):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)

    async def drive():
        spec_path, names = _setup(tmp_path, problem)
        proxy = NetFaultProxy(expected=frozenset(names), time_scale=TIME_SCALE)
        port = await proxy.start()
        try:
            wals = {name: str(tmp_path / f"{name}.wal") for name in names}
            for name in names:
                client_spawner.spawn(spec_path, name, port, wals[name], deadline=60.0)
            for name in names:  # readiness: first WAL record is durable
                await asyncio.to_thread(client_spawner.wait_ready, wals[name])
            assert await proxy.wait_connected(timeout=20.0)
            proxy.open_for_business()
            await _finish(proxy)
        finally:
            await proxy.close()
        return proxy

    proxy = asyncio.run(drive())
    protocol = derive_protocol(problem, 60.0)
    ledger = initial_ledger(problem.interaction, protocol)
    ledger.seal()
    for action in proxy.delivered_actions():
        ledger.apply(action)
        ledger.check()
    assert ledger.snapshot().digest() == oracle.final.digest()


def test_manual_sigkill_and_respawn_recovers(client_spawner, tmp_path):
    """Kill the trusted component's process mid-exchange; respawn it from
    its WAL via the spawner fixture; the exchange still completes to the
    fault-free oracle's ledger."""
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)

    async def drive():
        spec_path, names = _setup(tmp_path, problem)
        proxy = NetFaultProxy(expected=frozenset(names), time_scale=TIME_SCALE)
        port = await proxy.start()
        procs = {}
        try:
            wals = {name: str(tmp_path / f"{name}.wal") for name in names}
            for name in names:
                procs[name] = client_spawner.spawn(
                    spec_path, name, port, wals[name], deadline=60.0
                )
            assert await proxy.wait_connected(timeout=20.0)
            proxy.open_for_business()
            # Let the exchange actually start.
            assert await proxy.until(lambda: bool(proxy.delivery_log), timeout=20.0)
            victim = procs["Trusted"]
            victim.kill()  # SIGKILL: no atexit, no flushing, no goodbyes
            await asyncio.to_thread(victim.wait)
            await asyncio.sleep(0.3)  # retries pile up against the dead node
            procs["Trusted"] = client_spawner.spawn(
                spec_path, "Trusted", port, wals["Trusted"], deadline=60.0
            )
            await _finish(proxy)
        finally:
            await proxy.close()
        return proxy

    proxy = asyncio.run(drive())
    protocol = derive_protocol(problem, 60.0)
    ledger = initial_ledger(problem.interaction, protocol)
    ledger.seal()
    for action in proxy.delivered_actions():
        ledger.apply(action)
        ledger.check()
    assert ledger.snapshot().digest() == oracle.final.digest()
    assert proxy.reports["Trusted"]["phase"] == "completed"
