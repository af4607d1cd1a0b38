"""Fast in-process ("task" spawn) runs of the socket runtime — tier-1 tests.

These use real localhost TCP, the real codec, WAL and fault proxy, but run
every node as an asyncio task in this process, so they are quick enough
for the default test tier.  Real subprocesses and SIGKILLs live in the
``-m net`` suite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import FaultInjectionError, ProtocolError, SimulationError
from repro.net.proxy import NetFaultProxy
from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.sim.faults import FaultPlan, PartyFault
from repro.sim.runtime import simulate
from repro.workloads import example1, simple_purchase

FAST = dict(time_scale=0.005, deadline=60.0, spawn="task")


def test_fault_free_run_matches_simulator(net_run_dir):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)
    run = run_networked_exchange(problem, net_run_dir, NetRunConfig(**FAST))
    result = run.result
    assert run.outcome == "quiescent" and result.quiescent
    assert result.stranded_messages == 0
    assert all(v.ok for v in run.report.verdicts)
    assert result.initial.digest() == oracle.initial.digest()
    assert result.final.digest() == oracle.final.digest()
    assert len(result.delivered) == len(oracle.delivered)
    assert result.completed_agents and not result.reversed_agents


def test_artifacts_mirror_the_run(net_run_dir):
    problem = simple_purchase()
    run = run_networked_exchange(problem, net_run_dir, NetRunConfig(**FAST))
    for name in ("problem.spec", "deliveries.jsonl", "provenance.json", "safety.json"):
        assert os.path.exists(os.path.join(net_run_dir, name)), name
    with open(os.path.join(net_run_dir, "provenance.json"), encoding="utf-8") as fh:
        provenance = json.load(fh)
    assert provenance["final_digest"] == run.result.final.digest()
    assert provenance["quiescent"] is True
    with open(os.path.join(net_run_dir, "deliveries.jsonl"), "rb") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(run.result.delivered)
    wal_dir = os.path.join(net_run_dir, "wal")
    assert sorted(os.listdir(wal_dir)) == [
        "Customer.wal",
        "Producer.wal",
        "Trusted.wal",
    ]


def test_crash_and_restart_recovers_to_oracle(net_run_dir):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)
    plan = FaultPlan(
        seed=7, parties=(PartyFault("Producer", crash_at=2.0, restart_at=10.0),)
    ).validate()
    run = run_networked_exchange(
        problem, net_run_dir, NetRunConfig(**FAST), fault_plan=plan
    )
    assert run.kills == 1 and run.restarts == 1
    assert run.result.quiescent
    assert all(v.ok for v in run.report.verdicts)
    assert run.result.final.digest() == oracle.final.digest()


def test_withholding_adversary_triggers_reversal(net_run_dir):
    problem = simple_purchase()
    run = run_networked_exchange(
        problem,
        net_run_dir,
        NetRunConfig(**FAST),
        adversaries={"Producer": 0},  # reneges: never deposits its document
    )
    result = run.result
    assert result.reversed_agents and not result.completed_agents
    # Reversal restores the status quo ante: nothing net moved.
    assert result.final.digest() == result.initial.digest()
    assert all(v.ok for v in run.report.verdicts)


def test_three_party_chain_over_sockets(net_run_dir):
    problem = example1()
    oracle = simulate(problem, deadline=60.0)
    run = run_networked_exchange(problem, net_run_dir, NetRunConfig(**FAST))
    assert run.result.quiescent
    assert all(v.ok for v in run.report.verdicts)
    assert run.result.final.digest() == oracle.final.digest()


def test_plan_silencing_a_trusted_component_is_rejected_before_any_socket(
    tmp_path, monkeypatch
):
    # The same rule as the simulator's (FaultPlan.check_targets): a trusted
    # component may crash and restart, never vanish.
    def no_socket(*args, **kwargs):
        raise AssertionError("the proxy opened a socket")

    monkeypatch.setattr(NetFaultProxy, "start", no_socket)
    problem = simple_purchase()
    plan = FaultPlan(parties=(PartyFault("Trusted", crash_at=1.0),))
    run_dir = tmp_path / "run"
    with pytest.raises(FaultInjectionError, match="permanently"):
        run_networked_exchange(problem, str(run_dir), NetRunConfig(**FAST), fault_plan=plan)
    assert not run_dir.exists()


@pytest.mark.parametrize("name", ["Custmer", "Trusted"])
def test_adversary_naming_no_principal_is_rejected_before_any_socket(
    tmp_path, monkeypatch, name
):
    # The same rule as the simulator's (check_adversaries): a misspelled
    # principal would run honestly, and a trusted component never deviates.
    def no_socket(*args, **kwargs):
        raise AssertionError("the proxy opened a socket")

    monkeypatch.setattr(NetFaultProxy, "start", no_socket)
    run_dir = tmp_path / "run"
    with pytest.raises(FaultInjectionError, match="not a principal"):
        run_networked_exchange(
            simple_purchase(), str(run_dir), NetRunConfig(**FAST), adversaries={name: 0}
        )
    assert not run_dir.exists()


def test_negative_latency_is_rejected_before_any_node_spawns(tmp_path, monkeypatch):
    # The wire core both runtimes build refuses it: every copy would be due
    # before it was sent.
    def no_socket(*args, **kwargs):
        raise AssertionError("the proxy opened a socket")

    monkeypatch.setattr(NetFaultProxy, "start", no_socket)
    run_dir = tmp_path / "run"
    config = NetRunConfig(**{**FAST, "latency": -1.0})
    with pytest.raises(SimulationError, match="latency must be non-negative"):
        run_networked_exchange(simple_purchase(), str(run_dir), config)
    assert not (run_dir / "wal").exists()


def test_deadline_not_positive_is_rejected_before_any_node_spawns(tmp_path, monkeypatch):
    # Checked where the protocol is synthesized, so the supervisor refuses
    # it before it writes the spec or spawns a node.
    def no_socket(*args, **kwargs):
        raise AssertionError("the proxy opened a socket")

    monkeypatch.setattr(NetFaultProxy, "start", no_socket)
    run_dir = tmp_path / "run"
    config = NetRunConfig(**{**FAST, "deadline": -1.0})
    with pytest.raises(ProtocolError, match="deadlines must be positive, got -1.0"):
        run_networked_exchange(simple_purchase(), str(run_dir), config)
    assert not run_dir.exists()
