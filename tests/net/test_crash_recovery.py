"""Crash recovery under real SIGKILLs: WAL replay back to the oracle ledger.

Marked ``net``: run with ``pytest -m net``.
"""

from __future__ import annotations

import os

import pytest

from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.net.wal import replay
from repro.sim.faults import FaultPlan, PartyFault
from repro.sim.runtime import simulate
from repro.workloads import example1, simple_purchase

pytestmark = pytest.mark.net

CONFIG = NetRunConfig(time_scale=0.02, deadline=60.0, spawn="process")


def test_sigkill_mid_protocol_recovers_to_oracle(net_run_dir):
    problem = simple_purchase()
    oracle = simulate(problem, deadline=60.0)  # the fault-free ledger
    plan = FaultPlan(
        seed=3, parties=(PartyFault("Producer", crash_at=2.0, restart_at=12.0),)
    ).validate()
    run = run_networked_exchange(problem, net_run_dir, CONFIG, fault_plan=plan)
    assert run.kills == 1 and run.restarts == 1
    assert run.outcome == "quiescent" and run.result.quiescent
    assert all(v.ok for v in run.report.verdicts)
    assert run.result.final.digest() == oracle.final.digest()
    # The victim's WAL tells the whole story: endowment, then the replayed
    # prefix the restarted process recovered from.
    records = replay(os.path.join(net_run_dir, "wal", "Producer.wal"))
    kinds = [record["rec"] for record in records]
    assert kinds[0] == "endow"
    assert "send" in kinds  # it deposited its document (before or after death)


def test_trusted_component_sigkill_recovers(net_run_dir):
    # Killing the escrow holder itself: its WAL must reconstruct received
    # deposits, the armed deadline, and still release correctly.
    problem = example1()
    oracle = simulate(problem, deadline=60.0)
    plan = FaultPlan(
        seed=5, parties=(PartyFault("Trusted1", crash_at=3.0, restart_at=15.0),)
    ).validate()
    run = run_networked_exchange(problem, net_run_dir, CONFIG, fault_plan=plan)
    assert run.kills == 1 and run.restarts == 1
    assert all(v.ok for v in run.report.verdicts)
    assert run.result.final.digest() == oracle.final.digest()
    assert run.node_reports["Trusted1"]["phase"] == "completed"


def test_permanent_silence_reverses_and_stays_safe(net_run_dir):
    problem = simple_purchase()
    plan = FaultPlan(
        seed=9, parties=(PartyFault("Producer", crash_at=1.0, restart_at=None),)
    ).validate()
    run = run_networked_exchange(problem, net_run_dir, CONFIG, fault_plan=plan)
    assert run.kills == 1 and run.restarts == 0
    result = run.result
    # The producer never deposits; the deadline reverses the customer's
    # money and nothing net moves.
    assert result.final.digest() == result.initial.digest()
    verdicts = {v.party.name: v.ok for v in run.report.verdicts}
    assert verdicts["Customer"] and verdicts["Trusted"]
