"""Wire parity: the simulator and the sockets see the same wire.

Both runtimes interpret one transport core
(:class:`~repro.sim.network.TransportCore`) whose fault rolls are keyed by
envelope and attempt, so one seeded plan gives every envelope the same fate
in both.  These in-process ("task" spawn) runs compare them envelope by
envelope: every :class:`~repro.sim.network.NetworkStats` field, the
multiset of delivered keys and the final ledger.

The plans carry link faults only — no partition, crash or heal horizon —
and keep latency + ``max_delay`` (1 + 2) a unit below the first retry
timeout (4), so an acknowledgement has at least one sim unit to beat the
next retransmission; the time scale makes that unit 30 ms of wall time,
enough for the four frames (offer, delivery, ``got``, ``ack``) in between.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import fields

import pytest

from repro.net.supervisor import NetRunConfig, run_networked_exchange
from repro.sim.faults import FaultPlan, LinkFault, PartyFault
from repro.sim.network import NetworkStats
from repro.sim.runtime import Simulation
from repro.workloads import example1, resale_chain, simple_purchase

CONFIG = NetRunConfig(time_scale=0.03, deadline=60.0, spawn="task")
LINK = LinkFault(drop=0.3, duplicate=0.3, max_delay=2.0)
PROBLEMS = {
    "example1": example1,
    "simple-purchase": simple_purchase,
    "resale-chain-3": lambda: resale_chain(3),
}


def _fields(stats: NetworkStats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _both(problem, plan, run_dir):
    """The simulator's run and the socket run of *problem* under *plan*."""
    sim = Simulation.from_problem(problem, deadline=CONFIG.deadline, fault_plan=plan)
    result = sim.run(max_time=CONFIG.max_sim_time)
    run = run_networked_exchange(problem, run_dir, CONFIG, fault_plan=plan)
    assert result.quiescent and run.result.quiescent
    return sim, result, run


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_same_plan_gives_the_same_wire(name, seed, net_run_dir):
    problem = PROBLEMS[name]()
    sim, result, run = _both(problem, FaultPlan(seed=seed, links=(LINK,)), net_run_dir)
    assert _fields(run.result.stats) == _fields(result.stats)
    with open(os.path.join(net_run_dir, "deliveries.jsonl"), encoding="utf-8") as fh:
        delivered = Counter(json.loads(line)["key"] for line in fh)
    assert delivered == Counter(delivery.key for delivery in sim.core.log)
    assert run.result.final.digest() == result.final.digest()


def test_deferred_counts_parked_first_deliveries_only(net_run_dir):
    # The Customer's payment reaches Trusted, duplicated, while Trusted is
    # down: both runtimes park its first copy and drop the second.
    plan = FaultPlan(
        seed=1,
        links=(LinkFault(duplicate=1.0),),
        parties=(PartyFault("Trusted", 0.5, 10.0),),
    )
    _, result, run = _both(simple_purchase(), plan, net_run_dir)
    assert _fields(run.result.stats) == _fields(result.stats)
    assert result.stats.deferred == 1
