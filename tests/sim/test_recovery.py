"""Recovery from every prefix of every party's log, in process.

The simulator keeps each party's log in memory.  A fresh driver must
recover from any prefix of it — a crash can cut the log anywhere — and
recovery from the whole log must rebuild exactly the live driver's state.
A log the protocol cannot have written must be refused.  What each party
logs, and in what order, is pinned: old logs must stay replayable.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.actions import pay
from repro.core.indemnity import minimal_indemnity_plan
from repro.core.items import money
from repro.errors import ProtocolError
from repro.net.node import record_to_json
from repro.net.wire import encode_json
from repro.sim.driver import Send, TrustedDriver, driver_for
from repro.sim.faults import FaultPlan, LinkFault, PartyFault
from repro.sim.runtime import Simulation
from repro.workloads import example1, example2, resale_chain

DEADLINE = 200.0


def _example1(fault_plan):
    return Simulation.from_problem(example1(), deadline=DEADLINE, fault_plan=fault_plan)


def _example2(fault_plan):
    problem = example2()
    plan = minimal_indemnity_plan(problem)
    return Simulation.from_plan(problem, plan, deadline=DEADLINE, fault_plan=fault_plan)


def _chain(fault_plan):
    return Simulation.from_problem(resale_chain(3), deadline=DEADLINE, fault_plan=fault_plan)


def _faults(sim):
    """Lossy, duplicating, jittery links; one principal whose every send is
    lost, so its sends are abandoned and deadlines fire; and one trusted
    component that crashes and restarts mid-exchange."""
    cut_off = min(party.name for party in sim.problem.interaction.principals)
    victim = min(party.name for party in sim.protocol.trusted_specs)
    return FaultPlan(
        seed=11,
        links=(
            LinkFault(sender=cut_off, drop=1.0),
            LinkFault(drop=0.3, duplicate=0.2, max_delay=2.0),
        ),
        parties=(PartyFault(victim, 2.0, 9.0),),
    )


EXCHANGES = {"example1": _example1, "example2-indemnified": _example2, "chain3": _chain}


def _runs():
    for name, build in EXCHANGES.items():
        yield pytest.param(build, False, id=f"{name}-reliable")
        yield pytest.param(build, True, id=f"{name}-faulted")


def _simulated(build, faulted):
    sim = build(None)
    if faulted:
        sim = build(_faults(sim))
    result = sim.run(max_time=5000.0)
    assert result.quiescent
    return sim


def _fresh(sim, party):
    return driver_for(
        sim.protocol,
        party,
        sim.initial.balance(party),
        sim.initial.documents_of(party),
        retransmit=sim.fault_plan is not None,
    )


def _state(driver):
    if isinstance(driver, TrustedDriver):
        protocol_state = (
            driver.held,
            driver.notified,
            driver.rejected,
            driver.completed,
            driver.reversed,
            driver.armed,
            driver.expiry,
        )
    else:
        protocol_state = (driver.observed, driver.next_instruction)
    return (
        protocol_state,
        driver.custody.cents,
        driver.custody.documents,
        driver.seen,
        driver.unacked,
    )


@pytest.mark.parametrize("build, faulted", list(_runs()))
def test_recovers_from_every_log_prefix(build, faulted):
    sim = _simulated(build, faulted)
    for party, log in sim.logs.items():
        assert log[0][0] == "endow"
        for cut in range(len(log) + 1):
            _fresh(sim, party).recover(log[:cut])
        recovered = _fresh(sim, party)
        recovered.recover(log)
        assert _state(recovered) == _state(sim.drivers[party]), party.name


@pytest.mark.parametrize("build, faulted", list(_runs()))
def test_whole_log_leaves_nothing_to_send_fresh(build, faulted):
    sim = _simulated(build, faulted)
    for party, log in sim.logs.items():
        recovered = _fresh(sim, party)
        recovered.recover(log)
        fresh = [c for c in recovered.start(0.0) if isinstance(c, Send) and c.record]
        assert fresh == [], party.name


def test_a_send_the_core_cannot_regenerate_is_refused():
    sim = _simulated(_example1, faulted=False)
    party = next(p for p in sim.logs if p in sim.problem.interaction.principals)
    other = next(p for p in sim.drivers if p != party)
    forged = ("send", f"{party.name}:99", pay(party, other, money(999)))
    with pytest.raises(ProtocolError, match="WAL replay diverged"):
        _fresh(sim, party).recover(sim.logs[party] + [forged])


#: (records, digest) of every party's log in each run, as WAL bytes.
LOGS = {
    "example1-reliable": (27, "6ab11a7189074ea3ec54af8f3afc8cf65d823ece4d7f71e50c326dd735535567"),
    "example1-faulted": (18, "979145028bb5154aa68ac9bef5fd3fb3320372b46c0dc3b6bc8af9473e9f7005"),
    "example2-indemnified-reliable": (
        57,
        "9bea64367fc3e6ead795f0d9f5602a347cf50c27d6ec24dfbe9dfdf29f58dbfc",
    ),
    "example2-indemnified-faulted": (
        60,
        "d38dfbaf8457f749fe3043f33be2162fc7ed4bae0403d376ff9d44c1f95f3678",
    ),
    "chain3-reliable": (53, "dc677c797a0bcf34468c67a1e0560ca701b2630c7032daedc61719d7ea5a0352"),
    "chain3-faulted": (22, "f076b25da57dc3b926a841512481f2b95c73c0449c8832c974f5ab18638cf13d"),
}


def _log_digest(sim):
    """Each party's name, then its log as the lines a node writes to its WAL."""
    digest = hashlib.sha256()
    count = 0
    for party in sorted(sim.logs, key=lambda p: p.name):
        digest.update(party.name.encode("utf-8") + b"\n")
        for record in sim.logs[party]:
            digest.update(encode_json(record_to_json(record)) + b"\n")
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("run", sorted(LOGS))
def test_every_partys_log_is_pinned(run):
    name, _, mode = run.rpartition("-")
    sim = _simulated(EXCHANGES[name], faulted=mode == "faulted")
    assert _log_digest(sim) == LOGS[run]
