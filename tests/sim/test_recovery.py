"""Recovery from every prefix of every party's log, in process.

The simulator keeps each party's log in memory.  A fresh driver must
recover from any prefix of it — a crash can cut the log anywhere — and
recovery from the whole log must rebuild exactly the live driver's state.
A log the protocol core cannot have written must be refused.
"""

from __future__ import annotations

import pytest

from repro.core.actions import pay
from repro.core.indemnity import minimal_indemnity_plan
from repro.core.items import money
from repro.errors import ProtocolError
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
    core = driver.core
    if isinstance(driver, TrustedDriver):
        core_state = (core, driver.armed, driver.expiry)
    else:
        core_state = (core.observed, core.next_instruction)
    return (
        core_state,
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
