"""Deterministic discrete-event simulator for synthesized exchange protocols.

The substrate the paper never needed to build (its evaluation is formal) but
this reproduction uses to *check the claims mechanically*: honest principals
follow their synthesized roles, trusted components implement the §2.5 escrow
semantics with deadlines and reversal, adversaries renege or ship bogus
goods, and the safety monitor verifies that every honest party ends in an
acceptable state.  Each party runs as a sans-I/O driver
(:mod:`repro.sim.driver`) that the simulator and the socket node both
interpret.
"""

from repro.sim.agents import AdversaryStrategy, slow_party, withholder, wrong_item_sender
from repro.sim.driver import PartyDriver, PrincipalDriver, TrustedDriver, driver_for
from repro.sim.events import EventQueue
from repro.sim.faults import (
    FaultConfig,
    FaultPlan,
    LinkFault,
    PartyFault,
    RetryPolicy,
    random_fault_plan,
)
from repro.sim.ledger import WIRE, Ledger, LedgerSnapshot, endow_from_interaction, initial_ledger
from repro.sim.network import Delivery, Envelope, NetworkStats
from repro.sim.runtime import RunProvenance, Simulation, SimulationResult, simulate
from repro.sim.safety import (
    EdgeOutcome,
    PartyVerdict,
    SafetyReport,
    evaluate_safety,
)

__all__ = [
    "AdversaryStrategy",
    "slow_party",
    "withholder",
    "wrong_item_sender",
    "PartyDriver",
    "PrincipalDriver",
    "TrustedDriver",
    "driver_for",
    "EventQueue",
    "FaultConfig",
    "FaultPlan",
    "LinkFault",
    "PartyFault",
    "RetryPolicy",
    "random_fault_plan",
    "WIRE",
    "Ledger",
    "LedgerSnapshot",
    "endow_from_interaction",
    "initial_ledger",
    "Delivery",
    "Envelope",
    "NetworkStats",
    "RunProvenance",
    "Simulation",
    "SimulationResult",
    "simulate",
    "EdgeOutcome",
    "PartyVerdict",
    "SafetyReport",
    "evaluate_safety",
]
