"""Safety monitor: did every honest party end acceptably?

The paper's guarantee (§1, §2.3): in a feasible exchange executed per the
recovered sequence, "no participant ever risks losing money or goods without
receiving everything promised in exchange".  This module operationalizes the
§2.3 acceptance structure against a simulation's ledger and delivery log:

* **Per-exchange atomicity** — for each interaction edge of a principal
  (provide ``out`` via *t*, expect ``in``): either the principal never
  permanently gave ``out`` (it kept it, or it was returned), or it received
  ``in``.  This captures the four acceptable states of §2.3 (complete,
  status quo, refund, windfall) and rejects exactly the bad ones (gave and
  got nothing).
* **Bundle atomicity** — a principal with an all-or-nothing conjunction
  (§4.1 second type) additionally requires: every expected document arrived,
  or its net un-refunded outlay across the bundle is covered by indemnity
  forfeits it collected (§6's "enough money from Broker #1's penalty to
  offset the cost of document #2").

Trusted components are checked for neutrality: they end with exactly what
they started (they are conduits, §2.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.actions import Action
from repro.core.indemnity import splittable_conjunctions
from repro.core.interaction import InteractionEdge
from repro.core.items import Item, Money
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.records import new_record
from repro.sim.runtime import SimulationResult


class EdgeOutcome(NamedTuple):
    """How one interaction edge ended for its principal, as a tuple.

    :func:`evaluate_safety` builds one per edge, and each verdict below,
    with :data:`repro.records.new_record`, which runs no Python frame.
    """

    edge: InteractionEdge
    gave_permanently: bool
    received_expected: bool

    @property
    def ok(self) -> bool:
        return (not self.gave_permanently) or self.received_expected


class PartyVerdict(NamedTuple):
    """The safety verdict for one party, as a tuple of its fields."""

    party: Party
    ok: bool
    reasons: tuple[str, ...]
    money_delta_cents: int
    forfeits_received_cents: int


@dataclass(frozen=True)
class SafetyReport:
    """Aggregated verdicts for one simulation run."""

    problem_name: str
    verdicts: tuple[PartyVerdict, ...]

    def verdict_of(self, name: str) -> PartyVerdict:
        for verdict in self.verdicts:
            if verdict.party.name == name:
                return verdict
        raise KeyError(name)

    def honest_parties_safe(self, adversary_names: frozenset[str] = frozenset()) -> bool:
        """Whether every non-adversarial party ended acceptably."""
        return all(
            v.ok for v in self.verdicts if v.party.name not in adversary_names
        )

    def describe(self) -> list[str]:
        lines = [f"safety report for {self.problem_name}:"]
        for v in self.verdicts:
            status = "OK " if v.ok else "BAD"
            lines.append(
                f"  [{status}] {v.party.name}: Δmoney={v.money_delta_cents / 100:+.2f}"
                + ("" if v.ok else f" ({'; '.join(v.reasons)})")
            )
        return lines


def evaluate_safety(problem: ExchangeProblem, result: SimulationResult) -> SafetyReport:
    """Check every party's outcome against the acceptance criteria above,
    with forfeits found by item in ``result.protocol``'s escrow tables."""
    graph = problem.interaction
    transfers = [a for a in result.delivered if a.item is not None]  # notifies carry none
    delivered = set(transfers)
    # One pass indexes what each criterion looks up per edge or party: the
    # last delivered transfer per (sender, recipient, item) and the
    # (recipient, item) pairs received.
    deposits: dict[tuple[Party, Party, Item | None], Action] = {}
    received: set[tuple[Party, Item | None]] = set()
    for action in transfers:
        if action.inverted:
            continue
        item = action.item
        deposits[action.sender, action.recipient, item] = action
        received.add((action.recipient, item))
    # Forfeits collected per party: escrow items sent on to their beneficiary.
    forfeits: dict[Party, int] = {}
    for spec in result.protocol.trusted_specs.values():
        for e in spec.entries:
            if e.beneficiary is not None and isinstance(e.item, Money):
                if (spec.agent, e.beneficiary, e.item) in deposits:
                    forfeits[e.beneficiary] = forfeits.get(e.beneficiary, 0) + e.item.cents
    edges_at = graph.edges_by_party()
    entitled = graph.entitlements()
    bundle_principals = set(splittable_conjunctions(problem))
    initial = result.initial.balances
    final = result.final.balances
    verdicts: list[PartyVerdict] = []

    for principal in graph.principals:
        reasons: list[str] = []
        outcomes: list[EdgeOutcome] = []
        for e in edges_at[principal]:
            # Gave permanently: the deposit was delivered and never reversed.
            deposit = deposits.get((e.principal, e.trusted, e.provides))
            gave = deposit is not None and deposit.inverse() not in delivered
            got = (e.principal, entitled[e]) in received
            outcomes.append(new_record(EdgeOutcome, (e, gave, got)))
        for outcome in outcomes:
            if not outcome.ok:
                reasons.append(
                    f"gave {outcome.edge.provides} via {outcome.edge.trusted.name} "
                    "without receiving the counterpart"
                )
        collected = forfeits.get(principal, 0)
        money_delta = final.get(principal, 0) - initial.get(principal, 0)
        if principal in bundle_principals:
            all_received = all(o.received_expected for o in outcomes)
            if not all_received:
                spent = sum(
                    o.edge.provides.cents
                    for o in outcomes
                    if o.gave_permanently and isinstance(o.edge.provides, Money)
                )
                if collected < spent:
                    reasons.append(
                        f"incomplete bundle: spent {spent / 100:.2f} but collected "
                        f"only {collected / 100:.2f} in forfeits"
                    )
        verdicts.append(
            new_record(
                PartyVerdict, (principal, not reasons, tuple(reasons), money_delta, collected)
            )
        )

    residues: dict[Party, list[str]] = {}
    for label, holder in result.final.holdings.items():
        residues.setdefault(holder, []).append(label)
    for component in graph.trusted_components:
        reasons = []
        delta = final.get(component, 0) - initial.get(component, 0)
        residue = residues.get(component)
        if delta != 0:
            reasons.append(f"conduit retained {delta / 100:+.2f} in money")
        if residue:
            reasons.append(f"conduit retained documents {sorted(residue)}")
        verdicts.append(
            new_record(PartyVerdict, (component, not reasons, tuple(reasons), delta, 0))
        )
    return SafetyReport(problem_name=problem.name, verdicts=tuple(verdicts))
