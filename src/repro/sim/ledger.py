"""Asset ledger: who holds what, with conservation invariants.

The ledger tracks two asset classes:

* **money** — integer cent balances per party (a principal is endowed with
  exactly what its role pays out, plus any indemnity escrow it posts);
* **goods** — each document label has exactly one holder at any time.

Every asset movement goes through :meth:`Ledger.move`, which moves the
asset atomically and then runs :meth:`Ledger.check`: conservation (total
money constant, no negative balance; each document has one holder by
construction) is scanned after each movement, and a notify, which moves
nothing, is never scanned.  A violated invariant is a bug in the harness,
not modeled misbehaviour, so it raises :class:`SimulationError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.actions import Action
from repro.core.interaction import InteractionGraph
from repro.core.items import Item, Money
from repro.core.parties import Party, Role
from repro.core.protocol import Protocol
from repro.errors import SimulationError

#: Custody account for assets in transit on an unreliable wire.  Under fault
#: injection an asset leaves its sender when the message is sent and reaches
#: the recipient only when the message is *delivered*; in between it is held
#: here, so a dropped message can neither destroy the asset nor leave it
#: spendable in two places.  The reliable transport never uses this account.
WIRE = Party("wire-in-transit", Role.TRUSTED)


@dataclass(frozen=True)
class LedgerSnapshot:
    """An immutable view of balances and holdings at one instant."""

    balances: dict[Party, int]
    holdings: dict[str, Party]  # document label -> holder

    def balance(self, party: Party) -> int:
        return self.balances.get(party, 0)

    def documents_of(self, party: Party) -> frozenset[str]:
        return frozenset(label for label, holder in self.holdings.items() if holder == party)

    def digest(self) -> str:
        """A short stable fingerprint of the snapshot, order-independent.

        Two snapshots digest equal iff every party holds the same balance
        and every document the same holder — the equality the crash-recovery
        oracle asserts across runtimes (simulator vs. socket runtime) and
        across a SIGKILL/WAL-replay boundary.  A party with a zero balance
        digests identically to one absent from the snapshot: "has no money"
        is one state, however a runtime happens to record it.
        """
        canonical = repr(
            (
                sorted(
                    (party.name, cents)
                    for party, cents in self.balances.items()
                    if cents != 0
                ),
                sorted((label, holder.name) for label, holder in self.holdings.items()),
            )
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Ledger:
    """Mutable asset state for one simulation run."""

    def __init__(self) -> None:
        self._balances: dict[Party, int] = {}
        self._holdings: dict[str, Party] = {}
        self._initial_money_total = 0
        self._sealed = False

    # ------------------------------------------------------------- endowment

    def endow_money(self, party: Party, amount_cents: int) -> None:
        """Seed *party* with money (before the run starts)."""
        if self._sealed:
            raise SimulationError("cannot endow after the ledger is sealed")
        if amount_cents < 0:
            raise SimulationError("endowments must be non-negative")
        self._balances[party] = self._balances.get(party, 0) + amount_cents
        self._initial_money_total += amount_cents

    def endow_document(self, party: Party, label: str) -> None:
        """Give *party* initial possession of a document."""
        if self._sealed:
            raise SimulationError("cannot endow after the ledger is sealed")
        if label in self._holdings:
            raise SimulationError(f"document {label!r} already endowed")
        self._holdings[label] = party

    def seal(self) -> LedgerSnapshot:
        """Freeze endowments; returns the initial snapshot."""
        self._sealed = True
        return self.snapshot()

    # -------------------------------------------------------------- transfer

    def apply(self, action: Action) -> None:
        """Apply a (possibly inverted) transfer to the ledger.

        A notify moves nothing.  Raises :class:`SimulationError` when the
        effective sender does not hold the asset — the harness must never
        let that happen; agents that *would* overdraw decline to send
        instead.
        """
        item = action.item
        if item is not None:
            self.move(action.effective_sender, action.effective_recipient, item)

    def move(self, sender: Party, recipient: Party, item: Item) -> None:
        """Move *item* from *sender* to *recipient*, then check conservation.

        :data:`WIRE` is a party like any other here: under fault injection
        the simulator moves an asset to the wire at send time, and from the
        wire to its recipient at delivery (or back to its sender when the
        message is abandoned).
        """
        if isinstance(item, Money):
            balance = self._balances.get(sender, 0)
            if balance < item.cents:
                raise SimulationError(
                    f"{sender.name} cannot pay {item}: balance is "
                    f"{balance / 100:.2f}"
                )
            self._balances[sender] = balance - item.cents
            self._balances[recipient] = self._balances.get(recipient, 0) + item.cents
        else:
            holder = self._holdings.get(item.label)
            if holder != sender:
                raise SimulationError(
                    f"{sender.name} cannot give {item.label!r}: held by "
                    f"{holder.name if holder else 'nobody'}"
                )
            self._holdings[item.label] = recipient
        self.check()

    # ----------------------------------------------------------- wire custody

    def in_transit(self) -> tuple[int, frozenset[str]]:
        """Wire custody right now: (cents held, document labels held)."""
        return self._balances.get(WIRE, 0), self.documents_of(WIRE)

    # ----------------------------------------------------------------- query

    def can_transfer(self, party: Party, item: Item) -> bool:
        """Whether *party* currently holds *item* (or the funds)."""
        if isinstance(item, Money):
            return self._balances.get(party, 0) >= item.cents
        return self._holdings.get(item.label) == party

    def balance(self, party: Party) -> int:
        """Money balance of *party* in cents."""
        return self._balances.get(party, 0)

    def holder(self, label: str) -> Party | None:
        """Current holder of a document label."""
        return self._holdings.get(label)

    def documents_of(self, party: Party) -> frozenset[str]:
        """Labels of all documents currently held by *party*."""
        return frozenset(l for l, h in self._holdings.items() if h == party)

    def snapshot(self) -> LedgerSnapshot:
        """An immutable copy of the current state."""
        return LedgerSnapshot(dict(self._balances), dict(self._holdings))

    # ------------------------------------------------------------- invariant

    def check(self) -> None:
        """Assert conservation; raises :class:`SimulationError` on violation.

        A full recompute over every balance, run after each movement: a sum
        and a sweep of the balances, each in C; an account is looked up only
        to name it in the error.
        """
        balances = self._balances
        total = sum(balances.values())
        if total != self._initial_money_total:
            raise SimulationError(
                f"money not conserved: {total} != {self._initial_money_total}"
            )
        if balances and min(balances.values()) < 0:
            party, balance = next((p, b) for p, b in balances.items() if b < 0)
            raise SimulationError(f"{party.name} has negative balance {balance}")


def endow_from_interaction(
    ledger: Ledger,
    interaction: InteractionGraph,
    extra_money: dict[Party, int] | None = None,
) -> None:
    """Seed a ledger from an interaction graph.

    Each principal receives exactly the money its role pays out (it is
    solvent, matching §5's assumption), plus its entry in *extra_money*;
    each document is endowed to its original owner
    (:meth:`~repro.core.interaction.InteractionGraph.original_holdings`:
    producers, not resellers).  No principal holds money beyond that: its
    driver sends only what its custody view holds, and the endowment
    already covers every payment its role makes.
    """
    extra_money = extra_money or {}
    edges_at = interaction.edges_by_party()
    for principal in interaction.principals:
        outlay = sum(
            e.provides.cents for e in edges_at[principal] if isinstance(e.provides, Money)
        )
        ledger.endow_money(principal, outlay + extra_money.get(principal, 0))
    for edge in interaction.original_holdings():
        if ledger.holder(edge.provides.label) is None:
            ledger.endow_document(edge.principal, edge.provides.label)


def initial_ledger(interaction: InteractionGraph, protocol: Protocol) -> Ledger:
    """A run's initial asset state, the same in both runtimes.

    :func:`endow_from_interaction`, plus as *extra_money* the money each
    depositor of a §6 escrow in *protocol*'s escrow tables must post.
    """
    escrow_needs: dict[Party, int] = {}
    for spec in protocol.trusted_specs.values():
        for e in spec.entries:
            if e.beneficiary is not None and isinstance(e.item, Money):
                escrow_needs[e.depositor] = escrow_needs.get(e.depositor, 0) + e.item.cents
    ledger = Ledger()
    endow_from_interaction(ledger, interaction, extra_money=escrow_needs)
    return ledger
