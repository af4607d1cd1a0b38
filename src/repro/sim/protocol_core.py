"""Transport-agnostic protocol cores shared by every runtime.

The discrete-event simulator (:mod:`repro.sim.runtime`) and the socket
runtime (:mod:`repro.net`) execute the *same* synthesized protocol; what
differs is the transport underneath.  This module holds the pure decision
logic — which actions a party emits in response to which observations —
with no knowledge of envelopes, retries, event queues, sockets or clocks:

* :class:`PrincipalCore` walks a :class:`~repro.core.protocol.PrincipalRole`
  instruction list, firing each instruction once its preconditions are
  observed, the adversary hooks permit it, and the caller-supplied ``holds``
  predicate confirms custody of the asset.
* :class:`TrustedCore` mechanizes the §2.5 escrow: accept expected deposits,
  bounce everything else, notify the last outstanding principal, release
  goods-before-money on completion, and reverse (settling §6 indemnities)
  on deadline expiry.

Cores never *send* — they return ordered :data:`Effect` values (or call an
``emit`` callback).  The party driver around each core
(:mod:`repro.sim.driver`) turns them into keyed, logged, retried sends and
deadline timers, and both runtimes interpret that one driver's commands.
A safety verdict proven in-process is therefore a statement about the very
logic that runs over real sockets.

Determinism contract: given the same observation sequence, a core emits the
same effect sequence — cores draw no randomness and read no clock.  This is
what makes write-ahead-log *replay* (re-feeding the logged observations)
reconstruct a crashed node's exact state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Union

from repro.core.actions import Action, notify, transfer
from repro.core.items import Money
from repro.core.parties import Party
from repro.core.protocol import PrincipalRole, TrustedExchangeSpec

# --------------------------------------------------------------------- effects


@dataclass(frozen=True)
class SendEffect:
    """Dispatch *action* on the transport (with whatever retry discipline)."""

    action: Action


@dataclass(frozen=True)
class NotifyEffect:
    """Notify *principal* that its deposit is the last outstanding one.

    The interpreter stamps the notice with the expiry of the armed deadline
    timer (§2.5: the notification carries "the earliest expiration of the
    other pieces held for the exchange") — the core cannot, because only the
    runtime knows what absolute time its timer will fire at.
    """

    principal: Party


@dataclass(frozen=True)
class ArmDeadline:
    """Start the exchange deadline timer (idempotent; relative duration)."""

    duration: float


@dataclass(frozen=True)
class DisarmDeadline:
    """Cancel the deadline timer: the exchange completed."""


Effect = Union[SendEffect, NotifyEffect, ArmDeadline, DisarmDeadline]


def _always_permits(position: int, action: Action) -> bool:
    return True


def _identity(action: Action) -> Action | None:
    return action


# ------------------------------------------------------------- principal core


class PrincipalCore:
    """Pure instruction-walking logic for one principal.

    ``permits`` / ``transform`` are the adversary extension points (see
    :class:`repro.sim.agents.AdversaryStrategy`): ``permits`` gates
    whether instruction *position* is performed at all, ``transform``
    rewrites the outgoing action (``None`` = silently skip this
    instruction).  Honest principals use the defaults.
    """

    def __init__(
        self,
        role: PrincipalRole,
        permits: Callable[[int, Action], bool] | None = None,
        transform: Callable[[Action], Action | None] | None = None,
    ) -> None:
        self.role = role
        self.observed: set[Action] = set()
        self.next_instruction = 0
        self._permits = permits if permits is not None else _always_permits
        self._transform = transform if transform is not None else _identity

    def observe(self, action: Action) -> None:
        """Record a delivered action, normalized (deadline stripped).

        Synthesized preconditions are deadline-free, while live notifies
        carry their §2.5 expiry stamp — normalizing here keeps guard
        matching transport-independent.
        """
        self.observed.add(replace(action, deadline=None))

    def drain(
        self,
        holds: Callable[[Action], bool],
        emit: Callable[[Action], None],
    ) -> None:
        """Fire instructions in order while their guards are satisfied.

        ``holds`` is consulted immediately before each send (custody check
        against the caller's asset view) and ``emit`` immediately after it
        passes — the *interleaving* is part of the semantics: an emitted
        transfer relinquishes custody before the next instruction's
        ``holds`` check runs, so a role that spends the same asset twice
        blocks rather than double-spends.
        """
        while self.next_instruction < len(self.role.instructions):
            instruction = self.role.instructions[self.next_instruction]
            if not instruction.ready(self.observed):
                return
            if not self._permits(self.next_instruction, instruction.action):
                return
            action = self._transform(instruction.action)
            if action is not None:
                if not holds(action):
                    return  # wait until the asset arrives
                emit(action)
            self.next_instruction += 1

    @property
    def exhausted(self) -> bool:
        """Whether every instruction has fired (the role is complete)."""
        return self.next_instruction >= len(self.role.instructions)


# --------------------------------------------------------------- trusted core


@dataclass
class TrustedCore:
    """Pure §2.5 escrow logic for one trusted component.

    Effects come in a fixed order: arm-before-progress on receive, disarm →
    releases (goods before money) → escrow refunds on completion,
    indemnity settlement before reversals on expiry.
    """

    spec: TrustedExchangeSpec
    received: dict[Party, Action] = field(default_factory=dict)
    escrows: dict[Party, Action] = field(default_factory=dict)  # offeror -> deposit
    completed: bool = False
    reversed: bool = False
    notified: set[Party] = field(default_factory=set)
    rejected: list[Action] = field(default_factory=list)

    # ----------------------------------------------------------------- events

    def on_receive(self, action: Action) -> list[Effect]:
        """React to one delivered action; returns ordered effects."""
        if not action.is_transfer or action.inverted:
            return []  # notifies / stray reversals carry no escrow duty
        assert action.item is not None
        sender = action.effective_sender
        if self._is_escrow(sender, action):
            self.escrows[sender] = action
            return []
        expected = dict(self.spec.deposits).get(sender)
        if (
            expected is None
            or action.item != expected
            or self.completed
            or self.reversed
            or sender in self.received
        ):
            # Unknown depositor, wrong item, duplicate, or too late: send it
            # straight back (§2.5: a trusted component may reverse actions
            # in which it was the recipient).
            self.rejected.append(action)
            return [SendEffect(action.inverse())]
        self.received[sender] = action
        effects: list[Effect] = []
        if self.spec.deadline is not None:
            effects.append(ArmDeadline(self.spec.deadline))
        effects.extend(self._progress())
        return effects

    def on_deadline(self) -> list[Effect]:
        """Deadline expired: settle indemnities, then reverse every deposit."""
        if self.completed or self.reversed:
            return []
        self.reversed = True
        effects = self._settle_indemnities()
        for deposit in self.received.values():
            effects.append(SendEffect(deposit.inverse()))
        self.received.clear()
        return effects

    # ----------------------------------------------------------------- detail

    def _is_escrow(self, sender: Party, action: Action) -> bool:
        for offer in self.spec.indemnities:
            if (
                sender == offer.offeror
                and isinstance(action.item, Money)
                and action.item.cents == offer.amount_cents
                and "indemnity" in action.item.label
            ):
                return True
        return False

    def _progress(self) -> list[Effect]:
        pending = [p for p, _ in self.spec.deposits if p not in self.received]
        if not pending:
            return self._complete()
        if len(pending) == 1 and pending[0] not in self.notified:
            self.notified.add(pending[0])
            return [NotifyEffect(pending[0])]
        return []

    def _complete(self) -> list[Effect]:
        self.completed = True
        releases = [
            transfer(self.spec.agent, principal, item)
            for principal, item in self.spec.entitlements
        ]
        releases.sort(key=lambda a: (isinstance(a.item, Money), a.recipient.name))
        effects: list[Effect] = [DisarmDeadline()]
        effects.extend(SendEffect(release) for release in releases)
        effects.extend(SendEffect(escrow.inverse()) for escrow in self.escrows.values())
        self.escrows.clear()
        return effects

    def _settle_indemnities(self) -> list[Effect]:
        effects: list[Effect] = []
        for offer in self.spec.indemnities:
            escrow = self.escrows.pop(offer.offeror, None)
            if escrow is None:
                continue
            beneficiary_performed = offer.beneficiary in self.received
            offeror_performed = offer.offeror in self.received
            if beneficiary_performed and not offeror_performed:
                # Forfeit: hand the escrowed sum to the beneficiary.
                assert escrow.item is not None
                effects.append(
                    SendEffect(transfer(self.spec.agent, offer.beneficiary, escrow.item))
                )
            else:
                effects.append(SendEffect(escrow.inverse()))
        return effects

    def expiry_notice(self, principal: Party, expiry: float | None) -> Action:
        """The concrete notify action for a :class:`NotifyEffect`."""
        notice = notify(self.spec.agent, principal)
        if expiry is not None:
            notice = replace(notice, deadline=expiry)
        return notice
