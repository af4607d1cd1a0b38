"""One state machine per party, without I/O.

A party's whole state lives in its driver: a :class:`PrincipalDriver` walks
its synthesized :class:`~repro.core.protocol.PrincipalRole`, a
:class:`TrustedDriver` runs the §2.5 escrow, and both keep their
``party:seq`` envelope keys and duplicate suppression, the retry schedule,
the deadline, the party's custody view, its log, and recovery from that
log.  A driver holds no clock, socket, queue or ledger.  Its events —
:meth:`~PartyDriver.start`, :meth:`~PartyDriver.delivered`,
:meth:`~PartyDriver.acked` and :meth:`~PartyDriver.fired` — are stamped with
the current sim time and return ordered commands: :class:`Log`,
:class:`Send`, :class:`Got`, :class:`Timer` and :class:`Abandon`.
:class:`~repro.sim.runtime.Simulation` interprets the commands as discrete
events and keeps each party's log in memory; :mod:`repro.net.node`
interprets them as WAL appends, frames and loop timers, so a safety verdict
proven in process is a statement about the very logic that runs over real
sockets.  A driver draws no randomness and reads no clock: the same events
give the same commands, which is what lets :meth:`PartyDriver.recover`
rebuild a driver from its own log.

The log vocabulary.  Records are tuples led by their kind; the socket node
writes each as one JSON line of its write-ahead log:

===========================  ==============================================
``("endow", cents, docs)``   the party's slice of the initial ledger
``("send", key, action)``    an envelope's first offer, before it goes out
``("recv", key, action)``    a delivery, before the driver acts on it
``("ack", key)``             the wire delivered one of the party's envelopes
``("abandon", key)``         retries ran out; the wire returned custody
``("armed", expiry)``        the deadline's absolute expiry, before its timer
``("deadline",)``            the deadline fired, before its reversals
===========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

from repro.core.actions import Action, ActionKind, transfer
from repro.core.items import Item, Money
from repro.core.parties import Party
from repro.core.protocol import EscrowEntry, PrincipalRole, Protocol, TrustedExchangeSpec
from repro.errors import ProtocolError
from repro.sim.agents import AdversaryStrategy
from repro.sim.faults import RetryPolicy

Record = tuple[Any, ...]

# Bound once: reading ``ActionKind.NOTIFY`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_NOTIFY = ActionKind.NOTIFY


@dataclass(slots=True)
class Log:
    """Append *record* to the party's log."""

    record: Record


@dataclass(slots=True)
class Send:
    """Put attempt *attempt* of envelope *key* on the wire.

    A first offer carries its ``send`` record, which is logged before the
    envelope goes out.  A retransmission, or a re-offer after recovery,
    carries ``None``: its record is already in the log.
    """

    key: str
    action: Action
    attempt: int
    record: Record | None


@dataclass(slots=True)
class Got:
    """Confirm to the wire that the delivery of envelope *key* is logged."""

    key: str


@dataclass(slots=True)
class Timer:
    """Set timer *name* to fire at sim time *at*; ``None`` cancels it."""

    name: str
    at: float | None


@dataclass(slots=True)
class Abandon:
    """Log *record*, then give up on envelope *key*: custody returns."""

    key: str
    record: Record


Command = Union[Log, Send, Got, Timer, Abandon]

#: The trusted deadline's timer.  A retry timer is named by its envelope's
#: key (``party:seq``), a slow party's delayed send by ``delay#n``.
DEADLINE = "deadline"


class CustodyView:
    """What one party holds, as the party itself sees it.

    Credited when a transfer is delivered to the party or abandoned back to
    it, debited when the party sends one: the party is the effective
    recipient of every credit and the effective sender of every debit.
    """

    __slots__ = ("cents", "documents")

    def __init__(self, cents: int, documents: Iterable[str]) -> None:
        self.cents = cents
        self.documents = set(documents)

    def holds(self, action: Action) -> bool:
        item = action.item
        if item is None:
            return True
        if isinstance(item, Money):
            return self.cents >= item.cents
        return item.label in self.documents

    def debit(self, action: Action) -> None:
        item = action.item
        if item is None:
            return
        if isinstance(item, Money):
            if self.cents < item.cents:
                raise ProtocolError(
                    f"debit of {item.cents} cents exceeds balance {self.cents}"
                )
            self.cents -= item.cents
        else:
            self.documents.discard(item.label)

    def credit(self, action: Action) -> None:
        item = action.item
        if item is None:
            return
        if isinstance(item, Money):
            self.cents += item.cents
        else:
            self.documents.add(item.label)


def _stripped(action: Action) -> Action:
    return Action(action.kind, action.sender, action.recipient, action.item, action.inverted)


class PartyDriver:
    """Keys, dedup, retries, custody and the log for one party.

    The subclasses add the party's protocol: :class:`PrincipalDriver` and
    :class:`TrustedDriver`.  With ``retransmit=False`` (the simulator's
    reliable wire) delivery is certain: the driver keeps no unacknowledged
    sends and sets no retry timer.
    """

    #: Backoff schedule for unacknowledged sends.
    retry_policy = RetryPolicy()
    #: Whether a deadline timer is set (only a trusted component has one).
    armed = False

    def __init__(
        self, party: Party, cents: int, documents: Iterable[str], retransmit: bool
    ) -> None:
        self.party = party
        self.custody = CustodyView(cents, documents)
        self.retransmit = retransmit
        self.seen: set[str] = set()
        self.unacked: dict[str, Action] = {}
        self._attempts: dict[str, int] = {}
        self._prefix = party.name + ":"
        self._seq = 1
        # Set only while recover() replays a log: first offers are collected
        # here for matching against the logged ones instead of going out.
        self._replayed: list[Action] | None = None
        self._fresh: Sequence[Action] = ()  # regenerated by recovery, never logged

    # ------------------------------------------------------------------ events

    def start(self, now: float) -> list[Command]:
        """The party's process begins (or, after :meth:`recover`, resumes)."""
        out: list[Command] = []
        self._resume(now, out)
        for key, action in self.unacked.items():
            out.append(Send(key, action, 1, None))
            self._arm_retry(now, key, action, out)
        fresh, self._fresh = self._fresh, ()
        for action in fresh:
            self._offer(now, action, out)
        self._advance(now, out)
        return out

    def delivered(self, now: float, key: str, action: Action) -> list[Command]:
        """Envelope *key* carrying *action* reached this party."""
        if key in self.seen:
            return [Got(key)]  # a duplicate copy: confirm it, nothing more
        self.seen.add(key)
        out: list[Command] = [Log(("recv", key, action)), Got(key)]
        self.custody.credit(action)
        self._absorb(now, action, out)
        return out

    def acked(self, now: float, key: str) -> list[Command]:
        """The wire delivered this party's envelope *key*."""
        if self.unacked.pop(key, None) is None:
            return []
        self._attempts.pop(key, None)
        return [Log(("ack", key))]

    def fired(self, now: float, name: str) -> list[Command]:
        """Timer *name* went off.

        A retry timer whose envelope was acknowledged meanwhile is not
        cancelled; it fires and yields nothing.
        """
        action = self.unacked.get(name)
        if action is None:
            return self._timer(now, name)
        attempts = self._attempts[name]
        if attempts > self.retry_policy.max_retries:
            del self.unacked[name], self._attempts[name]
            self.custody.credit(action)
            return [Abandon(name, ("abandon", name))]
        attempts += 1
        self._attempts[name] = attempts
        return [
            Send(name, action, attempts, None),
            Timer(name, now + self.retry_policy.timeout_for(attempts - 1)),
        ]

    # ---------------------------------------------------------------- recovery

    def recover(self, records: Sequence[Record]) -> list[Command]:
        """Rebuild this fresh driver's state from a log.

        The log's inputs (deliveries, acks, abandons, the deadline) are
        replayed through the live code in their logged order; every first
        offer that replay regenerates is matched against the logged ``send``
        records, by action with the deadline stamp stripped.  A matched send
        keeps its logged key and, unless acked or abandoned, is re-offered by
        :meth:`start`; a regenerated send with no record (the log ends
        between its cause and its ``send``) goes out fresh at :meth:`start`.
        A logged send that replay cannot regenerate means the log and the
        protocol disagree, and raises :class:`ProtocolError`.

        An empty log is a fresh start, and a log begins with the party's
        endowment: that record is the one command this returns.
        """
        if not records:
            endowment = ("endow", self.custody.cents, tuple(sorted(self.custody.documents)))
            return [Log(endowment)]
        pending: list[Action] = []
        self._replayed = pending
        for record in records:
            kind = record[0]
            if kind == "endow":
                self.custody = CustodyView(record[1], record[2])
                self._advance(0.0, [])
            elif kind == "recv":
                self.delivered(0.0, record[1], record[2])
            elif kind == "send":
                self._adopt(record[1], record[2], pending)
            elif kind == "ack":
                self.unacked.pop(record[1], None)
            elif kind == "abandon":
                action = self.unacked.pop(record[1], None)
                if action is not None:
                    self.custody.credit(action)
            elif kind == "deadline":
                self._timer(0.0, DEADLINE)
        self._replayed = None
        self._fresh = pending
        return []

    def _adopt(self, key: str, logged: Action, pending: list[Action]) -> None:
        target = _stripped(logged)
        for index, action in enumerate(pending):
            if _stripped(action) == target:
                del pending[index]
                break
        else:
            raise ProtocolError(
                f"WAL replay diverged for {self.party.name}: logged send {key} "
                f"({logged}) was not regenerated by the protocol"
            )
        if self.retransmit:
            self.unacked[key] = logged
        suffix = key.rpartition(":")[2]
        if suffix.isdigit():
            self._seq = max(self._seq, int(suffix) + 1)

    # ----------------------------------------------------------------- sending

    def _emit(self, now: float, action: Action, out: list[Command]) -> None:
        """The party sends *action*: custody leaves now."""
        self.custody.debit(action)
        self._offer(now, action, out)

    def _offer(self, now: float, action: Action, out: list[Command]) -> None:
        """First offer of a new envelope, plus its first retry timer."""
        if self._replayed is not None:
            self._replayed.append(action)
            return
        key = self._prefix + str(self._seq)
        self._seq += 1
        out.append(Send(key, action, 1, ("send", key, action)))
        if self.retransmit:
            self._arm_retry(now, key, action, out)

    def _arm_retry(self, now: float, key: str, action: Action, out: list[Command]) -> None:
        """Attempt 1 of *key* is out: await its ack, or retry."""
        self.unacked[key] = action
        self._attempts[key] = 1
        out.append(Timer(key, now + self.retry_policy.first_wait))

    # ------------------------------------------------------- subclass hooks

    def _resume(self, now: float, out: list[Command]) -> None:
        """At start, before re-offers: restore timers recovery could not."""

    def _advance(self, now: float, out: list[Command]) -> None:
        """Act on whatever the party can do unprompted."""

    def _absorb(self, now: float, action: Action, out: list[Command]) -> None:
        raise NotImplementedError

    def _timer(self, now: float, name: str) -> list[Command]:
        return []

    def phase(self) -> str:
        raise NotImplementedError


class PrincipalDriver(PartyDriver):
    """A principal walking its :class:`PrincipalRole`.

    An instruction fires once its guards are observed and the custody view
    holds its asset.  An :class:`AdversaryStrategy` deviates: it withholds
    from instruction ``perform`` on, swaps documents, or delays each send.
    """

    def __init__(
        self,
        party: Party,
        role: PrincipalRole,
        cents: int,
        documents: Iterable[str],
        strategy: AdversaryStrategy | None = None,
        retransmit: bool = True,
    ) -> None:
        super().__init__(party, cents, documents, retransmit)
        self.role = role
        self.observed: set[Action] = set()
        self.next_instruction = 0
        self._perform = len(role.instructions)
        self._substitute: dict[str, Item] = {}
        self.delay = 0.0
        if strategy is not None:
            self._perform = min(self._perform, strategy.perform)
            self._substitute = strategy.substitute or {}
            self.delay = strategy.delay
        self._delayed: dict[str, Action] = {}
        self._delays = 0

    def _absorb(self, now: float, action: Action, out: list[Command]) -> None:
        # Strip the deadline stamp from a delivered notify before matching
        # preconditions: synthesized guards carry none.
        self.observed.add(_stripped(action) if action.deadline is not None else action)
        self._advance(now, out)

    def _advance(self, now: float, out: list[Command]) -> None:
        instructions = self.role.instructions
        while self.next_instruction < self._perform:
            instruction = instructions[self.next_instruction]
            if not instruction.ready(self.observed):
                return
            action = instruction.action
            item = action.item
            if item is not None and item.label in self._substitute:
                action = transfer(action.sender, action.recipient, self._substitute[item.label])
            if not self.custody.holds(action):
                return  # wait until the asset arrives
            # Debit custody before the next instruction's custody check, so
            # a role that spends one asset twice blocks instead of
            # double-spending.
            self._emit(now, action, out)
            self.next_instruction += 1

    def _offer(self, now: float, action: Action, out: list[Command]) -> None:
        if self.delay and self._replayed is None:
            self._delays += 1
            name = f"delay#{self._delays}"
            self._delayed[name] = action
            out.append(Timer(name, now + self.delay))
            return
        super()._offer(now, action, out)

    def _timer(self, now: float, name: str) -> list[Command]:
        action = self._delayed.pop(name, None)
        if action is None:
            return []
        out: list[Command] = []
        super()._offer(now, action, out)
        return out

    def phase(self) -> str:
        return "exhausted" if self.next_instruction >= len(self.role.instructions) else "active"


class TrustedDriver(PartyDriver):
    """A trusted component running the §2.5 escrow, plus its deadline.

    :attr:`held` maps each arrived entry of its spec's escrow table to its
    deposit, in arrival order.  A deposit is accepted once, as the entry of
    its exact ``(depositor, item)``, before completion or reversal; anything
    else is bounced.  Swap deposits alone arm the deadline, prompt the
    notify and complete; then, or on expiry, each held entry is settled
    (:class:`~repro.core.protocol.EscrowEntry`).  It never gives up on a
    settlement while a run lasts, hence its longer retry cap.
    """

    retry_policy = RetryPolicy(max_retries=32)

    def __init__(
        self,
        spec: TrustedExchangeSpec,
        cents: int,
        documents: Iterable[str],
        retransmit: bool = True,
    ) -> None:
        super().__init__(spec.agent, cents, documents, retransmit)
        self.spec = spec
        self._entries = {(entry.depositor, entry.item): entry for entry in spec.entries}
        self._swaps = [entry for entry in spec.entries if entry.beneficiary is None]
        self.held: dict[EscrowEntry, Action] = {}  # entry -> accepted deposit
        self.notified: set[Party] = set()
        self.rejected: list[Action] = []
        self.completed = False
        self.reversed = False
        self.expiry: float | None = None  # absolute sim time of the deadline
        self._unlogged_arm: float | None = None  # recovery: armed, no expiry logged

    def _absorb(self, now: float, action: Action, out: list[Command]) -> None:
        if action.item is None or action.inverted:
            return  # notifies and stray reversals carry no escrow duty
        entry = self._entries.get((action.sender, action.item))
        if entry is None or entry in self.held or self.completed or self.reversed:
            # Unknown deposit, duplicate, or too late: send it straight back
            # (§2.5: a trusted component may reverse actions in which it was
            # the recipient).
            self.rejected.append(action)
            self._emit(now, action.inverse(), out)
            return
        self.held[entry] = action
        if entry.beneficiary is not None:
            return  # a §6 escrow waits for the swap's outcome
        self._arm(now, out)  # arm the deadline before the notify it stamps
        pending = [e.depositor for e in self._swaps if e not in self.held]
        if not pending:
            self._complete(now, out)
        elif len(pending) == 1 and pending[0] not in self.notified:
            last = pending[0]
            self.notified.add(last)
            # §2.5: the notice carries the earliest expiry of the pieces held.
            expiry = self.expiry if self.armed else None
            self._emit(now, Action(_NOTIFY, self.party, last, deadline=expiry), out)

    def _complete(self, now: float, out: list[Command]) -> None:
        """Every swap deposit is in: disarm, then release the swap deposits,
        goods before money and by recipient name, then refund the escrows."""
        self.completed = True
        if self.armed:
            self.armed = False
            out.append(Timer(DEADLINE, None))
        for entry in sorted(self.held, key=_release_order):
            self._settle(now, entry, entry.recipient, out)

    def _settle(self, now: float, entry: EscrowEntry, to: Party, out: list[Command]) -> None:
        """Send *entry*'s deposit to *to*: back to its depositor as the
        deposit's inverse, to anyone else as a fresh transfer."""
        deposit = self.held.pop(entry)
        if to == entry.depositor:
            self._emit(now, deposit.inverse(), out)
        else:
            self._emit(now, transfer(self.party, to, entry.item), out)

    def _arm(self, now: float, out: list[Command]) -> None:
        duration = self.spec.deadline
        if duration is None or self.armed or self.reversed:
            return
        self.armed = True
        if self._replayed is not None:
            if self.expiry is None:
                self._unlogged_arm = duration
            return
        self.expiry = now + duration
        out.append(Log(("armed", self.expiry)))
        out.append(Timer(DEADLINE, self.expiry))

    def _timer(self, now: float, name: str) -> list[Command]:
        if name != DEADLINE or not self.armed:
            return []
        self.armed = False
        out: list[Command] = [Log(("deadline",))]
        if self.completed or self.reversed:
            return out
        self.reversed = True
        # Escrows, then swap deposits, each in arrival order (a stable sort).
        performed = {entry.depositor for entry in self.held if entry.beneficiary is None}
        for entry in sorted(self.held, key=lambda e: e.beneficiary is None):
            to = entry.depositor
            if to not in performed and entry.beneficiary in performed:
                to = entry.beneficiary  # forfeit
            self._settle(now, entry, to, out)
        return out

    def recover(self, records: Sequence[Record]) -> list[Command]:
        # The notify a deposit triggers is stamped with the expiry logged
        # after that deposit: read it before the replay reaches the deposit.
        for record in records:
            if record[0] == "armed":
                self.expiry = float(record[1])
        return super().recover(records)

    def _resume(self, now: float, out: list[Command]) -> None:
        if not self.armed:
            return
        if self._unlogged_arm is not None:
            # The log ends between the deposit that armed the deadline and
            # its ``armed`` record: the expiry counts from now.
            self.expiry = now + self._unlogged_arm
            self._unlogged_arm = None
            out.append(Log(("armed", self.expiry)))
        out.append(Timer(DEADLINE, self.expiry))

    def phase(self) -> str:
        if self.completed:
            return "completed"
        return "reversed" if self.reversed else "open"


def _release_order(entry: EscrowEntry) -> tuple[bool, bool, str]:
    """Swap deposits before escrows, goods before money, then by recipient."""
    return (entry.beneficiary is not None, isinstance(entry.item, Money), entry.recipient.name)


def driver_for(
    protocol: Protocol,
    party: Party,
    cents: int,
    documents: Iterable[str],
    strategy: AdversaryStrategy | None = None,
    retransmit: bool = True,
) -> PartyDriver:
    """The driver for *party* in *protocol*, endowed with *cents* and
    *documents* (its slice of the sealed initial ledger)."""
    spec = protocol.trusted_specs.get(party)
    if spec is not None:
        return TrustedDriver(spec, cents, documents, retransmit)
    return PrincipalDriver(
        party, protocol.role_of(party), cents, documents, strategy, retransmit
    )
