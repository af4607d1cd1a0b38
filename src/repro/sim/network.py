"""The wire both runtimes share, and the simulator's interpreter of it.

Every communication in the model *is* an action (a transfer or a notify), so
the wire carries :class:`~repro.core.actions.Action` payloads, one
:class:`Envelope` per logical message, keyed by the sending driver's
``party:seq`` key.  :class:`TransportCore` is the wire without I/O: the
envelope table, :class:`NetworkStats` and the message spans, each
attempt's fate (:meth:`FaultPlan.fate <repro.sim.faults.FaultPlan.fate>`),
the per-link FIFO floor, first versus duplicate deliveries, the ordered
delivery log, abandons and stranded envelopes.  :class:`Network` interprets
it on the simulator's event queue and
:class:`~repro.net.proxy.NetFaultProxy` on real sockets, so one fault plan
gives an envelope the same fate on every attempt in both runtimes.

* **Reliable** (no fault plan — the paper's assumption, "parties renege,
  wires do not"): every attempt arrives once after a fixed latency, FIFO per
  sender, and asset movement is the runtime's business at send time.
* **Unreliable** (a :class:`~repro.sim.faults.FaultPlan` is installed):
  each attempt runs the plan's gauntlet, and senders drive retransmission
  (the party drivers own the timeout/backoff policy).  The first copy to
  arrive is the delivery: it is logged, and the runtime acknowledges it to
  the sender; later copies reach a live handler with the same key and no
  asset effect.  A first copy for a *crashed* party still lands (the host
  accepts the asset) but its handling is parked in a mailbox replayed at
  restart (never, for permanent silence); a later copy for a crashed party
  is dropped.  Per-link arrival times are clamped monotone, so delay jitter
  alone cannot reorder one sender's messages (the property suite holds the
  transport to this).

Message spans and the causal log number envelopes by a wire-wide counter
(``Envelope.obs_key``), so traces read the same whatever the keys.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.actions import Action
from repro.core.parties import Party
from repro.errors import SimulationError
from repro.obs.messages import MessageObs
from repro.obs.runtime import active as _active_tracer
from repro.sim.events import EventQueue
from repro.sim.faults import FaultPlan


class Delivery(NamedTuple):
    """One entry of the wire's ordered log: an envelope's first delivery."""

    seq: int
    key: str
    action: Action
    sent_at: float
    delivered_at: float


@dataclass(slots=True)
class Envelope:
    """One logical message and its transport fate."""

    key: str
    action: Action
    sender: str  # effective sender's name
    recipient: str  # effective recipient's name
    sent_at: float
    obs_key: int = 0  # wire-wide ordinal naming the envelope in traces
    attempts: int = 0
    arrived: bool = False  # a first copy reached the recipient
    delivered: bool = False
    delivered_at: float | None = None
    abandoned: bool = False


@dataclass
class NetworkStats:
    """Counters the §8 cost analysis and the chaos study read off a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    transfers: int = 0
    notifies: int = 0
    by_sender: dict[Party, int] = field(default_factory=dict)
    # Fault-injection counters (all zero on the reliable transport).
    attempts: int = 0
    dropped: int = 0
    duplicates: int = 0
    duplicate_deliveries: int = 0
    retransmits: int = 0
    deferred: int = 0
    abandoned: int = 0


class Arrival(enum.Enum):
    """What one copy reaching its recipient is (:meth:`TransportCore.arrive`)."""

    FIRST = "first"  # for a live recipient: hand it over, then deliver()
    PARKED = "parked"  # for a down recipient: delivered, its handling waits
    DUPLICATE = "duplicate"  # a later copy: hand it over if the recipient is up
    BOUNCED = "bounced"  # the envelope was abandoned: the copy vanishes


# Bound once: reading ``Arrival.FIRST`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_FIRST = Arrival.FIRST
_PARKED = Arrival.PARKED
_DUPLICATE = Arrival.DUPLICATE
_BOUNCED = Arrival.BOUNCED


class TransportCore:
    """The wire without I/O: envelopes, fates, accounting and the delivery log.

    A runtime opens an envelope with :meth:`send`, re-offers it with
    :meth:`retransmit`, and puts each copy in front of the recipient at the
    arrival times those return; :meth:`arrive` says what the copy is.  A
    first copy for a live recipient is delivered when the runtime confirms
    it with :meth:`deliver` — at once in the simulator, at the node's
    ``got`` over sockets.
    """

    def __init__(self, latency: float = 1.0, plan: FaultPlan | None = None) -> None:
        self.latency = latency
        self.plan = plan
        self.stats = NetworkStats()
        #: First deliveries, in the order they happened: the run's ground truth.
        self.log: list[Delivery] = []
        self.envelopes: dict[str, Envelope] = {}
        #: Per sender name: its envelopes neither delivered nor abandoned.
        self.unresolved: dict[str, int] = {}
        self._obs_keys = itertools.count(1)
        self._fifo_floor: dict[tuple[str, str], float] = {}
        # When a tracer is active, every envelope gets a span whose events
        # are the wire's fate decisions — the causal message trace.
        tracer = _active_tracer()
        self.obs: MessageObs | None = MessageObs(tracer) if tracer is not None else None

    # ------------------------------------------------------------------ send

    def send(
        self, now: float, action: Action, key: str | None = None
    ) -> tuple[Envelope, list[float]]:
        """Open the envelope of *action*'s first offer and make attempt 1.

        *key* is the sender's envelope key; without one the envelope is
        keyed by its wire-wide ordinal.  Returns the envelope and the times
        its copies arrive.
        """
        sender = action.effective_sender
        stats = self.stats
        stats.messages_sent += 1
        stats.by_sender[sender] = stats.by_sender.get(sender, 0) + 1
        if action.is_transfer:
            stats.transfers += 1
        else:
            stats.notifies += 1
        obs_key = next(self._obs_keys)
        envelope = Envelope(
            str(obs_key) if key is None else key,
            action,
            sender.name,
            action.effective_recipient.name,
            now,
            obs_key,
        )
        self.envelopes[envelope.key] = envelope
        self.unresolved[envelope.sender] = self.unresolved.get(envelope.sender, 0) + 1
        if self.obs is not None:
            self.obs.send(obs_key, envelope.sender, envelope.recipient, str(action), now)
        return envelope, self._attempt(now, envelope)

    def retransmit(self, now: float, key: str) -> list[float] | None:
        """Re-offer envelope *key*: the times this attempt's copies arrive.

        ``None`` once the envelope is abandoned.  A re-offer of a delivered
        envelope (a retry that raced its acknowledgement) counts as an
        attempt but puts nothing on the wire.
        """
        envelope = self.envelopes[key]
        if envelope.abandoned:
            return None
        self.stats.retransmits += 1
        if self.obs is not None:
            self.obs.retransmit(envelope.obs_key, now)
        return self._attempt(now, envelope)

    def _attempt(self, now: float, envelope: Envelope) -> list[float]:
        """Run the next attempt through the gauntlet; when its copies arrive."""
        envelope.attempts += 1
        stats = self.stats
        stats.attempts += 1
        obs = self.obs
        if obs is not None:
            obs.attempt(envelope.obs_key, envelope.attempts, now)
        if envelope.delivered:
            return []
        plan = self.plan
        if plan is None:
            return [now + self.latency]
        fate = plan.fate(
            envelope.sender, envelope.recipient, envelope.key, envelope.attempts, now
        )
        if fate.dropped:
            stats.dropped += 1
            if obs is not None:
                obs.drop(envelope.obs_key, now)
            return []  # this attempt is lost; the asset stays on the wire
        arrival = now + self.latency + fate.jitter
        times = [arrival]
        if fate.duplicated:
            stats.duplicates += 1
            if obs is not None:
                obs.duplicate(envelope.obs_key, now)
            times.append(arrival + self.latency)
        # Clamp per-link arrival times monotone: jitter may stretch the wire
        # but never lets a later copy overtake an earlier one on the same
        # directed link.
        link = (envelope.sender, envelope.recipient)
        floor = self._fifo_floor.get(link, 0.0)
        for index, time in enumerate(times):
            floor = times[index] = max(time, floor)
        self._fifo_floor[link] = floor
        return times

    # --------------------------------------------------------------- arrival

    def arrive(self, now: float, envelope: Envelope, down: bool) -> Arrival:
        """One copy of *envelope* reaches its recipient, whose process is
        *down* (crashed, or unreachable) or not."""
        if envelope.abandoned:
            return _BOUNCED  # a late copy of a message the wire bounced
        if envelope.arrived:
            self.stats.duplicate_deliveries += 1
            if self.obs is not None:
                self.obs.duplicate_delivery(envelope.obs_key, now)
            return _DUPLICATE
        envelope.arrived = True
        if down:
            self.park(now, envelope)
            return _PARKED
        return _FIRST

    def deliver(self, now: float, envelope: Envelope) -> bool:
        """The recipient took *envelope*'s first copy: log the delivery.

        ``False`` when it was already delivered or abandoned.
        """
        if envelope.delivered or envelope.abandoned:
            return False
        self.unresolved[envelope.sender] -= 1
        envelope.delivered = True
        envelope.delivered_at = now
        self.stats.messages_delivered += 1
        if self.obs is not None:
            self.obs.deliver(envelope.obs_key, now)
        self.log.append(
            Delivery(len(self.log), envelope.key, envelope.action, envelope.sent_at, now)
        )
        return True

    def park(self, now: float, envelope: Envelope) -> bool:
        """A first copy for a down recipient: the host accepts the asset, so
        the envelope is delivered, and its handling waits for a restart.

        ``False`` when it was already delivered or abandoned.
        """
        if not self.deliver(now, envelope):
            return False
        self.stats.deferred += 1
        if self.obs is not None:
            self.obs.defer(envelope.obs_key, now)
        return True

    # --------------------------------------------------------------- abandon

    def abandon(self, now: float, key: str) -> Envelope | None:
        """Give up on envelope *key*: the wire returns custody to the sender.

        ``None`` for an unknown key or an envelope already delivered or
        abandoned.
        """
        envelope = self.envelopes.get(key)
        if envelope is None or envelope.delivered or envelope.abandoned:
            return None
        self.unresolved[envelope.sender] -= 1
        envelope.abandoned = True
        self.stats.abandoned += 1
        if self.obs is not None:
            self.obs.abandon(envelope.obs_key, now)
        return envelope

    @property
    def in_flight(self) -> list[Envelope]:
        """Envelopes neither delivered nor abandoned yet."""
        return [
            e for e in self.envelopes.values() if not e.delivered and not e.abandoned
        ]

    def resolve_stranded(self, now: float) -> list[Envelope]:
        """Abandon every still-undelivered envelope (quiescence backstop).

        A message can strand when its sender's retry timers died with the
        sender (permanent silence) or were exhausted without an explicit
        abandon.  Returning custody keeps the final ledger meaningful: the
        asset is back with whoever relinquished it — the §2.3 status quo.
        """
        stranded = self.in_flight
        for envelope in stranded:
            self.abandon(now, envelope.key)
        return stranded


def _unhooked(envelope: Envelope) -> None:
    """The reliable wire's hooks: no custody to move, no acknowledgement."""


class TimerHandle:
    """A cancellable, crash-deferrable timer returned by ``schedule_for``.

    Duck-types the slice of :class:`~repro.sim.events.Event` a runtime uses
    (``time`` and ``cancel``) while surviving re-scheduling across a crash
    window, which a bare event cannot.
    """

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False
        self._event = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()


class Network:
    """The simulator's interpreter of the wire: each copy is an event.

    It schedules the arrivals :class:`TransportCore` computes on the shared
    queue, dispatches them to the registered handlers, parks first
    deliveries for a crashed party in a mailbox drained at its restart, and
    defers a crashed party's timers.
    """

    def __init__(
        self,
        queue: EventQueue,
        latency: float = 1.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.queue = queue
        self.fault_plan = fault_plan.validate() if fault_plan is not None else None
        self.core = TransportCore(latency, self.fault_plan)
        self.stats = self.core.stats
        self.log = self.core.log  # first deliveries, in order
        self._handlers: dict[Party, Callable[..., None]] = {}
        self._mailbox: dict[str, list[Envelope]] = {}
        # The runtime installs these: the first delivery of an envelope
        # acknowledges it (and releases wire custody); an abandon returns
        # custody to the sender.
        self.first_delivery_hook: Callable[[Envelope], None] = _unhooked
        self.custody_return_hook: Callable[[Envelope], None] = _unhooked
        if self.fault_plan is not None:
            for fault in self.fault_plan.parties:
                if fault.restart_at is not None:
                    queue.schedule_at(
                        fault.restart_at, functools.partial(self._drain_mailbox, fault.party)
                    )

    @property
    def in_flight(self) -> list[Envelope]:
        return self.core.in_flight

    def register(self, party: Party, handler: Callable[..., None]) -> None:
        """Attach the node that receives messages addressed to *party*."""
        if party in self._handlers:
            raise SimulationError(f"{party.name} is already registered on the network")
        self._handlers[party] = handler

    # -------------------------------------------------------------------- send

    def send(self, action: Action, key: str | None = None) -> Envelope:
        """Send *action* to its effective recipient; returns the envelope."""
        recipient = action.effective_recipient
        if recipient not in self._handlers:
            raise SimulationError(f"no node registered for {recipient.name}")
        envelope, arrivals = self.core.send(self.queue.now, action, key)
        self._schedule(envelope, arrivals)
        return envelope

    def retransmit(self, key: str) -> bool:
        """Re-offer envelope *key*; ``False`` once it is abandoned."""
        arrivals = self.core.retransmit(self.queue.now, key)
        if arrivals is None:
            return False
        self._schedule(self.core.envelopes[key], arrivals)
        return True

    def abandon(self, key: str) -> bool:
        """Give up on an envelope: the wire returns custody to the sender."""
        envelope = self.core.abandon(self.queue.now, key)
        if envelope is None:
            return False
        self.custody_return_hook(envelope)
        return True

    def resolve_stranded(self) -> list[Envelope]:
        """Abandon every still-undelivered envelope, returning custody."""
        stranded = self.core.resolve_stranded(self.queue.now)
        for envelope in stranded:
            self.custody_return_hook(envelope)
        return stranded

    # ---------------------------------------------------------------- arrival

    def _schedule(self, envelope: Envelope, arrivals: list[float]) -> None:
        for time in arrivals:
            self.queue.schedule_at(time, functools.partial(self._arrive, envelope))

    def _arrive(self, envelope: Envelope) -> None:
        now = self.queue.now
        plan = self.fault_plan
        down = plan is not None and plan.is_crashed(envelope.recipient, now)
        arrival = self.core.arrive(now, envelope, down)
        if arrival is _FIRST:
            self.core.deliver(now, envelope)  # a simulated process takes it at once
            self.first_delivery_hook(envelope)
            self._dispatch(envelope)
        elif arrival is _PARKED:
            self.first_delivery_hook(envelope)
            self._mailbox.setdefault(envelope.recipient, []).append(envelope)
        elif arrival is _DUPLICATE and not down:
            self._dispatch(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        action = envelope.action
        self._handlers[action.effective_recipient](action, envelope.key)

    def _drain_mailbox(self, name: str) -> None:
        """Hand over the first deliveries parked while the process was down."""
        for envelope in self._mailbox.pop(name, []):
            self._dispatch(envelope)

    # ----------------------------------------------------------------- timers

    def schedule_for(self, party: Party, at: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule a timer owned by *party*'s process, due at sim time *at*.

        While the party is crashed the timer defers to its restart instant;
        if the party never restarts the timer dies with it.  On the reliable
        transport this is a plain callback at *at*.
        """
        handle = TimerHandle(at)

        def fire() -> None:
            if handle.cancelled:
                return
            plan = self.fault_plan
            if plan is not None and plan.is_crashed(party.name, self.queue.now):
                restart = plan.restart_time(party.name)
                if restart is None:
                    return  # the process never comes back; neither does this
                handle._event = self.queue.schedule_at(restart, fire)
                return
            callback()

        handle._event = self.queue.schedule_at(at, fire)
        return handle
