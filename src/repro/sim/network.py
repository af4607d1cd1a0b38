"""The wire both runtimes share, without I/O.

Every communication in the model *is* an action (a transfer or a notify), so
the wire carries :class:`~repro.core.actions.Action` payloads, one
:class:`Envelope` per logical message, keyed by the sending driver's
``party:seq`` key.  :class:`TransportCore` is the wire without I/O: the
envelope table, :class:`NetworkStats` and the message spans, each
attempt's fate (:meth:`FaultPlan.fate <repro.sim.faults.FaultPlan.fate>`),
the per-link FIFO floor, first versus duplicate deliveries, the ordered
delivery log, abandons and stranded envelopes.
:class:`~repro.sim.runtime.Simulation` interprets it on the simulator's
event queue and :class:`~repro.net.proxy.NetFaultProxy` on real sockets, so
one fault plan gives an envelope the same fate on every attempt in both
runtimes.

* **Reliable** (no fault plan — the paper's assumption, "parties renege,
  wires do not"): every attempt arrives once after a fixed latency, FIFO per
  sender, and asset movement is the runtime's business at send time.
* **Unreliable** (a :class:`~repro.sim.faults.FaultPlan` is installed):
  each attempt runs the plan's gauntlet, and senders drive retransmission
  (the party drivers own the timeout/backoff policy).  The first copy to
  arrive is the delivery: it is logged, and the runtime acknowledges it to
  the sender; later copies are duplicates with no asset effect.  A first
  copy for a *down* recipient is parked (:meth:`TransportCore.park`): the
  host accepts the asset, and the runtime holds its handling until the
  party is back.  Per-link arrival times are clamped monotone, so delay
  jitter alone cannot reorder one sender's messages (the property suite
  holds the transport to this).

Message spans and the causal log number envelopes by a wire-wide counter
(``Envelope.obs_key``), so traces read the same whatever the keys.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.actions import Action
from repro.core.parties import Party
from repro.errors import SimulationError
from repro.obs.messages import MessageObs
from repro.obs.runtime import active as _active_tracer
from repro.records import new_record
from repro.sim.faults import FaultPlan


class Delivery(NamedTuple):
    """One entry of the wire's ordered log: an envelope's first delivery.

    :meth:`TransportCore.deliver` builds each with
    :data:`repro.records.new_record`, which runs no Python frame.
    """

    seq: int
    key: str
    action: Action
    sent_at: float
    delivered_at: float


@dataclass(slots=True)
class Envelope:
    """One logical message and its transport fate.

    :meth:`TransportCore.send` reads the action's effective endpoints once,
    when it opens the envelope: the parties, which the simulator moves
    custody between and hands deliveries to, and their names, which the
    fault plan and the sockets address.
    """

    key: str
    action: Action
    source: Party  # effective sender
    target: Party  # effective recipient
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
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
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
        source = action.effective_sender
        target = action.effective_recipient
        stats = self.stats
        stats.messages_sent += 1
        stats.by_sender[source] = stats.by_sender.get(source, 0) + 1
        if action.item is None:
            stats.notifies += 1
        else:
            stats.transfers += 1
        obs_key = next(self._obs_keys)
        envelope = Envelope(
            str(obs_key) if key is None else key,
            action,
            source,
            target,
            source.name,
            target.name,
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
        log = self.log
        log.append(
            new_record(Delivery, (len(log), envelope.key, envelope.action, envelope.sent_at, now))
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
