"""Message transport for the simulator.

Every communication in the model *is* an action (a transfer or a notify), so
the network carries :class:`~repro.core.actions.Action` payloads.  Two
regimes coexist:

* **Reliable** (no fault plan — the paper's assumption, "parties renege,
  wires do not"): delivery is FIFO per sender with a fixed latency, exactly
  once, and asset movement is the runtime's business at send time.
* **Unreliable** (a :class:`~repro.sim.faults.FaultPlan` is installed): each
  send becomes an :class:`Envelope` that the transport attempts to deliver
  under seeded per-link drop/duplicate/delay/partition faults and per-party
  crash faults.  Senders drive retransmission via :meth:`Network.retransmit`
  (the party drivers own the timeout/backoff policy); the first successful
  delivery of an envelope fires the runtime's first-delivery hook and is
  logged, duplicate copies reach the handler with the same dedup key and no
  asset effect.  Deliveries to a *crashed* party still land (the host accepts the
  asset) but the handler call is parked in a mailbox replayed at restart;
  a permanently silent party simply never replays.  Per-link delivery times
  are clamped monotone, so delay jitter alone cannot reorder one sender's
  messages (the FIFO claim survives delay injection — the property suite
  holds the transport to this).

Handlers are registered per party and invoked as ``handler(action, key)``
where *key* is the envelope's dedup key: the sending driver's ``party:seq``
key.  Message spans and the causal log number envelopes by a network-wide
counter instead (``Envelope.obs_key``), so traces read the same whatever
the keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.core.actions import Action
from repro.core.parties import Party
from repro.errors import SimulationError
from repro.obs.messages import MessageObs
from repro.obs.runtime import active as _active_tracer
from repro.sim.events import EventQueue
from repro.sim.faults import FaultPlan


@dataclass(frozen=True)
class Delivery:
    """One delivered message: when it was sent, when it arrived, what it was."""

    sent_at: float
    delivered_at: float
    action: Action


@dataclass
class Envelope:
    """One logical message and its transport fate."""

    key: str
    action: Action
    sent_at: float
    obs_key: int = 0  # network-wide ordinal naming the envelope in traces
    attempts: int = 0
    delivered: bool = False
    delivered_at: float | None = None
    abandoned: bool = False
    span_id: int = -1  # observability span context (-1 when untraced)


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
    """Schedules action deliveries on the shared event queue."""

    def __init__(
        self,
        queue: EventQueue,
        latency: float = 1.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.queue = queue
        self.latency = latency
        self.fault_plan = fault_plan.validate() if fault_plan is not None else None
        self.stats = NetworkStats()
        self.log: list[Delivery] = []
        self._handlers: dict[Party, Callable[..., None]] = {}
        self._envelopes: dict[str, Envelope] = {}
        self._keys = itertools.count(1)
        self._rng = fault_plan.rng() if fault_plan is not None else None
        self._fifo_floor: dict[tuple[Party, Party], float] = {}
        self._mailbox: dict[Party, list[tuple[Action, str]]] = {}
        # When a tracer is active, every envelope gets a span whose events
        # are the transport's fate decisions — the causal message trace.
        tracer = _active_tracer()
        self.message_obs: MessageObs | None = (
            MessageObs(tracer) if tracer is not None else None
        )
        # The runtime installs these: the first delivery of an envelope
        # acknowledges it (and releases wire custody); an abandon returns
        # custody to the sender.
        self.first_delivery_hook: Callable[[Envelope], None] | None = None
        self.custody_return_hook: Callable[[Envelope], None] | None = None
        if self.fault_plan is not None:
            for fault in self.fault_plan.parties:
                if fault.restart_at is not None:
                    queue.schedule_at(
                        fault.restart_at,
                        lambda name=fault.party: self._drain_mailbox(name),
                        label=f"restart {fault.party}",
                    )

    def register(self, party: Party, handler: Callable[..., None]) -> None:
        """Attach the node that receives messages addressed to *party*."""
        if party in self._handlers:
            raise SimulationError(f"{party.name} is already registered on the network")
        self._handlers[party] = handler

    # -------------------------------------------------------------------- send

    def send(self, action: Action, key: str | None = None) -> Envelope:
        """Send *action* to its effective recipient; returns the envelope.

        *key* is the sender's envelope key; without one the envelope is
        keyed by its network-wide ordinal.
        """
        recipient = action.effective_recipient
        if recipient not in self._handlers:
            raise SimulationError(f"no node registered for {recipient.name}")
        sender = action.effective_sender
        self.stats.messages_sent += 1
        self.stats.by_sender[sender] = self.stats.by_sender.get(sender, 0) + 1
        if action.is_transfer:
            self.stats.transfers += 1
        else:
            self.stats.notifies += 1
        obs_key = next(self._keys)
        envelope = Envelope(
            str(obs_key) if key is None else key, action, self.queue.now, obs_key
        )
        self._envelopes[envelope.key] = envelope
        if self.message_obs is not None:
            envelope.span_id = self.message_obs.send(
                obs_key, sender.name, recipient.name, str(action), envelope.sent_at
            )
        self._attempt(envelope)
        return envelope

    def retransmit(self, key: str) -> bool:
        """Re-attempt an undelivered envelope; no-op once delivered/abandoned."""
        envelope = self._envelopes[key]
        if envelope.delivered or envelope.abandoned:
            return False
        self.stats.retransmits += 1
        if self.message_obs is not None:
            self.message_obs.retransmit(envelope.obs_key, self.queue.now)
        self._attempt(envelope)
        return True

    def abandon(self, key: str) -> bool:
        """Give up on an envelope: the wire returns custody to the sender."""
        envelope = self._envelopes[key]
        if envelope.delivered or envelope.abandoned:
            return False
        envelope.abandoned = True
        self.stats.abandoned += 1
        if self.message_obs is not None:
            self.message_obs.abandon(envelope.obs_key, self.queue.now)
        if self.custody_return_hook is not None:
            self.custody_return_hook(envelope)
        return True

    @property
    def in_flight(self) -> list[Envelope]:
        """Envelopes neither delivered nor abandoned yet."""
        return [
            e for e in self._envelopes.values() if not e.delivered and not e.abandoned
        ]

    def resolve_stranded(self) -> list[Envelope]:
        """Abandon every still-undelivered envelope (quiescence backstop).

        A message can strand when its sender's retry timers died with the
        sender (permanent silence) or were exhausted without an explicit
        abandon.  Returning custody keeps the final ledger meaningful: the
        asset is back with whoever relinquished it — the §2.3 status quo.
        """
        stranded = self.in_flight
        for envelope in stranded:
            self.abandon(envelope.key)
        return stranded

    # ----------------------------------------------------------------- faults

    def _attempt(self, envelope: Envelope) -> None:
        """Schedule one delivery attempt, running the fault gauntlet."""
        envelope.attempts += 1
        self.stats.attempts += 1
        action = envelope.action
        now = self.queue.now
        if self.message_obs is not None:
            self.message_obs.attempt(envelope.obs_key, envelope.attempts, now)
        plan = self.fault_plan
        times = [now + self.latency]
        if plan is not None and plan.active(now):
            link = plan.link_for(
                action.effective_sender.name, action.effective_recipient.name
            )
            if link is not None:
                if link.partitioned(now) or (
                    link.drop > 0 and self._rng.random() < link.drop
                ):
                    self.stats.dropped += 1
                    if self.message_obs is not None:
                        self.message_obs.drop(envelope.obs_key, now)
                    return  # this attempt is lost; the asset stays on the wire
                jitter = (
                    self._rng.uniform(0.0, link.max_delay) if link.max_delay > 0 else 0.0
                )
                times = [now + self.latency + jitter]
                if link.duplicate > 0 and self._rng.random() < link.duplicate:
                    self.stats.duplicates += 1
                    if self.message_obs is not None:
                        self.message_obs.duplicate(envelope.obs_key, now)
                    times.append(times[0] + self.latency)
        for t in times:
            if plan is not None:
                # Clamp per-link delivery times monotone: jitter may stretch
                # the wire but never lets a later message overtake an earlier
                # one on the same directed link.
                pair = (action.effective_sender, action.effective_recipient)
                t = max(t, self._fifo_floor.get(pair, 0.0))
                self._fifo_floor[pair] = t
            self.queue.schedule_at(
                t, lambda e=envelope: self._deliver(e), label=str(action)
            )

    def _deliver(self, envelope: Envelope) -> None:
        if envelope.abandoned:
            return  # a late copy of a message the wire already bounced
        recipient = envelope.action.effective_recipient
        if not envelope.delivered:
            envelope.delivered = True
            envelope.delivered_at = self.queue.now
            if self.first_delivery_hook is not None:
                self.first_delivery_hook(envelope)
            self.stats.messages_delivered += 1
            if self.message_obs is not None:
                self.message_obs.deliver(envelope.obs_key, self.queue.now)
            self.log.append(Delivery(envelope.sent_at, self.queue.now, envelope.action))
        else:
            self.stats.duplicate_deliveries += 1
            if self.message_obs is not None:
                self.message_obs.duplicate_delivery(envelope.obs_key, self.queue.now)
        plan = self.fault_plan
        if plan is not None and plan.is_crashed(recipient.name, self.queue.now):
            # The host accepted the asset; the process is down.  Park the
            # handler call until restart (never, for permanent silence).
            self.stats.deferred += 1
            if self.message_obs is not None:
                self.message_obs.defer(envelope.obs_key, self.queue.now)
            self._mailbox.setdefault(recipient, []).append(
                (envelope.action, envelope.key)
            )
            return
        self._handlers[recipient](envelope.action, envelope.key)

    def _drain_mailbox(self, name: str) -> None:
        """Replay deliveries parked while the party's process was down."""
        party = next((p for p in self._handlers if p.name == name), None)
        if party is None:
            return
        for action, key in self._mailbox.pop(party, []):
            self._handlers[party](action, key)

    # ----------------------------------------------------------------- timers

    def schedule_for(
        self,
        party: Party,
        at: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> TimerHandle:
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
                handle._event = self.queue.schedule_at(restart, fire, label)
                return
            callback()

        handle._event = self.queue.schedule_at(at, fire, label)
        return handle
