"""The fault proxy: a seeded :class:`FaultPlan` enacted on real sockets.

Every node connects to this asyncio TCP server; every envelope a node
offers runs the *same* fault gauntlet the simulator's
:class:`~repro.sim.network.Network` applies — partition windows, drop and
duplication probabilities, bounded delay jitter, per-directed-link FIFO
clamping — before being forwarded to its recipient.  Process faults are
*real*: the supervisor SIGKILLs the victim's process, and the proxy parks
deliveries addressed to a party inside its crash window (or with no live
connection) in a mailbox flushed at reconnect, exactly the simulator's
crashed-host semantics ("assets land on the host; only the logic is
suspended").

One deliberate departure from the simulator, documented here and in
DESIGN.md §13: the simulator draws fault rolls from ``Random(plan.seed)``
in *event order*, which no concurrent transport can replicate.  The proxy
instead derives every roll from a stable hash of
``(plan.seed, envelope key, attempt, purpose)`` — per-envelope
deterministic, order-free.  Individual message fates therefore differ
between runtimes; the conformance arm compares *verdicts* (safety and
conservation), which the §5 theorem guarantees regardless of which
messages die.

Delivery is two-phase where it matters: a forwarded envelope counts as
delivered only once the recipient confirms (``got``) that the delivery hit
its write-ahead log — if the process is killed with the frame still in a
socket buffer, the proxy re-parks it for redelivery at restart, so a
message can never vanish into a dying process *after* being acknowledged
to its sender.  Parked deliveries are acknowledged immediately (the host
accepted the asset), mirroring ``Envelope.delivered`` for crashed parties.

The ordered delivery log the proxy keeps is the run's ground truth: the
supervisor folds it over the initial ledger to produce the final snapshot
that :func:`repro.sim.safety.evaluate_safety` judges.

Quiescence is exact, not inferred from silence.  Every node reports after
each frame it handles, stamped with how many proxy frames it has handled on
its connection, and the proxy counts the frames it writes per connection;
:meth:`NetFaultProxy.quiescent` holds once nothing can move any more (no
delivery timer outstanding, no restart pending, no unresolved envelope from
a live sender, and every live party connected with a report that covers
every frame written to it and shows nothing pending and no armed
deadline).  One event is set on every state change — frame read, connect,
disconnect, delivery-timer firing, fault enactment — so waiters re-evaluate
exactly when the answer can change.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.actions import Action
from repro.net.wire import action_from_json, action_to_json, read_frame, write_frame
from repro.obs.messages import MessageObs
from repro.obs.runtime import active as _active_tracer
from repro.sim.faults import FaultPlan
from repro.sim.network import NetworkStats

#: Wall seconds :meth:`NetFaultProxy.close` waits for its tasks to finish.
_CLOSE_TIMEOUT = 5.0


@dataclass
class ProxiedEnvelope:
    """Transport fate of one logical message, keyed by its string key."""

    key: str
    src: str  # effective sender (the offering node)
    dst: str  # effective recipient
    action: Action
    obs_key: int
    attempts: int = 0
    delivered: bool = False
    abandoned: bool = False
    delivered_at: float | None = None


@dataclass
class DeliveryRecord:
    """One entry of the authoritative ordered delivery log."""

    seq: int
    time: float
    key: str
    action: Action

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": round(self.time, 6),
            "key": self.key,
            "action": action_to_json(self.action),
        }


class _Session:
    """One node connection: frames the proxy wrote on it, and the node's
    latest report on it."""

    __slots__ = ("writer", "written", "report")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.written = 0
        self.report: dict[str, Any] | None = None

    @property
    def live(self) -> bool:
        return not self.writer.is_closing()

    def send(self, frame: dict[str, Any]) -> None:
        write_frame(self.writer, frame)
        self.written += 1

    @property
    def settled(self) -> bool:
        """The node has handled every frame written to it and has nothing
        of its own left to do: no unacknowledged send, no armed deadline."""
        report = self.report
        return (
            report is not None
            and report.get("handled", 0) >= self.written
            and not report.get("pending")
            and not report.get("armed")
        )


class NetFaultProxy:
    """Routes framed envelopes between node processes, injecting faults."""

    def __init__(
        self,
        expected: frozenset[str],
        plan: FaultPlan | None = None,
        latency: float = 1.0,
        time_scale: float = 0.02,
    ) -> None:
        self.expected = expected
        self.plan = plan.validate() if plan is not None else None
        self.latency = latency
        self.time_scale = time_scale
        self.stats = NetworkStats()
        self.delivery_log: list[DeliveryRecord] = []
        self.reports: dict[str, dict[str, Any]] = {}
        self.dead: set[str] = set()  # permanently silenced (never restarted)

        self._conns: dict[str, _Session] = {}
        self._handlers: dict[asyncio.StreamWriter, asyncio.Task[Any]] = {}
        self._mailbox: dict[str, list[tuple[str, Action]]] = {}
        self._offered: dict[str, ProxiedEnvelope] = {}
        self._unresolved: dict[str, int] = {}  # sender -> undelivered, unabandoned
        self._await_got: dict[str, _Session] = {}  # key -> connection it went out on
        self._rejoining: set[str] = set()  # killed; a restart is on its way
        self._timers = 0  # outstanding _deliver_later tasks
        self._fifo_floor: dict[tuple[str, str], float] = {}
        self._obs_keys = itertools.count(1)
        self._tasks: set[asyncio.Task[None]] = set()
        self._server: asyncio.Server | None = None
        self._welcome = asyncio.Event()
        self._changed = asyncio.Event()
        self._failure: BaseException | None = None
        self._closed = False
        self.epoch_wall: float | None = None
        tracer = _active_tracer()
        self.obs: MessageObs | None = MessageObs(tracer) if tracer is not None else None

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        self._server = await asyncio.start_server(self._handle, host, port)
        return self.port

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def open_for_business(self) -> None:
        """Fix the epoch (sim time 0) and release welcome frames."""
        self.epoch_wall = time.time()
        self._welcome.set()

    def missing(self) -> list[str]:
        """Expected parties with no live connection, sorted."""
        return sorted(self.expected - self._conns.keys())

    async def wait_connected(self, timeout: float) -> bool:
        """Wait until every expected party has said hello (or *timeout*)."""
        return await self.until(lambda: not self.missing(), timeout)

    async def until(self, condition: Callable[[], bool], timeout: float) -> bool:
        """Re-evaluate *condition* on every state change until it holds.

        Returns ``False`` once *timeout* wall seconds pass without it; raises
        whatever :meth:`fail` was given, the moment it is given.
        """
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout
        alarm = loop.call_at(give_up, self._changed.set)  # one timer per wait
        try:
            while True:
                if self._failure is not None:
                    raise self._failure
                if condition():
                    return True
                if loop.time() >= give_up:
                    return False
                self._changed.clear()
                await self._changed.wait()
        finally:
            alarm.cancel()

    def fail(self, error: BaseException) -> None:
        """End the run: every current and later :meth:`until` raises *error*."""
        if self._failure is None:
            self._failure = error
        self._changed.set()

    def crashed(self, party: str, permanent: bool) -> None:
        """The supervisor killed *party*.  A permanently silenced party leaves
        the quiescence predicate; any other holds it open until its
        replacement says hello."""
        if permanent:
            self.dead.add(party)
        else:
            self._rejoining.add(party)
        self._changed.set()

    async def shutdown(self, timeout: float) -> bool:
        """Tell every node the run is over; wait until all have hung up."""
        for session in self._conns.values():
            if session.live:
                session.send({"type": "shutdown"})
        return await self.until(lambda: not self._conns, timeout)

    async def close(self) -> None:
        self._closed = True
        self._welcome.set()  # release handlers still waiting for the epoch
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        for writer in self._handlers:
            writer.close()  # the handler reads EOF and returns
        pending = [*self._tasks, *self._handlers.values()]
        if pending:
            await asyncio.wait(pending, timeout=_CLOSE_TIMEOUT)
        if self._server is not None:
            await self._server.wait_closed()
        if self.obs is not None:
            self.obs.finish(self.now_sim())

    # ------------------------------------------------------------------ time

    def now_sim(self) -> float:
        if self.epoch_wall is None:
            return 0.0
        return (time.time() - self.epoch_wall) / self.time_scale

    # ------------------------------------------------------------ quiescence

    def quiescent(self) -> bool:
        """Nothing can happen any more without a new external event.

        O(parties): no delivery timer is outstanding, no restart is pending,
        and every live party (not in :attr:`dead`) has no unresolved
        envelope of its own, is connected, and has reported on its current
        connection after handling every frame written there, with nothing
        pending and no armed deadline.  A permanently dead sender can never
        retry, so its undelivered mail is stranded, not pending.
        """
        if self._timers or self._rejoining:
            return False
        for party in self.expected - self.dead:
            if self._unresolved.get(party):
                return False
            session = self._conns.get(party)
            if session is None or not session.settled:
                return False
        return True

    # ------------------------------------------------------------ connection

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers[writer] = task
        try:
            await self._serve(reader, writer)
        finally:
            del self._handlers[writer]
            writer.close()
            self._changed.set()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        hello = await read_frame(reader)
        if hello is None or hello.get("type") != "hello":
            return
        party = str(hello["party"])
        session = _Session(writer)
        self._conns[party] = session
        self._rejoining.discard(party)
        self._changed.set()
        try:
            await self._welcome.wait()
            if self._closed:
                return
            session.send(
                {
                    "type": "welcome",
                    "epoch": self.epoch_wall,
                    "time_scale": self.time_scale,
                }
            )
            # Flush mail parked while the party's process was down: these
            # were already marked delivered (the host accepted them); the
            # restarted process now gets to run its handler, as in
            # Network._drain_mailbox.
            for key, action in self._mailbox.pop(party, []):
                self._forward(party, key, action)
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "act":
                    self._on_offer(party, frame)
                elif kind == "got":
                    self._on_got(str(frame["key"]))
                elif kind == "abandon":
                    self._on_abandon(str(frame["key"]))
                elif kind == "report":
                    self.reports[party] = frame
                    session.report = frame
                self._changed.set()
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            if self._conns.get(party) is session:
                del self._conns[party]
            self._repark(session)

    def _live(self, party: str) -> _Session | None:
        session = self._conns.get(party)
        return session if session is not None and session.live else None

    def _repark(self, session: _Session) -> None:
        """The connection died: anything forwarded on it but never confirmed
        goes back to its party (a SIGKILL can strand frames in socket
        buffers) — to the mailbox, or to a connection that replaced it.
        """
        stranded = [k for k, via in self._await_got.items() if via is session]
        for key in stranded:
            del self._await_got[key]
            env = self._offered[key]
            if not env.delivered:
                self._mark_delivered(env)  # the host accepted it; log + ack
                self.stats.deferred += 1
                if self.obs is not None:
                    self.obs.defer(env.obs_key, self.now_sim())
            self._forward(env.dst, key, env.action)

    # --------------------------------------------------------------- gauntlet

    def _roll(self, key: str, attempt: int, purpose: str) -> float:
        """A stable uniform [0,1) roll for one (envelope, attempt, purpose).

        Unlike the simulator's event-ordered ``Random(plan.seed)`` stream,
        rolls here are keyed — concurrency cannot reorder them.
        """
        seed = 0 if self.plan is None else self.plan.seed
        digest = hashlib.sha256(
            f"{seed}:{key}:{attempt}:{purpose}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _on_offer(self, party: str, frame: dict[str, Any]) -> None:
        key = str(frame["key"])
        now = self.now_sim()
        env = self._offered.get(key)
        if env is None:
            action = action_from_json(frame["action"])
            env = ProxiedEnvelope(
                key=key,
                src=action.effective_sender.name,
                dst=action.effective_recipient.name,
                action=action,
                obs_key=next(self._obs_keys),
            )
            self._offered[key] = env
            self._unresolved[env.src] = self._unresolved.get(env.src, 0) + 1
            self.stats.messages_sent += 1
            self.stats.by_sender[action.effective_sender] = (
                self.stats.by_sender.get(action.effective_sender, 0) + 1
            )
            if action.is_transfer:
                self.stats.transfers += 1
            else:
                self.stats.notifies += 1
            if self.obs is not None:
                self.obs.send(env.obs_key, env.src, env.dst, str(action), now)
        else:
            if env.abandoned:
                return
            self.stats.retransmits += 1
            if self.obs is not None:
                self.obs.retransmit(env.obs_key, now)
        env.attempts += 1
        self.stats.attempts += 1
        if self.obs is not None:
            self.obs.attempt(env.obs_key, env.attempts, now)
        if env.delivered:
            self._ack(env)  # a retry raced the ack, or a restarted node re-offered
            return

        times = [now + self.latency]
        plan = self.plan
        if plan is not None and plan.active(now):
            link = plan.link_for(env.src, env.dst)
            if link is not None:
                if link.partitioned(now) or (
                    link.drop > 0 and self._roll(key, env.attempts, "drop") < link.drop
                ):
                    self.stats.dropped += 1
                    if self.obs is not None:
                        self.obs.drop(env.obs_key, now)
                    return  # this attempt is lost; the asset stays on the wire
                jitter = (
                    self._roll(key, env.attempts, "delay") * link.max_delay
                    if link.max_delay > 0
                    else 0.0
                )
                times = [now + self.latency + jitter]
                if link.duplicate > 0 and (
                    self._roll(key, env.attempts, "dup") < link.duplicate
                ):
                    self.stats.duplicates += 1
                    if self.obs is not None:
                        self.obs.duplicate(env.obs_key, now)
                    times.append(times[0] + self.latency)
        if plan is not None:
            # FIFO floor: jitter may stretch the wire but never lets a later
            # message overtake an earlier one on the same directed link.
            pair = (env.src, env.dst)
            clamped = []
            for t in times:
                t = max(t, self._fifo_floor.get(pair, 0.0))
                self._fifo_floor[pair] = t
                clamped.append(t)
            times = clamped
        for t in times:
            self._spawn(self._deliver_later(env, max(0.0, t - now) * self.time_scale))

    def _spawn(self, coro: Any) -> None:
        task = asyncio.ensure_future(coro)
        self._timers += 1
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _deliver_later(self, env: ProxiedEnvelope, delay_wall: float) -> None:
        try:
            if delay_wall > 0:
                await asyncio.sleep(delay_wall)
            self._deliver(env)
        finally:
            # Counted here, not by the done callback, which runs a loop
            # iteration after any waiter this wake-up releases.
            self._timers -= 1
            self._changed.set()

    # --------------------------------------------------------------- delivery

    def _deliver(self, env: ProxiedEnvelope) -> None:
        if env.abandoned:
            return  # a late copy of a message the wire already bounced
        now = self.now_sim()
        crashed = (
            env.dst in self.dead
            or (self.plan is not None and self.plan.is_crashed(env.dst, now))
        )
        session = self._live(env.dst)
        if env.delivered or env.key in self._await_got:
            # A later copy: the first is delivered, or on its way to the
            # recipient awaiting its ``got``.
            self.stats.duplicate_deliveries += 1
            if self.obs is not None:
                self.obs.duplicate_delivery(env.obs_key, now)
            if not crashed and session is not None:
                self._forward(env.dst, env.key, env.action)  # node dedups
            return
        if crashed or session is None:
            # The host accepted the asset; the process is down.  Park the
            # handler call until restart (never, for permanent silence).
            self._mark_delivered(env)
            self.stats.deferred += 1
            if self.obs is not None:
                self.obs.defer(env.obs_key, now)
            self._mailbox.setdefault(env.dst, []).append((env.key, env.action))
            return
        session.send(_act_frame(env.key, env.action))
        self._await_got[env.key] = session

    def _forward(self, party: str, key: str, action: Action) -> None:
        session = self._live(party)
        if session is None:
            self._mailbox.setdefault(party, []).append((key, action))
            return
        session.send(_act_frame(key, action))

    def _on_got(self, key: str) -> None:
        self._await_got.pop(key, None)
        env = self._offered.get(key)
        if env is None or env.delivered or env.abandoned:
            return
        self._mark_delivered(env)

    def _resolve(self, env: ProxiedEnvelope) -> None:
        """Bookkeeping for an envelope about to be delivered or abandoned."""
        if not env.delivered and not env.abandoned:
            self._unresolved[env.src] -= 1

    def _mark_delivered(self, env: ProxiedEnvelope) -> None:
        now = self.now_sim()
        self._resolve(env)
        env.delivered = True
        env.delivered_at = now
        self.stats.messages_delivered += 1
        if self.obs is not None:
            self.obs.deliver(env.obs_key, now)
        self.delivery_log.append(
            DeliveryRecord(len(self.delivery_log), now, env.key, env.action)
        )
        self._ack(env)

    def _ack(self, env: ProxiedEnvelope) -> None:
        session = self._live(env.src)
        if session is not None:
            session.send({"type": "ack", "key": env.key})

    def _on_abandon(self, key: str) -> None:
        env = self._offered.get(key)
        if env is None or env.delivered or env.abandoned:
            return
        self._resolve(env)
        env.abandoned = True
        self.stats.abandoned += 1
        if self.obs is not None:
            self.obs.abandon(env.obs_key, self.now_sim())

    # ---------------------------------------------------------------- results

    def resolve_stranded(self) -> int:
        """Abandon every still-undelivered envelope (quiescence backstop)."""
        stranded = 0
        for env in self._offered.values():
            if not env.delivered and not env.abandoned:
                self._resolve(env)
                env.abandoned = True
                self.stats.abandoned += 1
                stranded += 1
                if self.obs is not None:
                    self.obs.abandon(env.obs_key, self.now_sim())
        return stranded

    def delivered_actions(self) -> list[Action]:
        return [record.action for record in self.delivery_log]


def _act_frame(key: str, action: Action) -> dict[str, Any]:
    return {"type": "act", "key": key, "action": action_to_json(action)}
