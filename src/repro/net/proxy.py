"""The fault proxy: a seeded :class:`FaultPlan` enacted on real sockets.

Every node connects to this asyncio TCP server, and every envelope a node
offers crosses :class:`~repro.sim.network.TransportCore`, the sans-I/O wire
the simulator's :class:`~repro.sim.runtime.Simulation` interprets too: it
decides each attempt's fate, clamps each directed link FIFO and keeps the
statistics, the delivery log and the abandons, so one plan gives an
envelope the same fate on every attempt in both runtimes.  The proxy keeps
what sockets add: sessions, two-phase delivery, re-parking, its mailbox
and the quiescence predicate.  Process faults are *real*: the supervisor
SIGKILLs the victim's process, and the proxy parks first deliveries
addressed to a party inside its crash window (or with no live connection)
in a mailbox flushed at reconnect, exactly the simulator's crashed-host
semantics ("assets land on the host; only the logic is suspended").

Delivery is two-phase where it matters: a forwarded envelope counts as
delivered only once the recipient confirms (``got``) that the delivery hit
its write-ahead log — if the process is killed with the frame still in a
socket buffer, the proxy re-parks it for redelivery at restart, so a
message can never vanish into a dying process *after* being acknowledged
to its sender.  Parked deliveries are acknowledged immediately (the host
accepted the asset), mirroring ``Envelope.delivered`` for crashed parties.

The core's ordered delivery log is the run's ground truth: the supervisor
folds it over the initial ledger to produce the final snapshot that
:func:`repro.sim.safety.evaluate_safety` judges.

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
import time
from collections.abc import Callable
from typing import Any

from repro.core.actions import Action
from repro.net.wire import action_from_json, action_to_json, read_frame, write_frame
from repro.sim.faults import FaultPlan
from repro.sim.network import Arrival, Envelope, TransportCore

#: Wall seconds :meth:`NetFaultProxy.close` waits for its tasks to finish.
_CLOSE_TIMEOUT = 5.0


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
        self.time_scale = time_scale
        self.core = TransportCore(latency, self.plan)
        self.stats = self.core.stats
        self.delivery_log = self.core.log  # first deliveries: the run's ground truth
        self.reports: dict[str, dict[str, Any]] = {}
        self.dead: set[str] = set()  # permanently silenced (never restarted)

        self._conns: dict[str, _Session] = {}
        self._handlers: dict[asyncio.StreamWriter, asyncio.Task[Any]] = {}
        self._mailbox: dict[str, list[Envelope]] = {}
        self._await_got: dict[str, _Session] = {}  # key -> connection it went out on
        self._rejoining: set[str] = set()  # killed; a restart is on its way
        self._timers = 0  # outstanding _deliver_later tasks
        self._tasks: set[asyncio.Task[None]] = set()
        self._server: asyncio.Server | None = None
        self._welcome = asyncio.Event()
        self._changed = asyncio.Event()
        self._failure: BaseException | None = None
        self._closed = False
        self.epoch_wall: float | None = None

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
        if self.core.obs is not None:
            self.core.obs.finish(self.now_sim())

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
            if self.core.unresolved.get(party):
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
            # Simulation._drain_mailbox.
            for env in self._mailbox.pop(party, []):
                self._forward(env)
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "act":
                    self._on_offer(frame)
                elif kind == "got":
                    self._on_got(str(frame["key"]))
                elif kind == "abandon":
                    self.core.abandon(self.now_sim(), str(frame["key"]))
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
        now = self.now_sim()
        for key in stranded:
            del self._await_got[key]
            env = self.core.envelopes[key]
            if self.core.park(now, env):  # the host accepted it
                self._ack(env)
                self._forward(env)

    # --------------------------------------------------------------- offers

    def _on_offer(self, frame: dict[str, Any]) -> None:
        key = str(frame["key"])
        now = self.now_sim()
        env = self.core.envelopes.get(key)
        if env is None:
            env, arrivals = self.core.send(now, action_from_json(frame["action"]), key)
        else:
            arrivals = self.core.retransmit(now, key)
            if arrivals is None:
                return  # abandoned
            if env.delivered:
                self._ack(env)  # a retry raced the ack, or a restarted node re-offered
        for arrival in arrivals:
            delay_wall = max(0.0, arrival - now) * self.time_scale
            task = asyncio.ensure_future(self._deliver_later(env, delay_wall))
            self._timers += 1
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _deliver_later(self, env: Envelope, delay_wall: float) -> None:
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

    def _deliver(self, env: Envelope) -> None:
        """One copy of *env* reaches the proxy's side of its recipient."""
        now = self.now_sim()
        party = env.recipient
        session = self._live(party)
        down = (
            session is None
            or party in self.dead
            or (self.plan is not None and self.plan.is_crashed(party, now))
        )
        arrival = self.core.arrive(now, env, down)
        if arrival is Arrival.FIRST:
            assert session is not None
            session.send(_act_frame(env))
            self._await_got[env.key] = session
        elif arrival is Arrival.PARKED:
            self._ack(env)
            self._mailbox.setdefault(party, []).append(env)
        elif arrival is Arrival.DUPLICATE and not down:
            self._forward(env)  # the node drops it as a duplicate

    def _forward(self, env: Envelope) -> None:
        session = self._live(env.recipient)
        if session is None:
            self._mailbox.setdefault(env.recipient, []).append(env)
            return
        session.send(_act_frame(env))

    def _on_got(self, key: str) -> None:
        self._await_got.pop(key, None)
        env = self.core.envelopes.get(key)
        if env is not None and self.core.deliver(self.now_sim(), env):
            self._ack(env)

    def _ack(self, env: Envelope) -> None:
        session = self._live(env.sender)
        if session is not None:
            session.send({"type": "ack", "key": env.key})

    # ---------------------------------------------------------------- results

    def resolve_stranded(self) -> int:
        """Abandon every still-undelivered envelope (quiescence backstop)."""
        return len(self.core.resolve_stranded(self.now_sim()))

    def delivered_actions(self) -> list[Action]:
        return [delivery.action for delivery in self.core.log]


def _act_frame(env: Envelope) -> dict[str, Any]:
    return {"type": "act", "key": env.key, "action": action_to_json(env.action)}
