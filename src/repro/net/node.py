"""One exchange party as a networked process.

``repro client`` runs exactly one of these: it loads the spec, re-derives
the synthesized protocol (deterministic — every node independently derives
the same one, see :mod:`repro.net.bootstrap`), takes its party's slice of
the initial endowment, and then drives the *same* transport-agnostic
protocol core the simulator uses
(:class:`~repro.sim.protocol_core.PrincipalCore` /
:class:`~repro.sim.protocol_core.TrustedCore`) over a TCP connection to
the fault proxy.

Durability: every state transition is write-ahead logged
(:mod:`repro.net.wal`) *before* its side effect — ``recv`` before the core
sees a delivery, ``send`` before the act frame hits the socket, ``armed``
before the deadline timer exists, ``deadline`` before the reversal goes
out.  After a SIGKILL the node restarts, replays the log through a fresh
core (cores are deterministic, so the same observations rebuild the same
state), re-adopts the envelope keys of logged sends, and re-offers
whatever was never acknowledged.  A send the crash cut off between the
``recv`` that caused it and its own ``send`` record is *regenerated* by
the replayed core and offered fresh.

Custody: a node's local asset view debits at send and credits at delivery
or abandonment — mirroring the simulator's wire-custody ledger from one
party's perspective.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core.actions import Action
from repro.core.items import Money
from repro.errors import NetRuntimeError
from repro.net import bootstrap, wal
from repro.net.wire import action_from_json, action_to_json, read_frame, write_frame
from repro.sim.faults import RetryPolicy
from repro.sim.protocol_core import (
    ArmDeadline,
    DisarmDeadline,
    Effect,
    NotifyEffect,
    PrincipalCore,
    SendEffect,
    TrustedCore,
)


@dataclass(frozen=True)
class NodeConfig:
    """Everything a node process needs; all of it fits in CLI arguments."""

    spec_path: str
    party: str
    host: str
    port: int
    wal_path: str
    deadline: float | None = None
    working_capital_cents: int = 0
    withhold: int | None = None  # adversary: perform only the first K instructions
    connect_timeout: float = 15.0


class AssetView:
    """One party's local balance and document holdings.

    The node is the effective sender of everything it debits and the
    effective recipient of everything it credits, so both sides of each
    movement reduce to "does the item enter or leave *me*".
    """

    def __init__(self, balance_cents: int, documents: frozenset[str] | set[str]) -> None:
        self.balance_cents = balance_cents
        self.documents = set(documents)

    def holds(self, action: Action) -> bool:
        item = action.item
        if item is None:
            return True
        if isinstance(item, Money):
            return self.balance_cents >= item.cents
        return item.label in self.documents

    def debit(self, action: Action) -> None:
        item = action.item
        if item is None:
            return
        if isinstance(item, Money):
            if self.balance_cents < item.cents:
                raise NetRuntimeError(
                    f"debit of {item.cents} cents exceeds balance {self.balance_cents}"
                )
            self.balance_cents -= item.cents
        else:
            self.documents.discard(item.label)

    def credit(self, action: Action) -> None:
        item = action.item
        if item is None or not action.is_transfer:
            return
        if isinstance(item, Money):
            self.balance_cents += item.cents
        else:
            self.documents.add(item.label)


@dataclass
class PendingSend:
    """An offered envelope awaiting the proxy's delivery acknowledgement."""

    key: str
    action: Action
    acked: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task[None] | None = None


def _stripped(action: Action) -> Action:
    return replace(action, deadline=None)


class ExchangeNode:
    """Protocol core + WAL + asset view for one party; transport added by :func:`run_node`."""

    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self.problem = bootstrap.load_problem(cfg.spec_path)
        self.protocol = bootstrap.derive_protocol(self.problem, cfg.deadline)
        self.party = bootstrap.find_party(self.problem, self.protocol, cfg.party)
        initial = bootstrap.build_initial_ledger(
            self.problem, self.protocol, cfg.working_capital_cents
        ).seal()
        balance, documents = bootstrap.endowment_of(initial, self.party)
        self.assets = AssetView(balance, documents)

        self.is_trusted = self.party in self.protocol.trusted_specs
        if self.is_trusted:
            self.trusted_core: TrustedCore | None = TrustedCore(
                self.protocol.trusted_specs[self.party]
            )
            self.principal_core: PrincipalCore | None = None
            self.retry_policy = RetryPolicy(max_retries=32)
        else:
            self.trusted_core = None
            permits: Callable[[int, Action], bool] | None = None
            if cfg.withhold is not None:
                limit = cfg.withhold
                permits = lambda position, action: position < limit  # noqa: E731
            self.principal_core = PrincipalCore(
                self.protocol.role_of(self.party), permits=permits
            )
            self.retry_policy = RetryPolicy()

        self.wal = wal.WriteAheadLog(cfg.wal_path)
        self.seq = 1
        self.pending: dict[str, PendingSend] = {}
        self.seen_recv: set[str] = set()
        self.armed = False
        self.armed_expiry: float | None = None  # sim units since epoch
        self.deadline_fired = False
        self.resumed = False
        self._pending_arm_duration: float | None = None
        self._replay_offers: list[tuple[str, Action]] = []
        self._replay_fresh: list[Action] = []

        # Transport wiring, installed by run_node() after the welcome frame.
        self.writer: asyncio.StreamWriter | None = None
        self.epoch = 0.0
        self.scale = 1.0
        self.handled = 0  # proxy frames handled on this connection, welcome included
        self._deadline_task: asyncio.Task[None] | None = None

        try:
            self._replay()
        except BaseException:
            self.wal.close()
            raise

    # ------------------------------------------------------------------ time

    def now_sim(self) -> float:
        return (time.time() - self.epoch) / self.scale

    # ---------------------------------------------------------------- replay

    def _replay(self) -> None:
        records = wal.replay(self.cfg.wal_path)
        if not records:
            self.wal.append(
                {
                    "rec": "endow",
                    "balance": self.assets.balance_cents,
                    "docs": sorted(self.assets.documents),
                }
            )
            return
        self.resumed = True
        acked = {r["key"] for r in records if r["rec"] == "ack"}
        abandoned = {r["key"] for r in records if r["rec"] == "abandon"}
        for record in records:
            if record["rec"] == "armed":
                self.armed_expiry = float(record["expiry"])
        send_records = [
            (r["key"], action_from_json(r["action"]))
            for r in records
            if r["rec"] == "send"
        ]

        # Drive a fresh core through the logged observations, in order.  The
        # core is deterministic, so this reconstructs the pre-crash state and
        # regenerates (as `regenerated`) every send the logic ever wanted.
        # Debits happen inside _drain/_interpret, exactly as they do live.
        regenerated: list[Action] = []

        def emit(action: Action) -> None:
            regenerated.append(action)

        for record in records:
            kind = record["rec"]
            if kind == "endow":
                self.assets = AssetView(
                    int(record["balance"]), set(record["docs"])
                )
            elif kind == "recv":
                self.seen_recv.add(record["key"])
                self._absorb(action_from_json(record["action"]), emit, live=False)
            elif kind == "deadline":
                self.deadline_fired = True
                self.armed = False
                assert self.trusted_core is not None
                self._interpret(self.trusted_core.on_deadline(), emit, live=False)

        # Reconcile regenerated sends against logged ones (greedy, in order,
        # modulo the expiry stamp a notify carries): matches re-adopt their
        # logged key and ack status; the rest were lost between the `recv`
        # that caused them and their own `send` record, and go out fresh.
        unmatched = list(send_records)
        for action in regenerated:
            target = _stripped(action)
            for index, (key, logged) in enumerate(unmatched):
                if _stripped(logged) == target:
                    unmatched.pop(index)
                    if key not in acked and key not in abandoned:
                        self._replay_offers.append((key, logged))
                    break
            else:
                self._replay_fresh.append(action)
        if unmatched:
            keys = ", ".join(key for key, _ in unmatched)
            raise NetRuntimeError(
                f"WAL replay diverged for {self.party.name}: logged sends "
                f"[{keys}] were not regenerated by the protocol core"
            )

        # Abandoned sends returned custody before the crash; the replay
        # re-debited them at emit time, so credit them back.
        by_key = dict(send_records)
        for key in abandoned:
            if key in by_key:
                self.assets.credit(by_key[key])

        for key, _ in send_records:
            _, _, suffix = key.rpartition(":")
            if suffix.isdigit():
                self.seq = max(self.seq, int(suffix) + 1)

    # ------------------------------------------------------------- core glue

    def _absorb(self, action: Action, emit: Callable[[Action], None], live: bool) -> None:
        """Process one delivered action through the core."""
        self.assets.credit(action)
        if self.trusted_core is not None:
            self._interpret(self.trusted_core.on_receive(action), emit, live)
        else:
            assert self.principal_core is not None
            self.principal_core.observe(action)
            self._drain(emit)

    def _drain(self, emit: Callable[[Action], None]) -> None:
        assert self.principal_core is not None

        def debiting_emit(action: Action) -> None:
            if action.is_transfer:
                self.assets.debit(action)
            emit(action)

        self.principal_core.drain(holds=self.assets.holds, emit=debiting_emit)

    def _interpret(
        self, effects: list[Effect], emit: Callable[[Action], None], live: bool
    ) -> None:
        for effect in effects:
            if isinstance(effect, ArmDeadline):
                self._arm(effect.duration, live)
            elif isinstance(effect, DisarmDeadline):
                self._disarm()
            elif isinstance(effect, NotifyEffect):
                assert self.trusted_core is not None
                expiry = self.armed_expiry if self.armed else None
                emit(self.trusted_core.expiry_notice(effect.principal, expiry))
            elif isinstance(effect, SendEffect):
                if effect.action.is_transfer:
                    self.assets.debit(effect.action)
                emit(effect.action)

    # -------------------------------------------------------------- deadline

    def _arm(self, duration: float, live: bool) -> None:
        if self.armed or self.deadline_fired:
            return
        self.armed = True
        if self.armed_expiry is None:
            if live:
                self.armed_expiry = self.now_sim() + duration
                self.wal.append({"rec": "armed", "expiry": self.armed_expiry})
            else:
                # Crash fell between the recv record and the armed record;
                # the expiry is re-derived at reconnect (see schedule_deadline).
                self._pending_arm_duration = duration
        if live:
            self.schedule_deadline()

    def _disarm(self) -> None:
        self.armed = False
        if self._deadline_task is not None:
            self._deadline_task.cancel()
            self._deadline_task = None

    def schedule_deadline(self) -> None:
        """(Re-)create the wall-clock deadline timer for an armed core."""
        if not self.armed or self._deadline_task is not None:
            return
        if self.armed_expiry is None:
            duration = self._pending_arm_duration
            assert duration is not None
            self.armed_expiry = self.now_sim() + duration
            self.wal.append({"rec": "armed", "expiry": self.armed_expiry})
        self._deadline_task = asyncio.create_task(self._deadline_timer())

    async def _deadline_timer(self) -> None:
        assert self.armed_expiry is not None
        delay = self.epoch + self.armed_expiry * self.scale - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if not self.armed or self.deadline_fired:
            return
        # Log-then-reverse: the deadline record's position in the WAL is
        # what makes a replayed late deposit bounce identically.
        self.wal.append({"rec": "deadline"})
        self.deadline_fired = True
        self.armed = False
        assert self.trusted_core is not None
        self._interpret(self.trusted_core.on_deadline(), self._send_new, live=True)
        self.report()

    # ------------------------------------------------------------ transport

    def _send_new(self, action: Action) -> None:
        key = f"{self.party.name}:{self.seq}"
        self.seq += 1
        self.wal.append({"rec": "send", "key": key, "action": action_to_json(action)})
        self.offer(key, action)

    def offer(self, key: str, action: Action) -> None:
        """Put an envelope on the wire and arm its retransmit schedule."""
        entry = PendingSend(key, action)
        self.pending[key] = entry
        self._write(
            {"type": "act", "key": key, "action": action_to_json(action), "attempt": 1}
        )
        entry.task = asyncio.create_task(self._retry_loop(entry))

    async def _retry_loop(self, entry: PendingSend) -> None:
        policy = self.retry_policy
        attempt = 1
        while attempt <= policy.max_retries:
            try:
                await asyncio.wait_for(
                    entry.acked.wait(), timeout=policy.timeout_for(attempt) * self.scale
                )
                return
            except asyncio.TimeoutError:
                attempt += 1
                self._write(
                    {
                        "type": "act",
                        "key": entry.key,
                        "action": action_to_json(entry.action),
                        "attempt": attempt,
                    }
                )
        try:
            await asyncio.wait_for(
                entry.acked.wait(), timeout=policy.timeout_for(attempt) * self.scale
            )
            return
        except asyncio.TimeoutError:
            pass
        # Retries exhausted: abandon — the wire returns custody.
        self.wal.append({"rec": "abandon", "key": entry.key})
        self.pending.pop(entry.key, None)
        self.assets.credit(entry.action)
        self._write({"type": "abandon", "key": entry.key})
        self.report()

    def _write(self, frame: dict[str, Any]) -> None:
        if self.writer is None or self.writer.is_closing():
            return  # the proxy is gone; the supervisor is tearing us down
        write_frame(self.writer, frame)

    def on_delivery(self, frame: dict[str, Any]) -> None:
        key = str(frame["key"])
        if key in self.seen_recv:
            self._write({"type": "got", "key": key})  # duplicate copy: confirm only
            return
        action = action_from_json(frame["action"])
        self.wal.append({"rec": "recv", "key": key, "action": action_to_json(action)})
        self.seen_recv.add(key)
        self._write({"type": "got", "key": key})
        self._absorb(action, self._send_new, live=True)

    def on_ack(self, frame: dict[str, Any]) -> None:
        key = str(frame["key"])
        entry = self.pending.pop(key, None)
        if entry is None:
            return
        self.wal.append({"rec": "ack", "key": key})
        entry.acked.set()

    def report(self) -> None:
        """Tell the proxy where this node stands.

        Sent after every frame handled and after every change a timer makes
        (deadline, abandon).  ``handled`` lets the proxy tell whether the
        report covers everything it has written on this connection — the
        quiescence predicate's per-party clause.
        """
        if self.trusted_core is not None:
            if self.trusted_core.completed:
                phase = "completed"
            elif self.trusted_core.reversed:
                phase = "reversed"
            else:
                phase = "open"
        else:
            assert self.principal_core is not None
            phase = "exhausted" if self.principal_core.exhausted else "active"
        self._write(
            {
                "type": "report",
                "party": self.party.name,
                "trusted": self.is_trusted,
                "phase": phase,
                "armed": self.armed,
                "pending": len(self.pending),
                "handled": self.handled,
                "balance": self.assets.balance_cents,
                "docs": sorted(self.assets.documents),
            }
        )

    def shutdown(self) -> None:
        for entry in self.pending.values():
            if entry.task is not None:
                entry.task.cancel()
        self._disarm()
        self.wal.close()


async def _connect(cfg: NodeConfig) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    give_up = time.time() + cfg.connect_timeout
    while True:
        try:
            return await asyncio.open_connection(cfg.host, cfg.port)
        except OSError:
            if time.time() >= give_up:
                raise NetRuntimeError(
                    f"could not reach proxy at {cfg.host}:{cfg.port} "
                    f"within {cfg.connect_timeout}s"
                ) from None
            await asyncio.sleep(0.05)


async def run_node(cfg: NodeConfig) -> int:
    """The ``repro client`` event loop: connect, recover, exchange, exit."""
    node = ExchangeNode(cfg)
    writer: asyncio.StreamWriter | None = None
    try:
        reader, writer = await _connect(cfg)
        node.writer = writer
        write_frame(
            writer,
            {
                "type": "hello",
                "party": node.party.name,
                "pid": os.getpid(),
                "resumed": node.resumed,
            },
        )
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("type") != "welcome":
            raise NetRuntimeError(f"expected welcome frame, got {welcome!r}")
        node.epoch = float(welcome["epoch"])
        node.scale = float(welcome["time_scale"])
        node.handled = 1

        if node.armed:
            node.schedule_deadline()
        # Waived: replayed offers were logged before the crash — the WAL
        # append that NET001 demands is the very record being replayed, so
        # re-emitting the frame here needs no second append.  DESIGN.md §14.
        for key, action in node._replay_offers:
            node.offer(key, action)  # repro: noqa[NET001]
        for action in node._replay_fresh:
            node._send_new(action)
        if node.principal_core is not None:
            node._drain(node._send_new)
        node.report()
        await writer.drain()

        while True:
            frame = await read_frame(reader)
            if frame is None or frame.get("type") == "shutdown":
                break
            kind = frame.get("type")
            if kind == "act":
                node.on_delivery(frame)
            elif kind == "ack":
                node.on_ack(frame)
            node.handled += 1
            node.report()
            await writer.drain()
    finally:
        # Whether it ends by shutdown, EOF, error or cancellation (a crash
        # in task mode), the node releases its WAL and its socket.
        node.shutdown()
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return 0
