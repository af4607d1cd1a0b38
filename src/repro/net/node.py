"""One exchange party as a networked process.

``repro client`` runs exactly one of these: it loads the spec, re-derives
the synthesized protocol (:func:`~repro.core.protocol.derive_protocol` is
deterministic, so every node derives the same one), takes its party's
slice of the sealed initial ledger, and runs the party's driver
(:mod:`repro.sim.driver`) — the very state machine the simulator runs —
over a TCP connection to the fault proxy.

The node is an asyncio interpreter of the driver's commands: ``Log``
appends a record to the write-ahead log (:mod:`repro.net.wal`), ``Send``,
``Got`` and ``Abandon`` write frames, and ``Timer`` sets or cancels a loop
timer.  Every record reaches the log before the frame it covers: ``recv``
before ``got``, ``send`` before a first offer's ``act`` frame, ``abandon``
before the ``abandon`` frame.

After a SIGKILL the node restarts and hands its log to
:meth:`~repro.sim.driver.PartyDriver.recover`, which rebuilds the driver;
at the welcome the driver re-arms its deadline, re-offers whatever was
never acknowledged, and sends whatever the crash cut off before its
``send`` record.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.protocol import derive_protocol
from repro.errors import NetRuntimeError
from repro.net import wal
from repro.net.wire import WireError, action_from_json, action_to_json, read_frame, write_frame
from repro.sim.agents import withholder
from repro.sim.driver import (
    Abandon,
    Command,
    Got,
    Log,
    Record,
    Send,
    Timer,
    TrustedDriver,
    driver_for,
)
from repro.sim.ledger import initial_ledger
from repro.spec.compiler import load_file


@dataclass(frozen=True)
class NodeConfig:
    """Everything a node process needs; all of it fits in CLI arguments."""

    spec_path: str
    party: str
    host: str
    port: int
    wal_path: str
    deadline: float | None = None
    withhold: int | None = None  # adversary: perform only the first K instructions
    connect_timeout: float = 15.0


def record_to_json(record: Record) -> dict[str, Any]:
    """One driver log record as the WAL's JSON object."""
    kind = record[0]
    if kind in ("send", "recv"):
        return {"rec": kind, "key": record[1], "action": action_to_json(record[2])}
    if kind in ("ack", "abandon"):
        return {"rec": kind, "key": record[1]}
    if kind == "armed":
        return {"rec": kind, "expiry": record[1]}
    if kind == "endow":
        return {"rec": kind, "balance": record[1], "docs": list(record[2])}
    return {"rec": kind}


def record_from_json(raw: dict[str, Any]) -> Record:
    """The inverse of :func:`record_to_json`.

    Raises :class:`NetRuntimeError` naming the record for a kind the driver
    never logs, or for a known kind with a missing or mistyped field: a
    record replay would skip or misread must stop the node instead.
    """
    kind = raw["rec"]
    try:
        if kind in ("send", "recv"):
            return (kind, str(raw["key"]), action_from_json(raw["action"]))
        if kind in ("ack", "abandon"):
            return (kind, str(raw["key"]))
        if kind == "armed":
            return (kind, float(raw["expiry"]))
        if kind == "endow":
            return (kind, int(raw["balance"]), tuple(raw["docs"]))
    except (KeyError, TypeError, ValueError, WireError) as exc:
        raise NetRuntimeError(f"malformed WAL record {raw!r}") from exc
    if kind == "deadline":
        return (kind,)
    raise NetRuntimeError(f"unknown WAL record kind {kind!r} in {raw!r}")


class ExchangeNode:
    """One party's driver, interpreted over a WAL, a socket and loop timers."""

    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        problem = load_file(cfg.spec_path)
        protocol = derive_protocol(problem, cfg.deadline)
        # Every principal has a role and every trusted component a spec.
        parties = {party.name: party for party in (*protocol.roles, *protocol.trusted_specs)}
        if cfg.party not in parties:
            raise NetRuntimeError(f"party {cfg.party!r} does not appear in the problem")
        self.party = parties[cfg.party]
        initial = initial_ledger(problem.interaction, protocol).seal()
        strategy = withholder(cfg.withhold) if cfg.withhold is not None else None
        self.driver = driver_for(
            protocol,
            self.party,
            initial.balance(self.party),
            initial.documents_of(self.party),
            strategy,
        )

        # Transport wiring, installed by run_node() after the welcome frame.
        self.writer: asyncio.StreamWriter | None = None
        self.epoch = 0.0
        self.scale = 1.0
        self.handled = 0  # proxy frames handled on this connection, welcome included
        self._timers: dict[str, asyncio.TimerHandle] = {}
        # One method per command, so that NET001 checks each frame against
        # the WAL append before it in the same method.
        self._interpret: dict[type, Callable[[Any], None]] = {
            Log: self._log,
            Send: self._send,
            Got: self._got,
            Timer: self._timer,
            Abandon: self._abandon,
        }

        self.wal = wal.WriteAheadLog(cfg.wal_path)
        try:
            records = [record_from_json(raw) for raw in wal.replay(cfg.wal_path)]
            self.resumed = bool(records)
            self.apply(self.driver.recover(records))
        except BaseException:
            self.wal.close()
            raise

    # ------------------------------------------------------------------ time

    def now_sim(self) -> float:
        return (time.time() - self.epoch) / self.scale

    # -------------------------------------------------------------- commands

    def apply(self, commands: list[Command]) -> None:
        """Carry out one driver step's commands, in order."""
        for command in commands:
            self._interpret[type(command)](command)

    def _log(self, command: Log) -> None:
        self.wal.append(record_to_json(command.record))

    def _send(self, command: Send) -> None:
        key, attempt = command.key, command.attempt
        action = action_to_json(command.action)
        if command.record is None:
            # Waived: a retransmission, or a re-offer after recovery, of an
            # envelope whose ``send`` record was appended when it was first
            # offered (before a crash, or in an earlier step of this
            # process) — the append NET001 demands is already in the log.
            # DESIGN.md §14.
            self._write(  # repro: noqa[NET001]
                {"type": "act", "key": key, "action": action, "attempt": attempt}
            )
            return
        self.wal.append(record_to_json(command.record))
        self._write({"type": "act", "key": key, "action": action, "attempt": attempt})

    def _got(self, command: Got) -> None:
        self._write({"type": "got", "key": command.key})

    def _abandon(self, command: Abandon) -> None:
        self.wal.append(record_to_json(command.record))
        self._write({"type": "abandon", "key": command.key})

    def _timer(self, command: Timer) -> None:
        previous = self._timers.pop(command.name, None)
        if previous is not None:
            previous.cancel()
        if command.at is not None:
            delay = max(0.0, self.epoch + command.at * self.scale - time.time())
            loop = asyncio.get_running_loop()
            self._timers[command.name] = loop.call_later(delay, self._fired, command.name)

    def _fired(self, name: str) -> None:
        del self._timers[name]
        commands = self.driver.fired(self.now_sim(), name)
        if commands:
            self.apply(commands)
            self.report()

    def _write(self, frame: dict[str, Any]) -> None:
        if self.writer is None or self.writer.is_closing():
            return  # the proxy is gone; the supervisor is tearing us down
        write_frame(self.writer, frame)

    def on_frame(self, frame: dict[str, Any]) -> None:
        """One ``act`` (a delivery) or ``ack`` frame from the proxy."""
        kind = frame.get("type")
        if kind == "act":
            action = action_from_json(frame["action"])
            self.apply(self.driver.delivered(self.now_sim(), str(frame["key"]), action))
        elif kind == "ack":
            self.apply(self.driver.acked(self.now_sim(), str(frame["key"])))

    def report(self) -> None:
        """Tell the proxy where this node stands.

        Sent after every frame handled and after every change a timer makes
        (deadline, abandon).  ``handled`` lets the proxy tell whether the
        report covers everything it has written on this connection — the
        quiescence predicate's per-party clause.
        """
        driver = self.driver
        self._write(
            {
                "type": "report",
                "party": self.party.name,
                "trusted": isinstance(driver, TrustedDriver),
                "phase": driver.phase(),
                "armed": driver.armed,
                "pending": len(driver.unacked),
                "handled": self.handled,
                "balance": driver.custody.cents,
                "docs": sorted(driver.custody.documents),
            }
        )

    def shutdown(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
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

        node.apply(node.driver.start(node.now_sim()))
        node.report()
        await writer.drain()

        while True:
            frame = await read_frame(reader)
            if frame is None or frame.get("type") == "shutdown":
                break
            node.on_frame(frame)
            node.handled += 1
            node.report()
            await writer.drain()
    finally:
        # Whether it ends by shutdown, EOF, error or cancellation (a crash
        # in task mode), the node releases its timers, WAL and socket.
        node.shutdown()
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return 0
