"""Run one exchange problem as real processes over real sockets.

:func:`run_networked_exchange` is the socket runtime's counterpart of
:func:`repro.sim.runtime.simulate`: it starts a :class:`NetFaultProxy`,
spawns one ``repro client`` subprocess per party (principals *and*
trusted components), enacts the :class:`~repro.sim.faults.FaultPlan`'s
:class:`~repro.sim.faults.PartyFault` windows with **real SIGKILLs** and
respawns, awaits the proxy's exact quiescence predicate
(:meth:`NetFaultProxy.quiescent`), and assembles the very same
:class:`~repro.sim.runtime.SimulationResult` /
:class:`~repro.sim.safety.SafetyReport` artifacts the simulator emits.

Sim time vs. wall time: one simulator time unit is ``time_scale`` wall
seconds; the epoch is fixed when every initially-alive node has connected.
Fault windows, deadlines, retry backoffs and the delivery log all live in
sim units, so a run's artifacts are directly comparable with the
simulator's for the same problem and plan.

Final-state assembly needs no trusted observer inside any node: the proxy
keeps the authoritative ordered delivery log, and folding those transfers
over the (identically derived) initial ledger — conservation-checked at
every step — yields the final snapshot that
:func:`~repro.sim.safety.evaluate_safety` judges.  Undelivered envelopes
at collection time are resolved exactly like the simulator's stranded
messages: custody returns to the sender and the run is flagged
non-quiescent.

``spawn="task"`` runs every node as an in-process asyncio task over real
localhost TCP instead of a subprocess — same codec, WAL, proxy and
gauntlet, minus process isolation.  Crashes become task cancellation plus
a WAL-replaying respawn, which keeps the crash-recovery path exercisable
in fast unit tests; the ``-m net`` suite uses real processes and real
SIGKILLs.  A node task that raises ends the run at once with a
:class:`~repro.errors.NetRuntimeError` chained from the node's error.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import repro
from repro.core.problem import ExchangeProblem
from repro.core.protocol import Protocol, derive_protocol
from repro.errors import NetRuntimeError
from repro.net.node import NodeConfig, run_node
from repro.net.proxy import NetFaultProxy
from repro.net.wire import action_to_json, encode_json
from repro.sim.faults import FaultPlan, check_adversaries
from repro.sim.ledger import initial_ledger
from repro.sim.runtime import RunProvenance, SimulationResult
from repro.sim.safety import SafetyReport, evaluate_safety
from repro.spec.formatter import format_problem


@dataclass(frozen=True)
class NetRunConfig:
    """Knobs of one networked run (sim-unit values unless noted)."""

    latency: float = 1.0
    time_scale: float = 0.02  # wall seconds per sim unit
    deadline: float | None = 60.0
    max_sim_time: float = 400.0  # hard cap; exceeded => non-quiescent
    ready_timeout: float = 20.0  # wall seconds to wait for initial hellos
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    spawn: str = "process"  # "process" (subprocesses) | "task" (in-process)

    def validate(self) -> "NetRunConfig":
        if self.time_scale <= 0:
            raise NetRuntimeError("time_scale must be positive")
        if self.spawn not in ("process", "task"):
            raise NetRuntimeError(f"unknown spawn mode {self.spawn!r}")
        return self


@dataclass
class NetRunResult:
    """Everything observable after one networked run."""

    result: SimulationResult
    report: SafetyReport
    run_dir: str
    port: int
    kills: int = 0
    restarts: int = 0
    node_reports: dict[str, dict] = field(default_factory=dict)
    outcome: str = "quiescent"  # or "timeout"


#: Wall seconds to wait for every node to hang up after the shutdown frame.
_SHUTDOWN_TIMEOUT = 5.0


class _NodeHandle:
    """One party's live process (or in-process task) and its respawn recipe."""

    def __init__(
        self, name: str, cfg: NodeConfig, run_dir: str, mode: str, proxy: NetFaultProxy
    ) -> None:
        self.name = name
        self.cfg = cfg
        self.run_dir = run_dir
        self.mode = mode
        self.proxy = proxy
        self.proc: subprocess.Popen[bytes] | None = None
        self.task: asyncio.Task[int] | None = None
        self.tasks: list[asyncio.Task[int]] = []  # every incarnation, for teardown
        self.pids: list[int] = []

    def spawn(self) -> None:
        if self.mode == "task":
            self.task = asyncio.ensure_future(run_node(self.cfg))
            self.task.add_done_callback(self._exited)
            self.tasks.append(self.task)
            return
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "client",
            self.cfg.spec_path,
            "--party",
            self.cfg.party,
            "--host",
            self.cfg.host,
            "--port",
            str(self.cfg.port),
            "--wal",
            self.cfg.wal_path,
        ]
        if self.cfg.deadline is not None:
            argv += ["--deadline", str(self.cfg.deadline)]
        if self.cfg.withhold is not None:
            argv += ["--withhold", str(self.cfg.withhold)]
        log_path = os.path.join(self.run_dir, "logs", f"{self.name}.log")
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        # Waived: opening the child's log file is a microsecond-scale local
        # operation that happens once per (re)spawn — an executor hop would
        # cost more than the open.  DESIGN.md §14 (waiver policy).
        with open(log_path, "ab") as log:  # repro: noqa[ASY001]
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        self.pids.append(self.proc.pid)

    def _exited(self, task: asyncio.Task[int]) -> None:
        """Retrieve a finished node task's result; a raise ends the run."""
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            failure = NetRuntimeError(f"node {self.name} failed: {error}")
            failure.__cause__ = error
            self.proxy.fail(failure)

    def status(self) -> str:
        """Where a node that has not connected stands, for error messages."""
        if self.mode == "task":
            return "running" if self.task is not None and not self.task.done() else "ended"
        if self.proc is None:
            return "not spawned"
        code = self.proc.poll()
        return "running" if code is None else f"exited with status {code}"

    def kill(self) -> None:
        """A real crash: SIGKILL for processes, cancellation for tasks."""
        if self.mode == "task":
            if self.task is not None:
                self.task.cancel()
                self.task = None
            return
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    async def reap(self) -> None:
        """Stop whatever still runs; every task's result is retrieved."""
        for task in self.tasks:
            task.cancel()  # no-op on a task that already finished
        if self.tasks:
            await asyncio.wait(self.tasks, timeout=_SHUTDOWN_TIMEOUT)
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None


async def _run(
    problem: ExchangeProblem,
    run_dir: str,
    spec_path: str,
    protocol: Protocol,
    config: NetRunConfig,
    fault_plan: FaultPlan | None,
    adversaries: dict[str, int],
) -> tuple[NetRunResult, NetFaultProxy]:
    # Validation and the run-dir/spec writes happen in the sync caller
    # (run_networked_exchange) — blocking file I/O has no place on the loop.
    principals = [p.name for p in problem.interaction.principals]
    trusted = [p.name for p in protocol.trusted_specs]
    everyone = principals + trusted
    scale = config.time_scale

    proxy = NetFaultProxy(
        expected=frozenset(everyone),
        plan=fault_plan,
        latency=config.latency,
        time_scale=scale,
    )
    port = await proxy.start(config.host, config.port)

    handles: dict[str, _NodeHandle] = {}
    for name in everyone:
        cfg = NodeConfig(
            spec_path=spec_path,
            party=name,
            host=config.host,
            port=port,
            wal_path=os.path.join(run_dir, "wal", f"{name}.wal"),
            deadline=config.deadline,
            withhold=adversaries.get(name),
        )
        handles[name] = _NodeHandle(name, cfg, run_dir, config.spawn, proxy)

    kills = 0
    restarts = 0
    fault_tasks: list[asyncio.Task[None]] = []

    async def _enact(fault_party: str, crash_at: float, restart_at: float | None) -> None:
        nonlocal kills, restarts
        assert proxy.epoch_wall is not None
        await asyncio.sleep(max(0.0, proxy.epoch_wall + crash_at * scale - time.time()))
        handles[fault_party].kill()
        kills += 1
        proxy.crashed(fault_party, permanent=restart_at is None)
        if restart_at is None:
            return
        await asyncio.sleep(max(0.0, proxy.epoch_wall + restart_at * scale - time.time()))
        handles[fault_party].spawn()
        restarts += 1

    outcome = "quiescent"
    try:
        for handle in handles.values():
            handle.spawn()
        if not await proxy.wait_connected(timeout=config.ready_timeout):
            missing = [
                f"{name} ({handles[name].status()})" for name in proxy.missing()
            ]
            raise NetRuntimeError(
                f"nodes never connected within {config.ready_timeout}s: {missing}"
            )
        proxy.open_for_business()

        if fault_plan is not None:
            for fault in fault_plan.parties:
                fault_tasks.append(
                    asyncio.ensure_future(
                        _enact(fault.party, fault.crash_at, fault.restart_at)
                    )
                )

        # Quiescence is the proxy's exact predicate, re-evaluated on every
        # state change, under a hard sim-time cap.
        cap_wall = max(0.0, config.max_sim_time - proxy.now_sim()) * scale
        if not await proxy.until(proxy.quiescent, timeout=cap_wall):
            outcome = "timeout"
        duration = proxy.now_sim()
        await proxy.shutdown(timeout=_SHUTDOWN_TIMEOUT)
    finally:
        for task in fault_tasks:
            task.cancel()
        if fault_tasks:
            await asyncio.wait(fault_tasks)
        for handle in handles.values():
            await handle.reap()
        await proxy.close()

    stranded = proxy.resolve_stranded()

    # ------------------------------------------------------------- assembly
    ledger = initial_ledger(problem.interaction, protocol)
    initial = ledger.seal()
    delivered = proxy.delivered_actions()
    for action in delivered:
        ledger.apply(action)  # checks conservation after each movement
    final = ledger.snapshot()

    completed = frozenset(
        party
        for party in protocol.trusted_specs
        if proxy.reports.get(party.name, {}).get("phase") == "completed"
    )
    reversed_agents = frozenset(
        party
        for party in protocol.trusted_specs
        if proxy.reports.get(party.name, {}).get("phase") == "reversed"
    )
    provenance = RunProvenance.of(
        problem.name, protocol, fault_plan, config.latency, seed=None
    )
    result = SimulationResult(
        problem_name=problem.name,
        duration=duration,
        initial=initial,
        final=final,
        stats=proxy.stats,
        protocol=protocol,
        delivered=delivered,
        completed_agents=completed,
        reversed_agents=reversed_agents,
        provenance=provenance,
        stranded_messages=stranded,
        quiescent=(outcome == "quiescent" and stranded == 0),
    )
    report = evaluate_safety(problem, result)
    run = NetRunResult(
        result=result,
        report=report,
        run_dir=run_dir,
        port=port,
        kills=kills,
        restarts=restarts,
        node_reports=dict(proxy.reports),
        outcome=outcome,
    )
    return run, proxy


def _snapshot_json(snapshot: "object") -> dict:
    balances = getattr(snapshot, "balances")
    holdings = getattr(snapshot, "holdings")
    return {
        "balances": {party.name: cents for party, cents in sorted(
            balances.items(), key=lambda kv: kv[0].name
        )},
        "holdings": dict(sorted(
            (label, holder.name) for label, holder in holdings.items()
        )),
    }


def _write_artifacts(
    run_dir: str,
    proxy: NetFaultProxy,
    result: SimulationResult,
    report: SafetyReport,
) -> None:
    with open(os.path.join(run_dir, "deliveries.jsonl"), "wb") as fh:
        for delivery in proxy.delivery_log:
            line = {
                "seq": delivery.seq,
                "time": round(delivery.delivered_at, 6),
                "key": delivery.key,
                "action": action_to_json(delivery.action),
            }
            fh.write(encode_json(line) + b"\n")
    provenance = result.provenance
    assert provenance is not None
    with open(os.path.join(run_dir, "provenance.json"), "w", encoding="utf-8") as out:
        json.dump(
            {
                "problem_name": provenance.problem_name,
                "seed": provenance.seed,
                "fault_seed": provenance.fault_seed,
                "fault_digest": provenance.fault_digest,
                "latency": provenance.latency,
                "deadline": provenance.deadline,
                "duration": result.duration,
                "quiescent": result.quiescent,
                "stranded_messages": result.stranded_messages,
                "initial": _snapshot_json(result.initial),
                "final": _snapshot_json(result.final),
                "final_digest": result.final.digest(),
            },
            out,
            indent=2,
            sort_keys=True,
        )
    with open(os.path.join(run_dir, "safety.json"), "w", encoding="utf-8") as out:
        json.dump(
            {
                "problem_name": report.problem_name,
                "verdicts": [
                    {
                        "party": v.party.name,
                        "ok": v.ok,
                        "reasons": list(v.reasons),
                        "money_delta_cents": v.money_delta_cents,
                    }
                    for v in report.verdicts
                ],
            },
            out,
            indent=2,
            sort_keys=True,
        )


def run_networked_exchange(
    problem: ExchangeProblem,
    run_dir: str,
    config: NetRunConfig = NetRunConfig(),
    fault_plan: FaultPlan | None = None,
    adversaries: dict[str, int] | None = None,
) -> NetRunResult:
    """Drive *problem* end-to-end over real sockets; blocks until done."""
    config = config.validate()
    protocol = derive_protocol(problem, config.deadline)
    if fault_plan is not None:
        fault_plan = fault_plan.validate()
        fault_plan.check_targets(
            (p.name for p in problem.interaction.principals),
            (p.name for p in protocol.trusted_specs),
        )
    adversaries = adversaries or {}
    check_adversaries(adversaries, (p.name for p in problem.interaction.principals))

    os.makedirs(run_dir, exist_ok=True)
    spec_path = os.path.join(run_dir, "problem.spec")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(format_problem(problem))

    run, proxy = asyncio.run(
        _run(problem, run_dir, spec_path, protocol, config, fault_plan, adversaries)
    )
    # Artifact writes are plain blocking file I/O, so they happen here —
    # after the loop has shut down — rather than inside the async runtime.
    _write_artifacts(run_dir, proxy, run.result, run.report)
    return run
