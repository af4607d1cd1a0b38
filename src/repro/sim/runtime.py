"""Simulation runtime: wire a synthesized protocol to party drivers and run it.

:class:`Simulation` builds the whole apparatus for one exchange problem —
event queue, wire (:class:`~repro.sim.network.TransportCore`), ledger with
endowments, one driver per party (:mod:`repro.sim.driver`) — runs to
quiescence, and returns a :class:`SimulationResult` with the delivery log,
ledger snapshots, and network statistics.

Asset semantics depend on the transport.  On the reliable wire (no fault
plan) movements are applied to the ledger at *send* time — an asset is never
in two places and delivery is certain, so this is exact.  Under fault
injection a send only moves the asset into the wire's custody account
(:data:`repro.sim.ledger.WIRE`); the first delivery releases it to the
recipient, and an abandoned message returns it to the sender.  The ledger
checks conservation after every movement in both regimes; a notify moves
nothing.

A crash stops a party's process, not its host: a first delivery for it
still lands, but the party handles it only at its restart, and its timers
wait for the restart too (:class:`Simulation` has the details).

Quiescence is more than an empty event queue: a run can drain its timers
while messages are still undelivered (a permanently silent sender's retry
timers die with it).  :meth:`Simulation.run` therefore resolves stranded
envelopes after the loop and reports ``quiescent=False`` with a count when
any existed — an in-flight message can never masquerade as completion.

Adversaries are injected per party name; their bogus substitute documents are
endowed automatically so a cheat physically *can* ship the wrong item.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.core.actions import Action
from repro.core.execution import recover_execution
from repro.core.indemnity import IndemnityPlan, apply_plan
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.core.protocol import Protocol, derive_protocol, synthesize_protocol
from repro.core.states import ExchangeState
from repro.errors import SimulationError
from repro.obs.runtime import active as _active_tracer
from repro.sim.agents import AdversaryStrategy
from repro.sim.driver import (
    Abandon,
    Command,
    Log,
    PartyDriver,
    Record,
    Send,
    Timer,
    driver_for,
)
from repro.sim.events import EventQueue
from repro.sim.faults import FaultPlan, check_adversaries
from repro.sim.ledger import WIRE, LedgerSnapshot, initial_ledger
from repro.sim.network import Arrival, Envelope, NetworkStats, TransportCore

# Bound once: reading ``Arrival.FIRST`` goes through the enum metaclass.
_FIRST = Arrival.FIRST
_PARKED = Arrival.PARKED
_DUPLICATE = Arrival.DUPLICATE


@dataclass(frozen=True)
class RunProvenance:
    """Everything needed to replay a run bit-for-bit from its result."""

    problem_name: str
    seed: "int | float | None" = None  # the problem/scenario seed, if any
    fault_seed: int | None = None
    fault_digest: str | None = None
    latency: float = 1.0
    deadline: float | None = None

    @classmethod
    def of(
        cls,
        problem_name: str,
        protocol: Protocol,
        fault_plan: FaultPlan | None,
        latency: float,
        seed: "int | float | None",
    ) -> "RunProvenance":
        """The provenance of one run of *protocol*, in either runtime.

        The run's deadline is the latest trusted-component deadline.
        """
        return cls(
            problem_name=problem_name,
            seed=seed,
            fault_seed=fault_plan.seed if fault_plan is not None else None,
            fault_digest=fault_plan.digest() if fault_plan is not None else None,
            latency=latency,
            deadline=max(
                (s.deadline for s in protocol.trusted_specs.values() if s.deadline),
                default=None,
            ),
        )


@dataclass
class SimulationResult:
    """Everything observable after one run."""

    problem_name: str
    duration: float
    initial: LedgerSnapshot
    final: LedgerSnapshot
    stats: NetworkStats
    protocol: Protocol  # the protocol that was run: its escrow tables name the forfeits
    delivered: list[Action] = field(default_factory=list)
    completed_agents: frozenset[Party] = frozenset()
    reversed_agents: frozenset[Party] = frozenset()
    provenance: RunProvenance | None = None
    stranded_messages: int = 0
    quiescent: bool = True

    @property
    def global_state(self) -> ExchangeState:
        """The run's final state as a §2.3 action set."""
        return ExchangeState.of(self.delivered)

    def money_delta(self, party: Party) -> int:
        """Final minus initial balance of *party*, in cents."""
        return self.final.balance(party) - self.initial.balance(party)


class Simulation:
    """One runnable instance of an exchange protocol.

    The simulator's discrete-event interpreter, on one
    :class:`~repro.sim.events.EventQueue`, of the party drivers' commands
    (:mod:`repro.sim.driver`) and of the wire they share with the socket
    runtime (:class:`~repro.sim.network.TransportCore`, held as
    :attr:`core`):

    * ``Send`` opens the envelope under the driver's key (a retry re-offers
      it) and moves custody on the ledger between the envelope's parties,
      which the core reads off the action once; each copy the core lets
      through becomes an arrival callback.  A first copy for a live party is
      delivered at once and handed to the party's driver; under faults it
      first releases wire custody to the recipient and acknowledges the
      sender.  A later copy reaches a live party with the same key.
    * A crash stops the process, not the host.  A first copy for a crashed
      party still lands (delivered, custody released, sender acknowledged)
      but its handling waits in a mailbox replayed at the restart (never,
      for permanent silence); a later copy for a crashed party is dropped.
    * ``Timer`` schedules a queue callback whose handle is kept per party.
      A timer that falls due while its party is crashed re-arms at the
      restart, and dies with a party that never restarts;
      ``Timer(name, None)`` cancels it.
    * ``Abandon`` gives the envelope up: custody returns to the sender.
    * Every logged record is kept in memory, per party, in :attr:`logs`.

    A callback refers back to the simulation only while it waits in the
    queue, and :meth:`run` drains the queue, so a finished run holds no
    reference cycle: reference counting alone frees it.
    """

    def __init__(
        self,
        problem: ExchangeProblem,
        protocol: Protocol,
        adversaries: dict[str, AdversaryStrategy] | None = None,
        latency: float = 1.0,
        fault_plan: FaultPlan | None = None,
        seed: int | None = None,
    ) -> None:
        self.problem = problem
        self.protocol = protocol
        self.queue = EventQueue()
        self.fault_plan = fault_plan
        self.seed = seed
        principals = problem.interaction.principals
        if fault_plan is not None:
            fault_plan.check_targets(
                (p.name for p in principals), (p.name for p in protocol.trusted_specs)
            )
        adversaries = adversaries or {}
        check_adversaries(adversaries, (p.name for p in principals))
        self.core = TransportCore(latency, fault_plan)
        #: Per party name: first deliveries parked while its process was down.
        self._mailbox: dict[str, list[Envelope]] = {}
        if fault_plan is not None:
            for fault in fault_plan.validate().parties:
                if fault.restart_at is not None:
                    self.queue.schedule_at(
                        fault.restart_at, functools.partial(self._drain_mailbox, fault.party)
                    )
        self.ledger = initial_ledger(problem.interaction, protocol)
        for party in principals:
            strategy = adversaries.get(party.name)
            if strategy is None or not strategy.substitute:
                continue
            for bogus in strategy.substitute.values():
                if not bogus.is_money and self.ledger.holder(bogus.label) is None:
                    self.ledger.endow_document(party, bogus.label)
        self.initial = self.ledger.seal()

        documents: dict[Party, list[str]] = {}
        for label, holder in self.initial.holdings.items():
            documents.setdefault(holder, []).append(label)
        self._slots: dict[Party, _Slot] = {}
        for party in (*principals, *protocol.trusted_specs):
            driver = driver_for(
                protocol,
                party,
                self.initial.balances.get(party, 0),
                documents.get(party, ()),
                adversaries.get(party.name),
                retransmit=fault_plan is not None,
            )
            slot = self._slots[party] = _Slot(party, driver)
            self._apply(slot, driver.recover(()))
        self.drivers: dict[Party, PartyDriver] = {
            party: slot.driver for party, slot in self._slots.items()
        }
        #: Each party's log: its records, in the order its driver logged them.
        self.logs: dict[Party, list[Record]] = {
            party: slot.log for party, slot in self._slots.items()
        }
        self.provenance = RunProvenance.of(problem.name, protocol, fault_plan, latency, seed)

    # ----------------------------------------------------------- construction

    @classmethod
    def from_problem(
        cls,
        problem: ExchangeProblem,
        adversaries: dict[str, AdversaryStrategy] | None = None,
        latency: float = 1.0,
        deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        seed: int | None = None,
    ) -> "Simulation":
        """Synthesize the protocol for a feasible problem and wire it up."""
        return cls(
            problem,
            derive_protocol(problem, deadline),
            adversaries,
            latency,
            fault_plan=fault_plan,
            seed=seed,
        )

    @classmethod
    def from_plan(
        cls,
        problem: ExchangeProblem,
        plan: IndemnityPlan,
        adversaries: dict[str, AdversaryStrategy] | None = None,
        latency: float = 1.0,
        deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        seed: int | None = None,
    ) -> "Simulation":
        """Wire up an indemnity-unlocked exchange (§6)."""
        base = recover_execution(plan.verdict.trace)
        sequence = apply_plan(plan, base)
        protocol = synthesize_protocol(
            problem.interaction,
            sequence,
            problem.name,
            deadline=deadline,
            indemnities=plan.offers,
        )
        return cls(problem, protocol, adversaries, latency, fault_plan=fault_plan, seed=seed)

    # ------------------------------------------------------------------- run

    def _apply(self, slot: _Slot, commands: list[Command]) -> None:
        """Carry out one driver step's commands, in order."""
        for command in commands:
            if type(command) is Send:
                if command.record is None:
                    arrivals = self.core.retransmit(self.queue.now, command.key)
                    if arrivals:
                        self._schedule(self.core.envelopes[command.key], arrivals)
                    continue
                slot.log.append(command.record)
                envelope, arrivals = self.core.send(self.queue.now, command.action, command.key)
                if envelope.target not in self._slots:
                    raise SimulationError(f"no party {envelope.target.name} in this run")
                item = command.action.item
                if item is not None:
                    # On the reliable wire the asset moves at send time;
                    # under faults it waits in the wire's custody until
                    # delivery.
                    self.ledger.move(
                        envelope.source, envelope.target if self.fault_plan is None else WIRE, item
                    )
                self._schedule(envelope, arrivals)
            elif type(command) is Log:
                slot.log.append(command.record)
            elif type(command) is Timer:
                previous = slot.timers.pop(command.name, None)
                if previous is not None:
                    self.queue.cancel(previous)
                if command.at is not None:
                    slot.timers[command.name] = self.queue.schedule_at(
                        command.at, functools.partial(self._fired, slot, command.name)
                    )
            elif type(command) is Abandon:
                slot.log.append(command.record)
                # Only a retry gives up, and only the faulty wire retries.
                envelope = self.core.abandon(self.queue.now, command.key)
                if envelope is not None:
                    self._return_custody(envelope)
            # A Got needs nothing: this wire needs no confirmation that a
            # delivery is logged.

    def _schedule(self, envelope: Envelope, arrivals: list[float]) -> None:
        for time in arrivals:
            self.queue.schedule_at(time, functools.partial(self._arrive, envelope))

    def _arrive(self, envelope: Envelope) -> None:
        """One copy of *envelope* reaches its recipient."""
        now = self.queue.now
        plan = self.fault_plan
        down = plan is not None and plan.is_crashed(envelope.recipient, now)
        arrival = self.core.arrive(now, envelope, down)
        if arrival is _FIRST:
            self.core.deliver(now, envelope)  # a simulated process takes it at once
            if plan is not None:
                self._acknowledge(envelope)
            self._dispatch(envelope)
        elif arrival is _PARKED:
            self._acknowledge(envelope)
            self._mailbox.setdefault(envelope.recipient, []).append(envelope)
        elif arrival is _DUPLICATE and not down:
            self._dispatch(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        """Hand *envelope* to its recipient's driver."""
        slot = self._slots[envelope.target]
        self._apply(slot, slot.driver.delivered(self.queue.now, envelope.key, envelope.action))

    def _drain_mailbox(self, name: str) -> None:
        """Hand over the first deliveries parked while the process was down."""
        for envelope in self._mailbox.pop(name, []):
            self._dispatch(envelope)

    def _acknowledge(self, envelope: Envelope) -> None:
        """Under faults, a first delivery releases wire custody to the
        recipient and acknowledges the sender."""
        item = envelope.action.item
        if item is not None:
            self.ledger.move(WIRE, envelope.target, item)
        slot = self._slots[envelope.source]
        commands = slot.driver.acked(self.queue.now, envelope.key)
        if commands:
            self._apply(slot, commands)

    def _return_custody(self, envelope: Envelope) -> None:
        item = envelope.action.item
        if item is not None:
            self.ledger.move(WIRE, envelope.source, item)

    def _fired(self, slot: _Slot, name: str) -> None:
        now = self.queue.now
        plan = self.fault_plan
        if plan is not None and plan.is_crashed(slot.party.name, now):
            # Due while the party is down: the timer waits for the restart,
            # or dies with a party that never comes back.
            restart = plan.restart_time(slot.party.name)
            if restart is None:
                del slot.timers[name]
            else:
                slot.timers[name] = self.queue.schedule_at(
                    restart, functools.partial(self._fired, slot, name)
                )
            return
        del slot.timers[name]
        self._apply(slot, slot.driver.fired(now, name))

    def run(self, max_time: float = math.inf) -> SimulationResult:
        """Run to quiescence (or *max_time*) and summarize."""
        obs = _active_tracer()
        if obs is None:
            return self._run(max_time)
        with obs.span("sim.run", {"problem": self.problem.name}) as span_id:
            result = self._run(max_time)
            obs.set_attr(span_id, "duration", result.duration)
            obs.set_attr(span_id, "quiescent", result.quiescent)
        # Message counters are rolled up once from NetworkStats (rather than
        # incrementally by MessageObs) so they cannot double-count and they
        # exist even in metrics-only scopes.
        stats = result.stats
        metrics = obs.metrics
        metrics.inc("net.sent", stats.messages_sent)
        metrics.inc("net.delivered", stats.messages_delivered)
        metrics.inc("net.attempts", stats.attempts)
        metrics.inc("net.dropped", stats.dropped)
        metrics.inc("net.duplicates", stats.duplicates)
        metrics.inc("net.retransmits", stats.retransmits)
        metrics.inc("net.deferred", stats.deferred)
        metrics.inc("net.abandoned", stats.abandoned)
        metrics.inc("net.stranded", result.stranded_messages)
        metrics.histogram("sim.duration").observe(result.duration)
        return result

    def _run(self, max_time: float) -> SimulationResult:
        queue = self.queue
        for slot in self._slots.values():
            self._apply(slot, slot.driver.start(queue.now))
        while True:
            if queue.now > max_time:
                raise SimulationError(f"simulation exceeded max_time={max_time}")
            callback = queue.pop()
            if callback is None:
                break
            callback()
        stranded: list[Envelope] = []
        if self.fault_plan is not None:
            stranded = self.core.resolve_stranded(self.queue.now)
            for envelope in stranded:
                self._return_custody(envelope)
        if self.core.obs is not None:
            self.core.obs.finish(self.queue.now)
        return SimulationResult(
            problem_name=self.problem.name,
            duration=self.queue.now,
            initial=self.initial,
            final=self.ledger.snapshot(),
            stats=self.core.stats,
            protocol=self.protocol,
            delivered=[delivery.action for delivery in self.core.log],
            completed_agents=frozenset(
                p for p in self.protocol.trusted_specs if self.drivers[p].phase() == "completed"
            ),
            reversed_agents=frozenset(
                p for p in self.protocol.trusted_specs if self.drivers[p].phase() == "reversed"
            ),
            provenance=self.provenance,
            stranded_messages=len(stranded),
            quiescent=not stranded,
        )


class _Slot:
    """One party in the simulator: its driver, its log and the queue
    handles of its pending timers, by timer name."""

    __slots__ = ("party", "driver", "log", "timers")

    def __init__(self, party: Party, driver: PartyDriver) -> None:
        self.party = party
        self.driver = driver
        self.log: list[Record] = []
        self.timers: dict[str, int] = {}


def simulate(
    problem: ExchangeProblem,
    adversaries: dict[str, AdversaryStrategy] | None = None,
    latency: float = 1.0,
    deadline: float | None = 100.0,
    fault_plan: FaultPlan | None = None,
    seed: int | None = None,
) -> SimulationResult:
    """One-call convenience: synthesize, simulate, summarize."""
    sim = Simulation.from_problem(
        problem, adversaries, latency, deadline, fault_plan=fault_plan, seed=seed
    )
    return sim.run()
