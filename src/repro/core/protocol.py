"""Protocol synthesis: from a total order to per-party instructions.

The paper defines a *protocol* as "a set of instructions for each participant
that governs its actions" and calls a protocol acceptable when every
execution it sanctions ends in a state acceptable to all parties (§2.3).
This module compiles a recovered :class:`ExecutionSequence` into such
instructions:

* **Principals** get a :class:`PrincipalRole`: an ordered list of
  :class:`SendInstruction`, each guarded by the set of *locally observable*
  events (transfers delivered to the principal, notifications addressed to
  it) that precede the send in the global order.  A principal that follows
  its role never moves before the assurances the sequencing graph proved it
  should have.
* **Trusted components** get a :class:`TrustedExchangeSpec` — the §2.5
  semantics: hold deposits, notify the last outstanding party, release all
  pieces when complete, reverse everything on deadline expiry.  They are not
  scripted step-by-step because their behaviour is the *same* in every
  exchange; the spec's escrow table says only what to hold and where it goes.

Each party runs its role in one sans-I/O party driver
(:mod:`repro.sim.driver`), which the simulator and the socket node both
interpret.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.actions import Action
from repro.core.execution import ExecutionSequence, StepKind
from repro.core.indemnity import IndemnityOffer
from repro.core.interaction import InteractionGraph
from repro.core.items import Item
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.errors import ProtocolError
from repro.records import new_record

# The steps a principal sends, bound once: reading ``StepKind.DEPOSIT`` goes
# through the enum metaclass's ``__getattr__`` hook, several times the cost of
# a module global.
_PRINCIPAL_SENDS = (StepKind.DEPOSIT, StepKind.INDEMNITY_DEPOSIT)


@dataclass(frozen=True)
class SendInstruction:
    """One guarded send: perform *action* once *preconditions* were observed.

    ``preconditions`` are actions whose effect is locally observable at the
    sender — transfers whose effective recipient is the sender, or notifies
    addressed to it.  ``global_index`` records the position in the source
    execution sequence (useful for debugging and metrics).
    """

    global_index: int
    action: Action
    preconditions: frozenset[Action]

    def ready(self, observed: set[Action]) -> bool:
        """Whether every precondition has been observed."""
        return self.preconditions <= observed

    def __str__(self) -> str:
        guards = ", ".join(sorted(str(a) for a in self.preconditions)) or "none"
        return f"[{self.global_index}] send {self.action} after: {guards}"


@dataclass(frozen=True)
class PrincipalRole:
    """All instructions for one principal, in global order."""

    party: Party
    instructions: tuple[SendInstruction, ...]

    def describe(self) -> list[str]:
        lines = [f"role {self.party.name}:"]
        lines.extend(f"  {i}" for i in self.instructions)
        return lines


class EscrowEntry(NamedTuple):
    """One deposit a trusted component holds: *depositor*'s *item*.

    On completion it goes to *recipient*: for a §2.5 swap deposit the member
    entitled to it, for a §6 escrow its own depositor.  On expiry it goes
    back to its depositor, unless it is an escrow whose *beneficiary*'s swap
    deposit is held and whose depositor's is not: then it is forfeit to the
    beneficiary.  Sent back to its depositor, it is the deposit's inverse;
    sent to anyone else, a fresh transfer.  :func:`synthesize_protocol`
    builds each swap entry with :data:`repro.records.new_record`, which runs
    no Python frame.
    """

    depositor: Party
    item: Item
    recipient: Party
    beneficiary: Party | None = None


@dataclass(frozen=True)
class TrustedExchangeSpec:
    """What one trusted component holds and where it settles it (§2.5, §6).

    ``entries`` is its escrow table: the swap deposits in edge order, then
    the §6 escrows it administers.  ``deadline`` bounds how long deposits
    are held before reversal.
    """

    agent: Party
    entries: tuple[EscrowEntry, ...]
    deadline: float | None = None


@dataclass(frozen=True)
class Protocol:
    """The full synthesized protocol for one exchange problem."""

    problem_name: str
    sequence: ExecutionSequence
    roles: dict[Party, PrincipalRole] = field(default_factory=dict)
    trusted_specs: dict[Party, TrustedExchangeSpec] = field(default_factory=dict)

    def role_of(self, party: Party) -> PrincipalRole:
        """The scripted role of a principal."""
        try:
            return self.roles[party]
        except KeyError:
            raise ProtocolError(f"{party.name} has no principal role in {self.problem_name}")

    def spec_of(self, agent: Party) -> TrustedExchangeSpec:
        """The escrow spec of a trusted component."""
        try:
            return self.trusted_specs[agent]
        except KeyError:
            raise ProtocolError(f"{agent.name} has no trusted spec in {self.problem_name}")

    def describe(self) -> list[str]:
        lines = [f"protocol for {self.problem_name}:"]
        for role in self.roles.values():
            lines.extend("  " + line for line in role.describe())
        for spec in self.trusted_specs.values():
            deposits = ", ".join(f"{e.depositor.name}:{e.item}" for e in spec.entries)
            lines.append(f"  escrow {spec.agent.name}: deposits {deposits}")
        return lines


def synthesize_protocol(
    interaction: InteractionGraph,
    sequence: ExecutionSequence,
    problem_name: str = "exchange",
    deadline: float | None = None,
    indemnities: tuple[IndemnityOffer, ...] = (),
) -> Protocol:
    """Compile an execution sequence into per-party instructions.

    Principal sends are the DEPOSIT and INDEMNITY_DEPOSIT steps; each is
    guarded by every earlier step observable at that principal.  Trusted
    components receive a :class:`TrustedExchangeSpec` whose escrow table
    holds each edge's deposit, bound for the member entitled to it, then
    the escrow of each of *indemnities* at that component.
    *deadline* is the run-wide default for a component the graph gives no
    deadline: ``None`` means no deadline, and like a spec's deadline it must
    be positive, so a bad value fails here rather than in the middle of a
    run.
    """
    if deadline is not None and not deadline > 0:  # NaN is not positive either
        raise ProtocolError(f"deadlines must be positive, got {deadline}")
    roles: dict[Party, list[SendInstruction]] = {}
    # Each party's locally observable actions (it is the effective recipient)
    # so far, in sequence order; step indices ascend along the sequence.
    observed: dict[Party, list[Action]] = {}
    for step in sequence.steps:
        if step.kind in _PRINCIPAL_SENDS:
            sender = step.action.sender
            if not sender.is_principal:
                raise ProtocolError(
                    f"step {step.index} has trusted component {sender.name} as depositor"
                )
            roles.setdefault(sender, []).append(
                SendInstruction(
                    step.index, step.action, frozenset(observed.get(sender, ()))
                )
            )
        observed.setdefault(step.action.effective_recipient, []).append(step.action)

    escrows_at: dict[Party, list[EscrowEntry]] = {}
    for offer in indemnities:
        deposit = offer.deposit_action()
        assert deposit.item is not None  # an escrow is a payment
        entry = EscrowEntry(offer.offeror, deposit.item, offer.offeror, offer.beneficiary)
        escrows_at.setdefault(offer.via, []).append(entry)
    trusted_specs: dict[Party, TrustedExchangeSpec] = {}
    edges_at = interaction.edges_by_party()
    entitled = interaction.entitlements()
    for agent in interaction.trusted_components:
        edges = edges_at[agent]
        entitled_to = {entitled[e]: e.principal for e in edges}  # one member per item
        swaps = [
            new_record(EscrowEntry, (e.principal, e.provides, entitled_to[e.provides], None))
            for e in edges
        ]
        agent_deadline = interaction.deadline_of(agent)
        trusted_specs[agent] = TrustedExchangeSpec(
            agent=agent,
            entries=(*swaps, *escrows_at.get(agent, ())),
            deadline=agent_deadline if agent_deadline is not None else deadline,
        )

    principal_roles = {
        party: PrincipalRole(party, tuple(instructions))
        for party, instructions in roles.items()
    }
    # Principals that only receive (pure producers in some topologies) still
    # get an empty role so the simulator can instantiate them uniformly.
    for principal in interaction.principals:
        if principal not in principal_roles:
            principal_roles[principal] = PrincipalRole(principal, ())
    return Protocol(
        problem_name=problem_name,
        sequence=sequence,
        roles=principal_roles,
        trusted_specs=trusted_specs,
    )


def derive_protocol(problem: ExchangeProblem, deadline: float | None = None) -> Protocol:
    """The protocol of a feasible *problem*: its §5 execution sequence
    compiled into roles, with *deadline* for each trusted component the
    problem gives no deadline of its own.

    Synthesis is deterministic, so every process of a networked run derives
    the same protocol from the same spec text.
    """
    sequence = problem.execution_sequence()
    return synthesize_protocol(problem.interaction, sequence, problem.name, deadline=deadline)
