"""Execution-sequence recovery (paper §5).

When a sequencing graph is feasible, the order in which commitment nodes
became disconnected during reduction is the order in which commit points are
reached.  The execution order equals the commit order with one exception:
commitments attached to their conjunction by a **red** edge are committed
first but *executed last* — "a broker should have a buyer committed before he
obtains goods, but must obtain the goods before he is able to give them to
the customer".

Each commitment execution is the principal's inbound transfer to the trusted
component.  A trusted component that now holds all but one of its exchange's
pieces issues a ``notify`` to the remaining principal; one that holds all the
pieces *releases*: it forwards each deposit to its destination, goods before
payments (this expansion reproduces the ten-step listing of §5 exactly).

Indemnity deposits/refunds (§6) are spliced in by
:func:`repro.core.indemnity.apply_plan`, not here.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.actions import Action, notify, transfer
from repro.core.constraints import Constraint, possession_constraints
from repro.core.interaction import InteractionEdge
from repro.core.items import Item
from repro.core.parties import Party
from repro.core.reduction import ReductionTrace
from repro.core.sequencing import CommitmentNode, ConjunctionNode, SGEdge
from repro.errors import InfeasibleExchangeError, ModelError


class StepKind(enum.Enum):
    """What an execution step does."""

    DEPOSIT = "deposit"  # principal -> trusted inbound transfer (a commitment)
    NOTIFY = "notify"  # trusted component informs the last outstanding principal
    RELEASE = "release"  # trusted -> principal outbound transfer
    INDEMNITY_DEPOSIT = "indemnity-deposit"  # §6 escrow, spliced in by indemnity module
    INDEMNITY_REFUND = "indemnity-refund"


# Bound once for the scheduler: reading ``StepKind.DEPOSIT`` goes through the
# enum metaclass's ``__getattr__`` hook, several times the cost of a global.
_DEPOSIT = StepKind.DEPOSIT
_NOTIFY = StepKind.NOTIFY
_RELEASE = StepKind.RELEASE


class ExecutionStep(NamedTuple):
    """One totally ordered step of the distributed transaction.

    A step is a tuple of its fields: building one sets no attribute, and it
    hashes and compares in C.
    """

    index: int  # type: ignore[assignment]  # shadows tuple.index; no step is searched
    kind: StepKind
    action: Action
    commitment: CommitmentNode | None = None

    def describe(self) -> str:
        """Paper-style prose, e.g. ``'Producer sends document to Trusted2.'``"""
        action = self.action
        if self.kind is StepKind.NOTIFY:
            return f"{action.sender.name} notifies {action.recipient.name}."
        assert action.item is not None
        noun = "money" if action.item.is_money else "document"
        if self.kind is StepKind.INDEMNITY_DEPOSIT:
            return f"{action.sender.name} deposits indemnity with {action.recipient.name}."
        if self.kind is StepKind.INDEMNITY_REFUND:
            return f"{action.sender.name} refunds indemnity to {action.recipient.name}."
        return f"{action.sender.name} sends {noun} to {action.recipient.name}."

    def __str__(self) -> str:
        return f"{self.index}. {self.describe()}"


@dataclass(frozen=True)
class ExecutionSequence:
    """A total order of pairwise transfers and notifications (§5)."""

    steps: tuple[ExecutionStep, ...]

    @property
    def actions(self) -> tuple[Action, ...]:
        """The bare action sequence."""
        return tuple(step.action for step in self.steps)

    @property
    def transfers(self) -> tuple[Action, ...]:
        """Only the give/pay actions, in order."""
        return tuple(a for a in self.actions if a.is_transfer)

    def describe(self) -> list[str]:
        """The numbered prose listing, matching the paper's §5 format."""
        return [str(step) for step in self.steps]

    def violated_constraints(self, extra: tuple[Constraint, ...] = ()) -> list[Constraint]:
        """Possession (§2.4) and extra constraints violated by this order.

        An empty list certifies the sequence is physically executable: no
        party ever sends a document it has not yet received.
        """
        constraints = possession_constraints(self.transfers) | set(extra)
        sequence = list(self.actions)
        return [c for c in constraints if not c.satisfied_by(sequence)]

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "\n".join(self.describe())


def execution_order(trace: ReductionTrace) -> tuple[CommitmentNode, ...]:
    """Commit order with red-edge commitments deferred to the end (§5).

    Relative order is preserved within the non-deferred and deferred groups.
    """
    red_commitments = {edge.commitment for edge in trace.graph.red_edges}
    immediate = [c for c in trace.commitment_order if c not in red_commitments]
    deferred = [c for c in trace.commitment_order if c in red_commitments]
    return tuple(immediate + deferred)


def recover_execution(
    trace: ReductionTrace, scheduler: str = "possession"
) -> ExecutionSequence:
    """Expand a feasible reduction trace into the §5 execution sequence.

    ``scheduler`` selects the ordering discipline:

    * ``"possession"`` (default) — the §5 recipe plus possession gating: a
      commitment only executes once its principal holds the item it must
      deposit.  Exact on the paper's examples and correct on multi-reseller
      chains.
    * ``"paper-strict"`` — the literal §5 recipe (commit order, red
      commitments deferred, no gating).  Kept for the ablation benchmark:
      on chains with ≥2 resellers it emits sequences that violate §2.4
      possession constraints, which is why the default gates.

    Raises :class:`InfeasibleExchangeError` on an infeasible trace, and
    :class:`ModelError` if the sequencing graph was built without an
    interaction graph (the transfers' items come from the interaction edges).
    """
    if scheduler not in ("possession", "paper-strict"):
        raise ModelError(f"unknown execution scheduler {scheduler!r}")
    if not trace.feasible:
        raise InfeasibleExchangeError(
            "cannot recover an execution sequence from an infeasible reduction; "
            + "; ".join(str(b) for b in trace.blockages)
        )
    interaction = trace.graph.interaction
    if interaction is None:
        raise ModelError(
            "sequencing graph has no interaction graph attached; build it via "
            "SequencingGraph.from_interaction to recover executions"
        )

    order = execution_order(trace)
    entitled = interaction.entitlements()
    commitments_at: dict[Party, list[CommitmentNode]] = {}
    for commitment in trace.graph.commitments:
        commitments_at.setdefault(commitment.trusted, []).append(commitment)
    outstanding = {t: len(members) for t, members in commitments_at.items()}
    # Goods only: principals are assumed solvent — insolvency is modeled
    # structurally with red edges (the §5 "poor broker"), not here.
    possession: dict[Party, set[Item]] = {p: set() for p in interaction.parties}
    for edge in interaction.original_holdings():
        possession[edge.principal].add(edge.provides)
    bundle_gates = _bundle_gates(trace, commitments_at)
    strict = scheduler == "paper-strict"

    # Possession-gated greedy scheduler.  The paper's rule (commit order with
    # red commitments deferred) is exact for a single red edge; with several
    # resellers the deferred group must additionally respect possession — a
    # broker cannot deposit a document it has not yet been handed (§2.4).
    # Scheduling the first *executable* commitment in the deferred-adjusted
    # commit order reproduces the §5 listing and generalizes to chains.
    # ``ready`` is a heap of order positions; a commitment found blocked is
    # parked on its blocker — the ``(principal, item)`` it waits to hold, or
    # an unexecuted gate commitment — and re-queued when that resolves.
    # Steps are numbered 1..n as they are appended.
    ready = list(range(len(order)))
    waiting: dict[object, list[int]] = {}
    executed: set[CommitmentNode] = set()
    steps: list[ExecutionStep] = []

    def wake(blocker: object) -> None:
        for position in waiting.pop(blocker, ()):
            heapq.heappush(ready, position)

    while ready:
        position = heapq.heappop(ready)
        commitment = order[position]
        if not strict:
            blocker = _blocker(commitment, possession, bundle_gates, executed)
            if blocker is not None:
                waiting.setdefault(blocker, []).append(position)
                continue
        edge = commitment.edge
        deposit = transfer(edge.principal, edge.trusted, edge.provides)
        if not edge.provides.is_money:
            possession[edge.principal].discard(edge.provides)
        steps.append(ExecutionStep(len(steps) + 1, _DEPOSIT, deposit, commitment))
        executed.add(commitment)
        wake(commitment)
        siblings = commitments_at[edge.trusted]
        outstanding[edge.trusted] -= 1
        if outstanding[edge.trusted] == 1:
            (last,) = (c for c in siblings if c not in executed)
            steps.append(
                ExecutionStep(
                    len(steps) + 1, _NOTIFY, notify(edge.trusted, last.principal), commitment
                )
            )
        elif not outstanding[edge.trusted]:
            releases = _release_steps(entitled, edge.trusted, siblings, len(steps) + 1)
            for release in releases:
                item = release.action.item
                assert item is not None
                if not item.is_money:
                    possession[release.action.recipient].add(item)
                    wake((release.action.recipient, item))
            steps.extend(releases)
    if len(executed) < len(order):
        labels = [c.label for c in order if c not in executed]
        raise InfeasibleExchangeError(
            f"execution scheduler stalled: no pending commitment of {labels} can "
            "be funded and bundle-assured; the reduction order admits no "
            "§2.3-protective total order"
        )
    return ExecutionSequence(tuple(steps))


def _bundle_gates(
    trace: ReductionTrace,
    commitments_at: dict[Party, list[CommitmentNode]],
) -> dict[CommitmentNode, list[CommitmentNode]]:
    """Cross-exchange assurance gates for bundle (all-black) conjunctions.

    The §4.1 second-type conjunction ("a customer wants a set of documents,
    useful only if all are received") imposes no *commit* ordering, but the
    §2.3 guarantee requires that a bundle member's deposit not enable one
    exchange to complete while a sibling exchange can still silently fail.
    The gate: a bundle member executes only after, for every *sibling*
    exchange still conjoined (indemnity splits remove members, §6), the
    counterpart deposits at that sibling's trusted component have executed —
    precisely the state in which that component issues its notify (§2.5).

    Red conjunctions are untouched: their ordering is the red-deferral rule.
    """
    by_conjunction: dict[ConjunctionNode, list[SGEdge]] = {}
    for sg_edge in trace.graph.edges:
        by_conjunction.setdefault(sg_edge.conjunction, []).append(sg_edge)
    gates: dict[CommitmentNode, list[CommitmentNode]] = {}
    for conjunction, edges in by_conjunction.items():
        if not conjunction.agent.is_principal:
            continue
        if len(edges) < 2 or any(e.is_red for e in edges):
            continue
        members = [e.commitment for e in edges]
        for member in members:
            required: list[CommitmentNode] = []
            for sibling in members:
                if sibling == member:
                    continue
                required.extend(
                    c
                    for c in commitments_at[sibling.trusted]
                    if c != sibling
                )
            gates[member] = required
    return gates


def _blocker(
    commitment: CommitmentNode,
    possession: dict[Party, set[Item]],
    bundle_gates: dict[CommitmentNode, list[CommitmentNode]],
    executed: set[CommitmentNode],
) -> object | None:
    """What keeps *commitment*'s deposit from executing now, or None.

    Either the ``(principal, item)`` pair its principal does not hold yet, or
    a gate commitment that has not executed.  Executed gate members are
    dropped from the end of the gate list: execution is permanent, so each
    gate is scanned once in total.
    """
    edge = commitment.edge
    if not edge.provides.is_money and edge.provides not in possession[edge.principal]:
        return (edge.principal, edge.provides)
    gate = bundle_gates.get(commitment)
    while gate and gate[-1] in executed:
        gate.pop()
    return gate[-1] if gate else None


def _release_steps(
    entitled: dict[InteractionEdge, Item],
    trusted: Party,
    siblings: list[CommitmentNode],
    first: int,
) -> list[ExecutionStep]:
    """Outbound transfers when a trusted component holds every piece, as
    steps numbered from *first*.

    Each principal receives what its counterpart(s) provided.  Goods are
    released before payments (matching steps 6–7 and 9–10 of the paper's §5
    listing); ties break on recipient name for determinism.
    """
    receivers = sorted(
        siblings, key=lambda receiver: (entitled[receiver.edge].is_money, receiver.principal.name)
    )
    releases: list[ExecutionStep] = []
    for index, receiver in enumerate(receivers, first):
        outbound = transfer(trusted, receiver.principal, entitled[receiver.edge])
        releases.append(ExecutionStep(index, _RELEASE, outbound, receiver))
    return releases
