"""Indemnities (paper §6).

A principal makes a credible promise by escrowing money with a trusted
intermediary it shares with the party demanding assurance.  In sequencing-
graph terms, an indemnity **splits a conjunction node**: the edge connecting
the demanding party's conjunction to the covered commitment is removed, after
which the reduction rules may proceed.

Only conjunctive edges *of the second type* may be indemnified — a customer
demanding multiple documents in order to agree to purchase any of them
(all-black principal conjunctions).  The indemnity amount must cover the
worst case: the demanding party acquires every *other* piece of the bundle at
full cost and never receives the covered one, so

    amount(covered piece) = Σ cost(other pieces in the original bundle).

The **order** of indemnification matters (Figure 7: $90 for B1-then-B2 vs
$70 for B3-then-B2).  The greedy rule — indemnify the highest-cost subtree
first, leaving the cheapest piece uncovered — minimizes the total escrow at
``(k−2)·S + c_min`` for a k-piece bundle of total cost S.  This module
implements the planner, the greedy minimizer, and a brute-force optimum used
by the tests to certify greedy optimality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.actions import Action, pay
from repro.core.execution import ExecutionSequence, ExecutionStep, StepKind
from repro.core.feasibility import FeasibilityVerdict, Verdict
from repro.core.interaction import InteractionEdge
from repro.core.items import cents as make_cents
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.core.reduction import reduce_graph
from repro.core.sequencing import ConjunctionNode, SequencingGraph
from repro.errors import IndemnityError
from repro.records import new_record


def commitment_cost(edge: InteractionEdge) -> int:
    """The demanding principal's outlay through *edge*, in cents.

    For a bundle member where the principal pays money, the cost is that
    amount; a member where the principal provides goods has zero monetary
    exposure (the worst case for goods is handled by the counterpart's own
    indemnity, not this one).
    """
    provides = edge.provides
    return getattr(provides, "cents", 0) if provides.is_money else 0


@dataclass(frozen=True)
class IndemnityOffer:
    """One escrow: *offeror* deposits *amount_cents* with *via* so that
    *beneficiary* will treat the commitment over *covers* as separable.

    The conditions (paper §6): if the beneficiary provides its payment but
    the covered piece is never delivered, the escrow is forfeit to the
    beneficiary; if the piece is delivered, the escrow is refunded.
    """

    offeror: Party
    beneficiary: Party
    via: Party
    covers: InteractionEdge
    amount_cents: int

    def deposit_action(self) -> Action:
        """The escrow payment ``pay_{offeror->via}(amount)``."""
        amount = make_cents(self.amount_cents, tag=f"indemnity-{self.covers.label}")
        return pay(self.offeror, self.via, amount)

    def refund_action(self) -> Action:
        """The refund ``pay⁻¹`` issued when the covered piece is delivered."""
        return self.deposit_action().inverse()

    def __str__(self) -> str:
        return (
            f"{self.offeror.name} escrows ${self.amount_cents / 100:.2f} at "
            f"{self.via.name} covering {self.covers.label} for {self.beneficiary.name}"
        )


@dataclass(frozen=True)
class IndemnityPlan:
    """A sequence of offers and the exchange's post-split verdict."""

    problem_name: str
    offers: tuple[IndemnityOffer, ...]
    verdict: FeasibilityVerdict

    @property
    def total_cents(self) -> int:
        """Total escrowed capital across all offers."""
        return sum(offer.amount_cents for offer in self.offers)

    @property
    def total_dollars(self) -> float:
        """Total escrowed capital in dollars."""
        return self.total_cents / 100.0

    @property
    def feasible(self) -> bool:
        """Whether the exchange became feasible under this plan."""
        return self.verdict.feasible

    def describe(self) -> list[str]:
        lines = [f"indemnity plan for {self.problem_name}: total ${self.total_dollars:.2f}"]
        lines.extend(f"  {offer}" for offer in self.offers)
        lines.append(f"  -> {'feasible' if self.feasible else 'still not shown feasible'}")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.describe())


def splittable_conjunctions(problem: ExchangeProblem) -> tuple[Party, ...]:
    """Principals whose conjunctions may be indemnity-split (§6).

    These are the "second type" conjunctions: a principal with two or more
    commitments, none of them priority (no red edges) — the all-or-nothing
    bundle pattern.
    """
    graph = problem.interaction
    priority = graph.priority_edges
    edges_at = graph.edges_by_party()
    result: list[Party] = []
    for principal in graph.principals:
        edges = edges_at[principal]
        if len(edges) < 2:
            continue
        if any(e in priority for e in edges):
            continue
        result.append(principal)
    return tuple(result)


def _conjunction_of(sg: SequencingGraph, agent: Party) -> ConjunctionNode:
    return sg.conjunction_for(agent)


def required_indemnity(problem: ExchangeProblem, covers: InteractionEdge) -> int:
    """The escrow needed to split *covers* out of its principal's bundle.

    Worst case for the demanding principal: it pays for every *other*
    original bundle member but never receives the covered piece.
    """
    agent = covers.principal
    members = [e for e in problem.interaction.edges if e.principal == agent]
    if covers not in members:
        raise IndemnityError(f"{covers.label!r} is not a commitment of {agent.name!r}")
    if len(members) < 2:
        raise IndemnityError(
            f"{agent.name!r} holds a single commitment; there is no bundle to split"
        )
    return sum(commitment_cost(e) for e in members if e != covers)


def offer_for(problem: ExchangeProblem, covers: InteractionEdge) -> IndemnityOffer:
    """Construct the offer that splits *covers* out of its bundle.

    The offeror is the counterpart principal across the covered commitment's
    trusted intermediary — "usually the broker or source involved in
    providing a document" (§6) — which by construction shares that
    intermediary with the beneficiary.
    """
    beneficiary = covers.principal
    counterparts = problem.interaction.counterparts(covers)
    if len(counterparts) != 1:
        raise IndemnityError(
            f"{covers.trusted.name!r} does not mediate a pairwise exchange; "
            "cannot determine the offeror"
        )
    offeror = counterparts[0].principal
    return IndemnityOffer(
        offeror=offeror,
        beneficiary=beneficiary,
        via=covers.trusted,
        covers=covers,
        amount_cents=required_indemnity(problem, covers),
    )


def plan_indemnities(
    problem: ExchangeProblem,
    order: list[InteractionEdge] | tuple[InteractionEdge, ...],
    agent: Party | None = None,
    stop_when_feasible: bool = True,
) -> IndemnityPlan:
    """Split bundle members in *order*, re-testing feasibility after each.

    All edges in *order* must belong to the same splittable bundle (the
    principal defaults to the first edge's).  When ``stop_when_feasible``
    the planner stops at the first verdict of feasible — matching §6, where
    the customer proceeds once enough pieces are indemnified.
    """
    if not order:
        raise IndemnityError("indemnification order must name at least one commitment")
    agent = agent if agent is not None else order[0].principal
    if agent not in splittable_conjunctions(problem):
        raise IndemnityError(
            f"{agent.name!r} has no splittable (all-or-nothing) conjunction; "
            "indemnities apply only to second-type conjunctions (§6)"
        )
    for edge in order:
        if edge.principal != agent:
            raise IndemnityError(
                f"{edge.label!r} belongs to {edge.principal.name!r}, not {agent.name!r}"
            )

    sg = problem.sequencing_graph()
    conjunction = _conjunction_of(sg, agent)
    offers: list[IndemnityOffer] = []
    trace = reduce_graph(sg)
    for edge in order:
        if trace.feasible and stop_when_feasible:
            break
        offers.append(offer_for(problem, edge))
        sg_edge = sg.find_edge(sg.commitment_for(edge), conjunction)
        sg = sg.with_edges_removed([sg_edge])
        trace = reduce_graph(sg)
    verdict = FeasibilityVerdict(
        verdict=Verdict.FEASIBLE if trace.feasible else Verdict.NOT_SHOWN_FEASIBLE,
        trace=trace,
    )
    return IndemnityPlan(problem_name=problem.name, offers=tuple(offers), verdict=verdict)


def greedy_order(problem: ExchangeProblem, agent: Party) -> list[InteractionEdge]:
    """§6's greedy rule: indemnify the highest-cost subtree first.

    Descending cost leaves the cheapest piece last; since the last piece
    needs no indemnity, the total escrow is minimized.  Ties break on edge
    label for determinism.
    """
    members = [e for e in problem.interaction.edges if e.principal == agent]
    return sorted(members, key=lambda e: (-commitment_cost(e), e.label))


def minimal_indemnity_plan(
    problem: ExchangeProblem, agent: Party | None = None
) -> IndemnityPlan:
    """The greedy minimum-escrow plan for *agent*'s bundle.

    *agent* defaults to the unique splittable conjunction (raises when the
    choice is ambiguous).
    """
    if agent is None:
        candidates = splittable_conjunctions(problem)
        if len(candidates) != 1:
            raise IndemnityError(
                f"expected exactly one splittable conjunction, found "
                f"{[p.name for p in candidates]}; pass agent= explicitly"
            )
        agent = candidates[0]
    return plan_indemnities(problem, greedy_order(problem, agent), agent=agent)


def brute_force_minimal_plan(
    problem: ExchangeProblem, agent: Party | None = None
) -> IndemnityPlan:
    """Try every indemnification order; return a cheapest feasible plan.

    Exponential — intended for tests certifying that the greedy plan is
    optimal (it is, per §6's argument).  Returns the greedy plan when no
    order achieves feasibility.
    """
    if agent is None:
        candidates = splittable_conjunctions(problem)
        if len(candidates) != 1:
            raise IndemnityError(
                f"expected exactly one splittable conjunction, found "
                f"{[p.name for p in candidates]}; pass agent= explicitly"
            )
        agent = candidates[0]
    members = [e for e in problem.interaction.edges if e.principal == agent]
    best: IndemnityPlan | None = None
    for permutation in itertools.permutations(members):
        plan = plan_indemnities(problem, list(permutation), agent=agent)
        if not plan.feasible:
            continue
        if best is None or plan.total_cents < best.total_cents:
            best = plan
    return best if best is not None else minimal_indemnity_plan(problem, agent)


def apply_plan(plan: IndemnityPlan, execution: ExecutionSequence) -> ExecutionSequence:
    """Splice a plan's escrow actions into an execution sequence.

    Deposits go first (credibility must precede the transaction) and refunds
    last (issued once the covered pieces were delivered).  Only meaningful
    for feasible plans.
    """
    if not plan.feasible:
        raise IndemnityError("cannot execute an exchange whose plan is not feasible")
    # Each step is numbered once, as it is built with every field in order
    # through new_record, so no generated NamedTuple frame runs.
    deposit, refund = StepKind.INDEMNITY_DEPOSIT, StepKind.INDEMNITY_REFUND
    steps = [
        new_record(ExecutionStep, (i, deposit, offer.deposit_action(), None))
        for i, offer in enumerate(plan.offers, 1)
    ]
    steps.extend(
        new_record(ExecutionStep, (i, step.kind, step.action, step.commitment))
        for i, step in enumerate(execution.steps, len(steps) + 1)
    )
    steps.extend(
        new_record(ExecutionStep, (i, refund, offer.refund_action(), None))
        for i, offer in enumerate(plan.offers, len(steps) + 1)
    )
    return ExecutionSequence(tuple(steps))
