"""The original rescan-everything reduction engine, retained as an oracle.

This is the seed implementation of the §4.2 greedy reduction: every fringe
test rescans the full remaining-edge set and :meth:`applicable` re-derives
all legal steps from scratch each iteration, giving O(E³) behavior on large
graphs.  Production code reduces with the compiled
:func:`repro.core.reduction.reduce_graph`; this engine is kept unoptimized
as the **equivalence oracle**: ``tests/property/test_flatcore_equivalence.py``
and the conformance fuzzer drive both through identical strategies, personas,
and ablations and require the same verdict, step sequence, blockage
diagnosis, and commitment / conjunction disconnection orders.

It is also the step-level API: :meth:`ReferenceReductionEngine.applicable`,
:meth:`~ReferenceReductionEngine.apply`, a custom ``chooser`` for
:meth:`~ReferenceReductionEngine.run`, and :func:`replay_reference` for
scripted orders (the figure benchmarks replay the paper's circled
elimination orders through it, asserting each step is legal).

The only change from the seed is that remaining-edge enumeration iterates
``graph.edges`` (original graph order) rather than a Python ``set``, so
``blocking_red_edges`` tuples are deterministic and comparable against
:func:`~repro.core.reduction.reduce_graph`'s output.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro.core.reduction import Blockage, ReductionStep, ReductionTrace, Rule
from repro.core.sequencing import (
    CommitmentNode,
    ConjunctionNode,
    SGEdge,
    SequencingGraph,
)
from repro.errors import ReductionError


class ReferenceReductionEngine:
    """Naive O(E³) engine: full rescans, no indices.  Oracle and step API."""

    def __init__(self, graph: SequencingGraph, enable_persona_clause: bool = True) -> None:
        self.graph = graph
        self.enable_persona_clause = enable_persona_clause
        self.remaining: set[SGEdge] = set(graph.edges)
        self.steps: list[ReductionStep] = []
        self._commitment_order: list[CommitmentNode] = []
        self._conjunction_order: list[ConjunctionNode] = []
        for commitment in graph.commitments:
            if not self._edges_of_commitment(commitment):
                self._commitment_order.append(commitment)
        for conjunction in graph.conjunctions:
            if not self._edges_of_conjunction(conjunction):
                self._conjunction_order.append(conjunction)

    # ----------------------------------------------------------- fringe tests

    def _edges_of_commitment(self, commitment: CommitmentNode) -> list[SGEdge]:
        return [
            e for e in self.graph.edges if e in self.remaining and e.commitment == commitment
        ]

    def _edges_of_conjunction(self, conjunction: ConjunctionNode) -> list[SGEdge]:
        return [
            e for e in self.graph.edges if e in self.remaining and e.conjunction == conjunction
        ]

    def is_commitment_fringe(self, commitment: CommitmentNode) -> bool:
        return len(self._edges_of_commitment(commitment)) == 1

    def is_conjunction_fringe(self, conjunction: ConjunctionNode) -> bool:
        return len(self._edges_of_conjunction(conjunction)) == 1

    def blocking_red_edges(self, edge: SGEdge) -> tuple[SGEdge, ...]:
        return tuple(
            other
            for other in self._edges_of_conjunction(edge.conjunction)
            if other.is_red and other.commitment != edge.commitment
        )

    def rule1_applicable(self, edge: SGEdge) -> tuple[bool, bool]:
        if edge not in self.remaining:
            return False, False
        if not self.is_commitment_fringe(edge.commitment):
            return False, False
        if self.enable_persona_clause and edge.commitment in self.graph.personas:
            return True, bool(self.blocking_red_edges(edge))
        if self.blocking_red_edges(edge):
            return False, False
        return True, False

    def rule2_applicable(self, edge: SGEdge) -> bool:
        return edge in self.remaining and self.is_conjunction_fringe(edge.conjunction)

    def applicable(self) -> list[tuple[Rule, SGEdge, bool]]:
        result: list[tuple[Rule, SGEdge, bool]] = []
        for edge in self.graph.edges:
            if edge not in self.remaining:
                continue
            ok, via_persona = self.rule1_applicable(edge)
            if ok:
                result.append((Rule.COMMITMENT_FRINGE, edge, via_persona))
            if self.rule2_applicable(edge):
                result.append((Rule.CONJUNCTION_FRINGE, edge, False))
        return result

    # ----------------------------------------------------------------- apply

    def apply(self, rule: Rule, edge: SGEdge) -> ReductionStep:
        if edge not in self.remaining:
            raise ReductionError(f"edge already removed or unknown: {edge}")
        via_persona = False
        if rule is Rule.COMMITMENT_FRINGE:
            ok, via_persona = self.rule1_applicable(edge)
            if not ok:
                if not self.is_commitment_fringe(edge.commitment):
                    raise ReductionError(
                        f"Rule #1 inapplicable: {edge.commitment.label} is not a fringe node"
                    )
                reds = self.blocking_red_edges(edge)
                raise ReductionError(
                    f"Rule #1 inapplicable: {edge} is pre-empted by red edge(s) "
                    f"{[str(r) for r in reds]} and the commitment is not a persona"
                )
        elif rule is Rule.CONJUNCTION_FRINGE:
            if not self.rule2_applicable(edge):
                raise ReductionError(
                    f"Rule #2 inapplicable: {edge.conjunction.label} is not a fringe node"
                )
        else:  # pragma: no cover - enum exhausted
            raise ReductionError(f"unknown rule {rule!r}")

        self.remaining.discard(edge)
        commitment_done = None
        conjunction_done = None
        if not self._edges_of_commitment(edge.commitment):
            commitment_done = edge.commitment
            self._commitment_order.append(edge.commitment)
        if not self._edges_of_conjunction(edge.conjunction):
            conjunction_done = edge.conjunction
            self._conjunction_order.append(edge.conjunction)
        step = ReductionStep(
            index=len(self.steps) + 1,
            rule=rule,
            edge=edge,
            via_persona=via_persona,
            commitment_disconnected=commitment_done,
            conjunction_disconnected=conjunction_done,
        )
        self.steps.append(step)
        return step

    def apply_edge(self, edge: SGEdge) -> ReductionStep:
        ok, _ = self.rule1_applicable(edge)
        if ok:
            return self.apply(Rule.COMMITMENT_FRINGE, edge)
        if self.rule2_applicable(edge):
            return self.apply(Rule.CONJUNCTION_FRINGE, edge)
        raise ReductionError(f"no reduction rule applies to {edge}")

    # -------------------------------------------------------------------- run

    def run(
        self,
        strategy: str = "fifo",
        rng: random.Random | None = None,
        chooser: Callable[[list[tuple[Rule, SGEdge, bool]]], tuple[Rule, SGEdge, bool]]
        | None = None,
    ) -> ReductionTrace:
        if strategy == "random" and rng is None and chooser is None:
            rng = random.Random(0)
        while True:
            options = self.applicable()
            if not options:
                break
            if chooser is not None:
                choice = chooser(options)
                if choice not in options:
                    raise ReductionError("chooser returned an inapplicable step")
            elif strategy == "fifo":
                choice = options[0]
            elif strategy == "lifo":
                choice = options[-1]
            elif strategy == "random":
                assert rng is not None
                choice = rng.choice(options)
            else:
                raise ReductionError(f"unknown reduction strategy {strategy!r}")
            rule, edge, _ = choice
            self.apply(rule, edge)
        return self.trace()

    def trace(self) -> ReductionTrace:
        return ReductionTrace(
            graph=self.graph,
            steps=tuple(self.steps),
            remaining=frozenset(self.remaining),
            commitment_order=tuple(self._commitment_order),
            conjunction_order=tuple(self._conjunction_order),
            blockages=tuple(self._diagnose()),
        )

    def _diagnose(self) -> list[Blockage]:
        blockages: list[Blockage] = []
        for edge in sorted(self.remaining):
            if not self.is_commitment_fringe(edge.commitment):
                continue
            reds = self.blocking_red_edges(edge)
            persona_waived = (
                self.enable_persona_clause and edge.commitment in self.graph.personas
            )
            if reds and not persona_waived:
                blockages.append(Blockage(edge=edge, blocking_red=reds))
        return blockages


def reference_reduce(
    graph: SequencingGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> ReductionTrace:
    """One-call reduction through the naive oracle engine."""
    engine = ReferenceReductionEngine(graph, enable_persona_clause=enable_persona_clause)
    return engine.run(strategy=strategy, rng=rng)


def replay_reference(
    graph: SequencingGraph, script: Iterable[tuple[Rule, SGEdge]]
) -> ReductionTrace:
    """Replay an explicit sequence of ``(rule, edge)`` steps.

    Raises :class:`ReductionError` on the first illegal step.  The steps
    need not exhaust the graph; the returned trace reflects whatever
    remains.
    """
    engine = ReferenceReductionEngine(graph)
    for rule, edge in script:
        engine.apply(rule, edge)
    return engine.trace()
