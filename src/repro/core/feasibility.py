"""Feasibility verdicts (paper §4.2.4).

The objective test is trivial — a fully reduced graph is feasible iff no
edges remain — but callers usually want more: the trace, the impasse
diagnosis, and (for infeasible exchanges) hints about what would unblock the
transaction.  :class:`FeasibilityVerdict` packages all of that, and
:func:`check_feasibility` is the one-call entry point from an interaction
graph or a sequencing graph.

Note the paper's caveat: the test is sound but not known to be complete —
"If the reduced graph does not pass the feasibility test, then no
determination can be made by this process."  The verdict therefore
distinguishes ``FEASIBLE`` from ``NOT_SHOWN_FEASIBLE`` rather than claiming
impossibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.interaction import InteractionGraph
from repro.core.reduction import Blockage, ReductionTrace, reduce_graph
from repro.core.sequencing import SequencingGraph
from repro.core.trust import TrustRelation


class Verdict(enum.Enum):
    """Outcome of the §4.2.4 test."""

    FEASIBLE = "feasible"
    NOT_SHOWN_FEASIBLE = "not-shown-feasible"


@dataclass(frozen=True)
class FeasibilityVerdict:
    """The result of reducing an exchange's sequencing graph.

    ``verdict`` is :data:`Verdict.FEASIBLE` when every edge was eliminated;
    otherwise :data:`Verdict.NOT_SHOWN_FEASIBLE` (the paper's machinery never
    proves impossibility).  ``trace`` retains the full reduction record and
    ``blockages`` the red-edge impasse diagnosis.
    """

    verdict: Verdict
    trace: ReductionTrace

    @property
    def feasible(self) -> bool:
        """True iff the exchange was shown feasible."""
        return self.verdict is Verdict.FEASIBLE

    @property
    def blockages(self) -> tuple[Blockage, ...]:
        """Why the reduction stalled (empty when feasible)."""
        return self.trace.blockages

    @property
    def graph(self) -> SequencingGraph:
        """The sequencing graph that was reduced."""
        return self.trace.graph

    def explain(self) -> str:
        """A human-readable summary of the verdict."""
        if self.feasible:
            return (
                f"feasible: all {len(self.trace.steps)} edges eliminated; "
                f"commit order {[c.label for c in self.trace.commitment_order]}"
            )
        lines = [
            f"not shown feasible: {len(self.trace.remaining)} edge(s) remain "
            f"after {len(self.trace.steps)} reduction step(s)"
        ]
        lines.extend(f"  {blockage}" for blockage in self.blockages)
        if not self.blockages:
            lines.append("  (no fringe commitment is red-blocked; the graph is cyclic)")
        return "\n".join(lines)


def check_feasibility(
    graph: InteractionGraph | SequencingGraph,
    trust: TrustRelation | None = None,
    enable_persona_clause: bool = True,
) -> FeasibilityVerdict:
    """Reduce and classify an exchange, in the ``fifo`` order.

    Accepts either an :class:`InteractionGraph` (the sequencing graph is
    derived mechanically, §4.1) or a ready :class:`SequencingGraph` (in which
    case *trust* must already be baked into its personas).  The verdict is
    the same in every reduction order (DESIGN.md §11); a caller that wants
    another order's trace calls :func:`~repro.core.reduction.reduce_graph`.

    ``enable_persona_clause=False`` ablates Rule #1 clause 2 (§4.2.3), so
    trust-sensitivity studies can measure the clause's effect through the
    same entry point the rest of the pipeline uses.
    """
    if isinstance(graph, InteractionGraph):
        sequencing = SequencingGraph.from_interaction(graph, trust)
    else:
        sequencing = graph
    trace = reduce_graph(sequencing, enable_persona_clause=enable_persona_clause)
    verdict = Verdict.FEASIBLE if trace.feasible else Verdict.NOT_SHOWN_FEASIBLE
    return FeasibilityVerdict(verdict=verdict, trace=trace)
