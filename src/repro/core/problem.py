"""The top-level handle for one distributed commerce transaction.

:class:`ExchangeProblem` bundles an interaction graph (§3) with a direct-trust
relation (§4.2.3) and offers the full pipeline as methods: derive the
sequencing graph, reduce it, test feasibility, and recover the execution
sequence.  It is the object the spec-language compiler produces and the
object every example and benchmark starts from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.execution import ExecutionSequence, recover_execution
from repro.core.feasibility import FeasibilityVerdict, check_feasibility
from repro.core.interaction import InteractionGraph
from repro.core.reduction import ReductionTrace, reduce_graph
from repro.core.sequencing import SequencingGraph
from repro.core.trust import TrustRelation


@dataclass
class ExchangeProblem:
    """An exchange specification ready for analysis.

    ``name`` identifies the problem in reports; ``interaction`` carries the
    parties, mediated exchanges, and priority (resale) markings; ``trust``
    carries direct principal-to-principal trust.

    Every method reduces in the ``fifo`` order: the verdict is the same in
    every order (DESIGN.md §11), and the plan and protocol derived from it
    are pinned in that one.  To reduce in another order, call
    :func:`~repro.core.reduction.reduce_graph` on :meth:`sequencing_graph`.
    """

    name: str
    interaction: InteractionGraph
    trust: TrustRelation = field(default_factory=TrustRelation)

    def validate(self, allow_multiparty: bool = False) -> "ExchangeProblem":
        """Validate the interaction graph; returns self for chaining."""
        self.interaction.validate(allow_multiparty=allow_multiparty)
        return self

    def sequencing_graph(self) -> SequencingGraph:
        """Mechanically derive the sequencing graph (§4.1)."""
        return SequencingGraph.from_interaction(self.interaction, self.trust)

    def reduce(self) -> ReductionTrace:
        """Reduce the sequencing graph greedily (§4.2)."""
        return reduce_graph(self.sequencing_graph())

    def feasibility(self, enable_persona_clause: bool = True) -> FeasibilityVerdict:
        """The §4.2.4 feasibility verdict (optionally with §4.2.3 ablated)."""
        return check_feasibility(
            self.interaction, self.trust, enable_persona_clause=enable_persona_clause
        )

    def execution_sequence(self) -> ExecutionSequence:
        """The §5 execution sequence (raises if not shown feasible)."""
        return recover_execution(self.reduce())

    def with_trust(self, truster_name: str, trustee_name: str) -> "ExchangeProblem":
        """A copy with one extra direct-trust edge (for §4.2.3 variants)."""
        by_name = {p.name: p for p in self.interaction.parties}
        new_trust = self.trust.copy()
        new_trust.add(by_name[truster_name], by_name[trustee_name])
        return ExchangeProblem(
            name=f"{self.name}+trust({truster_name}->{trustee_name})",
            interaction=self.interaction,
            trust=new_trust,
        )

    def copy(self) -> "ExchangeProblem":
        """A deep-enough copy: shared immutable edges, fresh mutable state."""
        return ExchangeProblem(
            name=self.name,
            interaction=self.interaction.copy(),
            trust=self.trust.copy(),
        )
