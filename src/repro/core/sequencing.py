"""Sequencing graphs (paper §4.1).

A sequencing graph ``SG = (C, J, R, B)`` of an interaction graph
``I = (P, T, E)`` has:

* **C** — commitment nodes, one per interaction edge: a decision to commit to
  that pairwise exchange;
* **J** — conjunction nodes, one per *internal* node of *I* (degree > 1):
  "one commitment will be done only if they all are";
* **R** — red edges: the commitment must *precede* every other commitment of
  its conjunction (the broker's secure-the-buyer-first constraint);
* **B** — black edges: conjoined but unordered.

The graph is bipartite between commitments and conjunctions.  Construction
from an interaction graph is mechanical (:meth:`SequencingGraph.from_interaction`):
red edges come from the interaction graph's priority markings, and each
commitment records whether its trusted-agent role is *played by its own
principal* (a persona, §4.2.3), which enables clause 2 of Reduction Rule #1.

Commitments, conjunctions and edges are plain ``NamedTuple``s: the reduction
engine, the §5 execution recovery and the indemnity search key their indices
by these nodes, and a tuple hashes, compares and orders in C.
:meth:`SequencingGraph.from_interaction` builds them with
:data:`repro.records.new_record`, with no generated ``__new__`` frame.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

from repro.core.interaction import InteractionEdge, InteractionGraph
from repro.core.parties import Party
from repro.core.trust import TrustRelation
from repro.errors import GraphError
from repro.records import new_record


class CommitmentNode(NamedTuple):
    """A commitment node: one per interaction-graph edge (§4.1).

    The paper labels these with the two agents of the commitment, e.g.
    "Trusted2 → Producer"; :attr:`label` reproduces that.
    """

    edge: InteractionEdge

    @property
    def principal(self) -> Party:
        """The principal side of the commitment."""
        return self.edge.principal

    @property
    def trusted(self) -> Party:
        """The trusted-agent side of the commitment."""
        return self.edge.trusted

    @property
    def label(self) -> str:
        return f"{self.trusted.name}->{self.principal.name}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class ConjunctionNode(NamedTuple):
    """A conjunction node ``∧agent``: one per internal interaction node (§4.1)."""

    agent: Party

    @property
    def label(self) -> str:
        return f"AND({self.agent.name})"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class EdgeColor(enum.Enum):
    """Red edges impose precedence; black edges only conjoin (§4.1)."""

    RED = "red"
    BLACK = "black"

    # Singletons compared by identity: hash them by identity too, in C.
    __hash__ = object.__hash__


# Bound once: reading ``EdgeColor.RED`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_RED = EdgeColor.RED
_BLACK = EdgeColor.BLACK


class SGEdge(NamedTuple):
    """An edge ``(c, j)`` of the sequencing graph with its color."""

    commitment: CommitmentNode
    conjunction: ConjunctionNode
    color: EdgeColor

    @property
    def is_red(self) -> bool:
        return self.color is _RED

    def __str__(self) -> str:
        return f"{self.commitment.label} ={self.color.value}= {self.conjunction.label}"


class SequencingGraph:
    """The 4-tuple ``(C, J, R, B)`` plus persona annotations.

    Instances are immutable once built; the reduction engine
    (:mod:`repro.core.reduction`) operates on mutable *views* of the edge
    set, never on the graph itself, so one graph can be reduced many times
    (e.g. for the confluence property tests).
    """

    def __init__(
        self,
        commitments: Iterable[CommitmentNode],
        conjunctions: Iterable[ConjunctionNode],
        edges: Iterable[SGEdge],
        personas: Iterable[CommitmentNode] = (),
        interaction: InteractionGraph | None = None,
    ) -> None:
        self._commitments: tuple[CommitmentNode, ...] = tuple(commitments)
        self._conjunctions: tuple[ConjunctionNode, ...] = tuple(conjunctions)
        self._edges: tuple[SGEdge, ...] = tuple(edges)
        self._personas: frozenset[CommitmentNode] = frozenset(personas)
        self._interaction = interaction
        self._validate()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_interaction(
        cls,
        interaction: InteractionGraph,
        trust: TrustRelation | None = None,
    ) -> "SequencingGraph":
        """Mechanically build the sequencing graph of *interaction* (§4.1).

        *trust* supplies direct principal-to-principal trust; a commitment
        ``(p, t)`` is marked a *persona* when every other principal at *t*
        directly trusts *p* (then *p* plays the role of *t*, §4.2.3).
        """
        trust = trust if trust is not None else TrustRelation()
        commitments = {edge: new_record(CommitmentNode, (edge,)) for edge in interaction.edges}
        conjunctions = {
            party: new_record(ConjunctionNode, (party,))
            for party in interaction.internal_nodes()
        }
        priority = interaction.priority_edges
        edges: list[SGEdge] = []
        # Group interaction edges by trusted component once (insertion order
        # preserved) instead of rescanning all edges per commitment — this
        # keeps derivation O(E) for the large scaling workloads.
        at_trusted: dict[Party, list[InteractionEdge]] = {}
        for edge in interaction.edges:
            at_trusted.setdefault(edge.trusted, []).append(edge)
        for edge, commitment in commitments.items():
            for endpoint in (edge.principal, edge.trusted):
                conjunction = conjunctions.get(endpoint)
                if conjunction is None:
                    continue
                color = _RED if endpoint == edge.principal and edge in priority else _BLACK
                edges.append(new_record(SGEdge, (commitment, conjunction, color)))

        personas: list[CommitmentNode] = []
        for edge, commitment in commitments.items():
            others = [
                other.principal for other in at_trusted[edge.trusted] if other != edge
            ]
            if others and all(trust.trusts(q, edge.principal) for q in others):
                personas.append(commitment)

        return cls(
            commitments.values(),
            conjunctions.values(),
            edges,
            personas,
            interaction,
        )

    def _validate(self) -> None:
        commitment_set = set(self._commitments)
        conjunction_set = set(self._conjunctions)
        if len(commitment_set) != len(self._commitments):
            raise GraphError("duplicate commitment nodes")
        if len(conjunction_set) != len(self._conjunctions):
            raise GraphError("duplicate conjunction nodes")
        seen: set[tuple[CommitmentNode, ConjunctionNode]] = set()
        for edge in self._edges:
            if edge.commitment not in commitment_set:
                raise GraphError(f"edge references unknown commitment {edge.commitment.label!r}")
            if edge.conjunction not in conjunction_set:
                raise GraphError(f"edge references unknown conjunction {edge.conjunction.label!r}")
            key = (edge.commitment, edge.conjunction)
            if key in seen:
                raise GraphError(
                    f"parallel sequencing edges between {edge.commitment.label!r} "
                    f"and {edge.conjunction.label!r}"
                )
            seen.add(key)
        # Sorted so the reported persona does not depend on set iteration
        # order (PYTHONHASHSEED) when several annotations are invalid.
        for persona in sorted(self._personas, key=lambda node: node.label):
            if persona not in commitment_set:
                raise GraphError(f"persona annotation on unknown commitment {persona.label!r}")

    # ----------------------------------------------------------------- queries

    @property
    def commitments(self) -> tuple[CommitmentNode, ...]:
        """C — all commitment nodes, in interaction-edge order."""
        return self._commitments

    @property
    def conjunctions(self) -> tuple[ConjunctionNode, ...]:
        """J — all conjunction nodes."""
        return self._conjunctions

    @property
    def edges(self) -> tuple[SGEdge, ...]:
        """R ∪ B — all edges."""
        return self._edges

    @property
    def red_edges(self) -> tuple[SGEdge, ...]:
        """R — the priority edges."""
        return tuple(e for e in self._edges if e.is_red)

    @property
    def black_edges(self) -> tuple[SGEdge, ...]:
        """B — the unordered conjunction edges."""
        return tuple(e for e in self._edges if not e.is_red)

    @property
    def personas(self) -> frozenset[CommitmentNode]:
        """Commitments whose trusted-agent role is played by their principal."""
        return self._personas

    @property
    def interaction(self) -> InteractionGraph | None:
        """The interaction graph this sequencing graph was derived from."""
        return self._interaction

    def commitment_for(self, edge: InteractionEdge) -> CommitmentNode:
        """The commitment node of an interaction edge."""
        for commitment in self._commitments:
            if commitment.edge == edge:
                return commitment
        raise GraphError(f"no commitment for interaction edge {edge.label!r}")

    def conjunction_for(self, agent: Party) -> ConjunctionNode:
        """The conjunction node ``∧agent`` (raises if *agent* is not internal)."""
        for conjunction in self._conjunctions:
            if conjunction.agent == agent:
                return conjunction
        raise GraphError(f"no conjunction node for {agent.name!r}")

    def edges_of_commitment(self, commitment: CommitmentNode) -> tuple[SGEdge, ...]:
        """All edges incident to a commitment node."""
        return tuple(e for e in self._edges if e.commitment == commitment)

    def edges_of_conjunction(self, conjunction: ConjunctionNode) -> tuple[SGEdge, ...]:
        """All edges incident to a conjunction node."""
        return tuple(e for e in self._edges if e.conjunction == conjunction)

    def find_edge(self, commitment: CommitmentNode, conjunction: ConjunctionNode) -> SGEdge:
        """The unique edge between *commitment* and *conjunction*."""
        for edge in self._edges:
            if edge.commitment == commitment and edge.conjunction == conjunction:
                return edge
        raise GraphError(
            f"no sequencing edge between {commitment.label!r} and {conjunction.label!r}"
        )

    def with_edges_removed(self, removed: Iterable[SGEdge]) -> "SequencingGraph":
        """A new graph lacking *removed* edges (used for indemnity splits)."""
        removed_set = set(removed)
        unknown = removed_set - set(self._edges)
        if unknown:
            raise GraphError(f"cannot remove unknown edges: {sorted(str(e) for e in unknown)}")
        return SequencingGraph(
            self._commitments,
            self._conjunctions,
            (e for e in self._edges if e not in removed_set),
            self._personas,
            self._interaction,
        )

    def with_personas(self, extra: Iterable[CommitmentNode]) -> "SequencingGraph":
        """A new graph with additional persona annotations."""
        return SequencingGraph(
            self._commitments,
            self._conjunctions,
            self._edges,
            self._personas | set(extra),
            self._interaction,
        )

    def __str__(self) -> str:
        lines = [
            f"SequencingGraph(|C|={len(self._commitments)}, |J|={len(self._conjunctions)}, "
            f"|R|={len(self.red_edges)}, |B|={len(self.black_edges)})"
        ]
        lines.extend(f"  {edge}" for edge in self._edges)
        return "\n".join(lines)
