"""Interaction graphs (paper §3).

An interaction graph ``I = (P, T, E)`` records the parties to a distributed
transaction and which principal uses which trusted intermediary for one side
of an exchange.  The graph is bipartite: every edge joins a principal in *P*
to a trusted component in *T*.

This implementation enriches each edge with the *item the principal provides*
through that intermediary (a document or a payment), which is what the
sequencing machinery (§4), indemnity sizing (§6), and the simulator all need.
A trusted component with exactly two edges mediates one pairwise exchange:
each side provides its item and expects the counterpart's.  An edge is a
tuple of its fields (a validated ``NamedTuple``, built by
:data:`repro.records.new_record` once checked), so the dicts and sets keyed
by edges here and in every later stage hash and compare it in C.

Resale priorities (the third conjunction type of §4.1 — "a broker will commit
to obtain a document only if it has a committed buyer") are declared with
:meth:`InteractionGraph.mark_priority` on the *sell-side* edge and become red
edges in the sequencing graph.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.core.items import Item
from repro.core.parties import Party, require_principal, require_trusted
from repro.errors import GraphError
from repro.records import new_record


class _InteractionEdgeFields(NamedTuple):
    principal: Party
    trusted: Party
    provides: Item
    tag: str


class InteractionEdge(_InteractionEdgeFields):
    """One edge ``(principal, trusted)`` of the interaction graph.

    ``provides`` is the item the principal deposits with the trusted
    component for this exchange.  ``tag`` disambiguates parallel edges
    between the same pair (rare, but legal in the formalism).
    """

    __slots__ = ()

    def __new__(
        cls, principal: Party, trusted: Party, provides: Item, tag: str = ""
    ) -> InteractionEdge:
        require_principal(principal, "interaction edge")
        require_trusted(trusted, "interaction edge")
        return new_record(cls, (principal, trusted, provides, tag))

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``'consumer--t1'``."""
        suffix = f"#{self.tag}" if self.tag else ""
        return f"{self.principal.name}--{self.trusted.name}{suffix}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class InteractionGraph:
    """The bipartite graph of principals and trusted components (§3).

    Build it incrementally with :meth:`add_principal`, :meth:`add_trusted`,
    and :meth:`add_edge`, then call :meth:`validate`.  The typical shortcut
    for a whole mediated exchange is :meth:`add_exchange`, which adds the
    two edges of a pairwise swap through one intermediary.
    """

    def __init__(self) -> None:
        self._principals: dict[str, Party] = {}
        self._trusted: dict[str, Party] = {}
        # Insertion-ordered (a dict used as an ordered set): the order is the
        # node order of deterministic reduction strategies, and membership
        # tests stay O(1).
        self._edges: dict[InteractionEdge, None] = {}
        self._priority: set[InteractionEdge] = set()
        # §9 extension: explicit entitlement maps for trusted components that
        # mediate more than two parties (who receives what on completion).
        self._multi_entitlements: dict[Party, dict[Party, Item]] = {}
        # §2.2: optional per-exchange deadlines (how long deposits are held
        # before the trusted component reverses them).
        self._deadlines: dict[Party, float] = {}

    # ------------------------------------------------------------------ build

    def add_principal(self, party: Party) -> Party:
        """Register a principal; re-adding the same party is a no-op."""
        require_principal(party, "add_principal")
        existing = self._principals.get(party.name)
        if existing is not None and existing != party:
            raise GraphError(f"conflicting principal registration for {party.name!r}")
        if party.name in self._trusted:
            raise GraphError(f"{party.name!r} is already registered as a trusted component")
        self._principals[party.name] = party
        return party

    def add_trusted(self, party: Party) -> Party:
        """Register a trusted component; re-adding the same party is a no-op."""
        require_trusted(party, "add_trusted")
        if party.name in self._principals:
            raise GraphError(f"{party.name!r} is already registered as a principal")
        self._trusted[party.name] = party
        return party

    def add_edge(
        self, principal: Party, trusted: Party, provides: Item, tag: str = ""
    ) -> InteractionEdge:
        """Add an edge: *principal* deposits *provides* with *trusted*."""
        if principal.name not in self._principals:
            raise GraphError(f"unknown principal {principal.name!r}; add_principal it first")
        if trusted.name not in self._trusted:
            raise GraphError(
                f"unknown trusted component {trusted.name!r}; add_trusted it first"
            )
        edge = InteractionEdge(principal, trusted, provides, tag)
        if edge in self._edges:
            raise GraphError(
                f"duplicate interaction edge {edge.label!r} (use tag= to disambiguate)"
            )
        self._edges[edge] = None
        return edge

    def add_exchange(
        self,
        left: Party,
        left_provides: Item,
        right: Party,
        right_provides: Item,
        via: Party,
        tag: str = "",
    ) -> tuple[InteractionEdge, InteractionEdge]:
        """Add both edges of a pairwise exchange mediated by *via*.

        *left* deposits *left_provides* and expects *right_provides*, and
        symmetrically for *right*.
        """
        return (
            self.add_edge(left, via, left_provides, tag=tag),
            self.add_edge(right, via, right_provides, tag=tag),
        )

    def add_multi_exchange(
        self,
        via: Party,
        members: "Sequence[tuple[Party, Item]]",
        entitlements: "Mapping[Party, Item] | None" = None,
        tag: str = "",
    ) -> tuple[InteractionEdge, ...]:
        """Add a k-party exchange mediated by one trusted component (§9).

        The paper's core setting is pairwise ("When an agent is trusted by
        more than two parties, additional distributed exchanges may become
        feasible, and our results should be extended to cover this case");
        this extension covers it.  *members* lists each principal and its
        deposit; *entitlements* says what each principal receives on
        completion (default: a ring — member *i* receives member *i−1*'s
        deposit), and must give each deposit to exactly one other member.
        Validate with ``allow_multiparty=True``.
        """
        if len(members) < 2:
            raise GraphError("a multi-party exchange needs at least two members")
        if entitlements is None:
            entitlements = {
                party: members[i - 1][1] for i, (party, _) in enumerate(members)
            }
        member_parties = [party for party, _ in members]
        if set(entitlements) != set(member_parties):
            raise GraphError(
                "entitlements must cover exactly the members of the exchange"
            )
        provided = {item for _, item in members}
        for party, item in entitlements.items():
            if item not in provided:
                raise GraphError(
                    f"entitlement {item!s} for {party.name} was not deposited "
                    "by any member"
                )
            if dict(members).get(party) == item:
                raise GraphError(
                    f"{party.name} would receive back its own deposit {item!s}"
                )
        if len(set(entitlements.values())) != len(members):
            raise GraphError("each deposit must go to exactly one member")
        edges = tuple(
            self.add_edge(party, via, item, tag=tag) for party, item in members
        )
        self._multi_entitlements[via] = dict(entitlements)
        return edges

    def set_deadline(self, trusted: Party, deadline: float) -> None:
        """Set how long *trusted* holds deposits before reversing (§2.2)."""
        if trusted.name not in self._trusted:
            raise GraphError(f"unknown trusted component {trusted.name!r}")
        if not deadline > 0:  # NaN is not positive either
            raise GraphError("deadlines must be positive")
        self._deadlines[trusted] = deadline

    def deadline_of(self, trusted: Party) -> float | None:
        """The deadline set for *trusted*, or None."""
        return self._deadlines.get(trusted)

    def mark_priority(self, edge: InteractionEdge) -> None:
        """Declare that *edge*'s commitment must precede the principal's others.

        This yields a red edge at the principal's conjunction node in the
        sequencing graph (the resale pattern: secure the buyer before buying).
        """
        if edge not in self._edges:
            raise GraphError(f"cannot mark unknown edge {edge.label!r} as priority")
        self._priority.add(edge)

    # ------------------------------------------------------------------ query

    @property
    def principals(self) -> tuple[Party, ...]:
        """All registered principals, in insertion order."""
        return tuple(self._principals.values())

    @property
    def trusted_components(self) -> tuple[Party, ...]:
        """All registered trusted components, in insertion order."""
        return tuple(self._trusted.values())

    @property
    def parties(self) -> tuple[Party, ...]:
        """All parties (principals then trusted components)."""
        return self.principals + self.trusted_components

    @property
    def edges(self) -> tuple[InteractionEdge, ...]:
        """All edges, in insertion order (this order is the node order used
        by deterministic reduction strategies)."""
        return tuple(self._edges)

    @property
    def priority_edges(self) -> frozenset[InteractionEdge]:
        """Edges whose commitments are priority (red) at their principal."""
        return frozenset(self._priority)

    def edges_by_party(self) -> dict[Party, list[InteractionEdge]]:
        """Every party's incident edges (either endpoint), in insertion order.

        Built in one pass on each call: code that visits every party or
        every edge groups once here instead of calling :meth:`edges_at` (a
        scan of all edges) per party.
        """
        grouped: dict[Party, list[InteractionEdge]] = {p: [] for p in self.parties}
        for e in self._edges:
            grouped[e.principal].append(e)
            grouped[e.trusted].append(e)
        return grouped

    def entitlements(self) -> dict[InteractionEdge, Item]:
        """:meth:`expects` for every edge at once, in one pass.

        Raises :class:`GraphError` when a trusted component without an
        entitlement map does not mediate exactly two parties.
        """
        edges_at = self.edges_by_party()
        return {e: self._entitled(e, edges_at[e.trusted]) for e in self._edges}

    def original_holdings(self) -> list[InteractionEdge]:
        """The document edges whose principal holds the document from the start.

        A principal starts out holding a document it provides unless another
        of its own edges is entitled to that document (then it is a reseller
        that acquires the good mid-exchange).  Money is not tracked here.
        Edges come in insertion order.
        """
        entitled = self.entitlements()
        incoming = Counter((e.principal, item) for e, item in entitled.items())
        held: list[InteractionEdge] = []
        for e in self._edges:
            if e.provides.is_money:
                continue
            own = 1 if entitled[e] == e.provides else 0  # e is not "another" edge
            if incoming[e.principal, e.provides] == own:
                held.append(e)
        return held

    def edges_at(self, party: Party) -> tuple[InteractionEdge, ...]:
        """All edges incident to *party* (either endpoint)."""
        return tuple(e for e in self._edges if party in (e.principal, e.trusted))

    def degree(self, party: Party) -> int:
        """Number of edges incident to *party*."""
        return len(self.edges_at(party))

    def internal_nodes(self) -> tuple[Party, ...]:
        """Parties with more than one edge — they get conjunction nodes (§4.1)."""
        degrees: dict[Party, int] = {}
        for e in self._edges:
            degrees[e.principal] = degrees.get(e.principal, 0) + 1
            degrees[e.trusted] = degrees.get(e.trusted, 0) + 1
        return tuple(p for p in self.parties if degrees.get(p, 0) > 1)

    def counterparts(self, edge: InteractionEdge) -> tuple[InteractionEdge, ...]:
        """The other edge(s) at *edge*'s trusted component."""
        return tuple(e for e in self.edges_at(edge.trusted) if e != edge)

    def expects(self, edge: InteractionEdge) -> Item:
        """What *edge*'s principal receives if the mediated exchange completes.

        Pairwise exchanges swap the two deposits; multi-party exchanges
        (added via :meth:`add_multi_exchange`) consult their entitlement map.
        """
        return self._entitled(edge, self.edges_at(edge.trusted))

    def _entitled(self, edge: InteractionEdge, at_trusted: Sequence[InteractionEdge]) -> Item:
        """:meth:`expects`, given every edge at *edge*'s trusted component."""
        entitlements = self._multi_entitlements.get(edge.trusted)
        if entitlements is not None:
            return entitlements[edge.principal]
        if len(at_trusted) != 2:
            raise GraphError(
                f"trusted component {edge.trusted.name!r} mediates {len(at_trusted)} "
                "parties without an entitlement map; use add_multi_exchange"
            )
        first, second = at_trusted
        return second.provides if first == edge else first.provides

    def find_edge(self, principal_name: str, trusted_name: str, tag: str = "") -> InteractionEdge:
        """Look up an edge by endpoint names (raises if absent)."""
        for edge in self._edges:
            if (
                edge.principal.name == principal_name
                and edge.trusted.name == trusted_name
                and edge.tag == tag
            ):
                return edge
        raise GraphError(f"no interaction edge {principal_name}--{trusted_name}#{tag}")

    def shared_intermediaries(self, a: Party, b: Party) -> tuple[Party, ...]:
        """Trusted components that both *a* and *b* have an edge to."""
        at_a = {e.trusted for e in self._edges if e.principal == a}
        at_b = {e.trusted for e in self._edges if e.principal == b}
        return tuple(t for t in self.trusted_components if t in at_a and t in at_b)

    # --------------------------------------------------------------- validate

    def validate(self, allow_multiparty: bool = False) -> None:
        """Check structural invariants; raise :class:`GraphError` on failure.

        * the graph is bipartite by construction, but every trusted component
          must mediate at least two parties, and exactly two unless
          *allow_multiparty* (multi-party trusted agents are the paper's §9
          future work, supported here as an extension);
        * every principal has at least one edge;
        * the two sides of a pairwise exchange must provide distinct items.
        """
        incident: dict[Party, list[InteractionEdge]] = {p: [] for p in self.parties}
        for e in self._edges:
            incident[e.principal].append(e)
            incident[e.trusted].append(e)
        for t in self.trusted_components:
            degree = len(incident[t])
            if degree < 2:
                raise GraphError(
                    f"trusted component {t.name!r} has degree {degree}; it must "
                    "mediate an exchange between at least two principals"
                )
            if degree > 2 and not allow_multiparty:
                raise GraphError(
                    f"trusted component {t.name!r} mediates {degree} parties; pass "
                    "allow_multiparty=True to permit this §9 extension"
                )
            if degree == 2:
                left, right = incident[t]
                if left.provides == right.provides:
                    raise GraphError(
                        f"both sides of the exchange at {t.name!r} provide "
                        f"{left.provides!s}; an exchange must swap distinct items"
                    )
        for p in self.principals:
            if not incident[p]:
                raise GraphError(f"principal {p.name!r} participates in no exchange")

    # ------------------------------------------------------------------ misc

    def copy(self) -> "InteractionGraph":
        """A structural copy sharing the (immutable) parties and edges."""
        clone = InteractionGraph()
        clone._principals = dict(self._principals)
        clone._trusted = dict(self._trusted)
        clone._edges = dict(self._edges)
        clone._priority = set(self._priority)
        clone._multi_entitlements = {
            t: dict(m) for t, m in self._multi_entitlements.items()
        }
        clone._deadlines = dict(self._deadlines)
        return clone

    def __str__(self) -> str:
        lines = [
            f"InteractionGraph(principals={[p.name for p in self.principals]}, "
            f"trusted={[t.name for t in self.trusted_components]})"
        ]
        for edge in self._edges:
            marker = " [priority]" if edge in self._priority else ""
            lines.append(
                f"  {edge.principal.name} --({edge.provides})--> {edge.trusted.name}{marker}"
            )
        return "\n".join(lines)


def build_interaction_graph(
    principals: Iterable[Party],
    trusted: Iterable[Party],
    exchanges: Iterable[tuple[Party, Item, Party, Item, Party]],
) -> InteractionGraph:
    """Convenience constructor from a list of mediated exchanges.

    Each exchange is ``(left, left_provides, right, right_provides, via)``.
    """
    graph = InteractionGraph()
    for p in principals:
        graph.add_principal(p)
    for t in trusted:
        graph.add_trusted(t)
    for left, left_item, right, right_item, via in exchanges:
        graph.add_exchange(left, left_item, right, right_item, via)
    return graph
