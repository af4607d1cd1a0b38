"""Problem rebuilders: the shared machinery of metamorphic transforms.

Every metamorphic relation (and the shrinker) needs to produce a *variant*
of an exchange problem — same semantics under some mapping, or a strict
sub-problem.  :class:`InteractionGraph` is built incrementally and its edge
insertion order is load-bearing (deterministic reduction strategies walk it),
so variants are produced by decomposing a problem into per-exchange
:class:`ExchangeRecord` rows and re-assembling a fresh graph from a
transformed row list.

Only pairwise exchanges are supported — the §9 multi-party extension has no
formatter/translation coverage yet, and every workload the fuzzer generates
is pairwise.  :func:`exchange_records` raises :class:`ConformanceError` on
multi-party input so callers can skip rather than mis-transform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.interaction import InteractionGraph
from repro.core.items import Document, Item, Money, cents
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.core.trust import TrustRelation
from repro.errors import ReproError


class ConformanceError(ReproError):
    """A conformance transform was asked for something it cannot express."""


@dataclass(frozen=True)
class ExchangeRecord:
    """One mediated pairwise exchange, flattened for re-assembly.

    ``members`` lists ``(principal, provides, tag)`` in edge insertion
    order; ``priority`` holds member indices whose edges are red-marked.
    """

    trusted: Party
    members: tuple[tuple[Party, Item, str], ...]
    priority: tuple[int, ...]
    deadline: float | None = None


def exchange_records(problem: ExchangeProblem) -> list[ExchangeRecord]:
    """Decompose *problem* into per-exchange records (insertion order)."""
    graph = problem.interaction
    edges_at = graph.edges_by_party()
    red = graph.priority_edges
    records: list[ExchangeRecord] = []
    for trusted in graph.trusted_components:
        edges = edges_at[trusted]
        if len(edges) != 2:
            raise ConformanceError(
                f"{trusted.name!r} mediates {len(edges)} parties; conformance "
                "transforms cover pairwise exchanges only"
            )
        members = tuple((e.principal, e.provides, e.tag) for e in edges)
        priority = tuple(i for i, e in enumerate(edges) if e in red)
        records.append(
            ExchangeRecord(
                trusted=trusted,
                members=members,
                priority=priority,
                deadline=graph.deadline_of(trusted),
            )
        )
    return records


def assemble(
    name: str,
    records: list[ExchangeRecord],
    trust_pairs: tuple[tuple[Party, Party], ...] = (),
) -> ExchangeProblem:
    """Build a fresh, validated problem from exchange records.

    Principals register in first-appearance order over *records*; trust
    pairs naming parties absent from the records are silently dropped (the
    shrinker relies on this when it removes a party's last exchange).
    """
    graph = InteractionGraph()
    seen: set[str] = set()
    for record in records:
        for principal, _, _ in record.members:
            if principal.name not in seen:
                seen.add(principal.name)
                graph.add_principal(principal)
    for record in records:
        graph.add_trusted(record.trusted)
        edges = [
            graph.add_edge(principal, record.trusted, provides, tag=tag)
            for principal, provides, tag in record.members
        ]
        for index in record.priority:
            graph.mark_priority(edges[index])
        if record.deadline is not None:
            graph.set_deadline(record.trusted, record.deadline)
    present = {p.name for p in graph.parties}
    trust = TrustRelation.of(
        (a, b)
        for a, b in trust_pairs
        if a.name in present and b.name in present
    )
    return ExchangeProblem(name, graph, trust).validate()


def _relabel_item(item: Item) -> Item:
    """A consistent, collision-free renaming of an item's label.

    Documents get a ``rl`` prefix on the base label (and tag); money keeps
    its amount (amounts are semantics, labels are not) but gets its tag
    renamed.  Prefixing cannot collide: all originals share the transform.
    """
    if isinstance(item, Money):
        if "#" in item.label:
            _, tag = item.label.split("#", 1)
            return cents(item.cents, tag=f"rl{tag}")
        return cents(item.cents)
    if "#" in item.label:
        base, tag = item.label.split("#", 1)
        return Document(f"rl{base}#rl{tag}")
    return Document(f"rl{item.label}")


def relabel_problem(problem: ExchangeProblem) -> ExchangeProblem:
    """A bijective renaming of every party and document label.

    Feasibility, step counts, and the residual-edge count are all invariant
    under relabeling — the reduction rules only look at graph structure.
    """
    mapped: dict[str, Party] = {}

    def party(p: Party) -> Party:
        if p.name not in mapped:
            mapped[p.name] = Party(f"RL{p.name}", p.role)
        return mapped[p.name]

    records = [
        ExchangeRecord(
            trusted=party(r.trusted),
            members=tuple(
                (party(p), _relabel_item(item), tag) for p, item, tag in r.members
            ),
            priority=r.priority,
            deadline=r.deadline,
        )
        for r in exchange_records(problem)
    ]
    trust_pairs = tuple((party(a), party(b)) for a, b in problem.trust)
    return assemble(f"{problem.name}+relabel", records, trust_pairs)


def permute_exchanges(
    problem: ExchangeProblem, rng: random.Random
) -> ExchangeProblem:
    """Shuffle exchange insertion order and swap member order per exchange.

    The sequencing graph this builds is structurally identical — only the
    deterministic strategies' tie-breaking order changes — so by §4.2
    confluence the verdict and the residual-edge count must not move.
    """
    records = exchange_records(problem)
    rng.shuffle(records)
    permuted: list[ExchangeRecord] = []
    for record in records:
        if rng.random() < 0.5:
            order = tuple(reversed(range(len(record.members))))
            members = tuple(record.members[i] for i in order)
            priority = tuple(sorted(order.index(i) for i in record.priority))
            record = ExchangeRecord(
                trusted=record.trusted,
                members=members,
                priority=priority,
                deadline=record.deadline,
            )
        permuted.append(record)
    trust_pairs = tuple(problem.trust)
    return assemble(f"{problem.name}+permuted", permuted, trust_pairs)


def problems_equivalent(a: ExchangeProblem, b: ExchangeProblem) -> bool:
    """Structural equality up to declaration order (round-trip check)."""

    def signature(p: ExchangeProblem) -> tuple[object, ...]:
        graph = p.interaction
        return (
            frozenset((q.name, q.role) for q in graph.principals),
            frozenset(t.name for t in graph.trusted_components),
            frozenset(
                (e.principal.name, e.trusted.name, e.provides.label,
                 getattr(e.provides, "cents", None), e.tag)
                for e in graph.edges
            ),
            frozenset(
                (e.principal.name, e.trusted.name, e.tag)
                for e in graph.priority_edges
            ),
            frozenset(
                (t.name, graph.deadline_of(t))
                for t in graph.trusted_components
                if graph.deadline_of(t) is not None
            ),
            frozenset((x.name, y.name) for x, y in p.trust),
        )

    return signature(a) == signature(b)
