"""Render an :class:`ExchangeProblem` back to specification text.

``format_problem`` is the inverse of :func:`repro.spec.compiler.load` up to
whitespace: compiling the rendered text yields a problem with identical
parties, edges, priorities, and trust edges (the round-trip property tests
rely on this).
"""

from __future__ import annotations

from repro.core.interaction import InteractionGraph
from repro.core.items import Item, Money
from repro.core.parties import Role
from repro.core.problem import ExchangeProblem
from repro.errors import SpecError

_KIND_OF_ROLE = {
    Role.CONSUMER: "consumer",
    Role.BROKER: "broker",
    Role.PRODUCER: "producer",
}


def _split_tag(label: str) -> tuple[str, str]:
    """Split an item label into (base, tag) on the '#' convention."""
    if "#" in label:
        base, tag = label.split("#", 1)
        return base, tag
    return label, ""


def _clause_for(item: Item) -> str:
    if isinstance(item, Money):
        _, tag = _split_tag(item.label)
        dollars = item.cents // 100
        hundredths = item.cents % 100
        clause = f"pays ${dollars}.{hundredths:02d}"
    else:
        base, tag = _split_tag(item.label)
        clause = f"gives {base}"
    if tag:
        clause += f" tag {tag}"
    return clause


def _expects_for(item: Item) -> str:
    """Render an ``expects`` annotation for *item*."""
    if isinstance(item, Money):
        _, tag = _split_tag(item.label)
        text = f"${item.cents // 100}.{item.cents % 100:02d}"
    else:
        base, tag = _split_tag(item.label)
        text = base
    if tag:
        text += f" tag {tag}"
    return text


def format_problem(problem: ExchangeProblem) -> str:
    """Render *problem* as specification text."""
    graph: InteractionGraph = problem.interaction
    lines: list[str] = [f'problem "{problem.name}"', ""]

    for principal in graph.principals:
        kind = _KIND_OF_ROLE.get(principal.role)
        if kind is None:  # pragma: no cover - graph invariants forbid this
            raise SpecError(f"{principal.name} has non-principal role {principal.role}")
        lines.append(f"principal {kind} {principal.name}")
    for component in graph.trusted_components:
        lines.append(f"trusted {component.name}")
    lines.append("")

    edges_at = graph.edges_by_party()
    for component in graph.trusted_components:
        header = f"exchange via {component.name}"
        deadline = graph.deadline_of(component)
        if deadline is not None:
            header += f" deadline {int(deadline)}"
        lines.append(header + " {")
        edges = edges_at[component]
        explicit = len(edges) > 2
        for edge in edges:
            clause = f"    {edge.principal.name} {_clause_for(edge.provides)}"
            if explicit:
                clause += f" expects {_expects_for(graph.expects(edge))}"
            lines.append(clause)
        lines.append("}")
    lines.append("")

    emitted_any = False
    priority = graph.priority_edges
    for edge in graph.edges:
        if edge in priority:
            lines.append(f"priority {edge.principal.name} via {edge.trusted.name}")
            emitted_any = True
    for truster, trustee in problem.trust:
        lines.append(f"trust {truster.name} -> {trustee.name}")
        emitted_any = True
    if not emitted_any:
        lines.pop()  # drop the trailing blank separator
    return "\n".join(lines).rstrip() + "\n"
