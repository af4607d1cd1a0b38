"""Compile a validated specification into an :class:`ExchangeProblem`.

The mapping is direct: principal/trusted declarations register parties,
each exchange clause becomes one interaction edge whose ``provides`` is a
:class:`Money` (PAYS) or :class:`Document` (GIVES), priority statements mark
red edges, and trust statements populate the :class:`TrustRelation`.
"""

from __future__ import annotations

from repro.core.interaction import InteractionEdge, InteractionGraph
from repro.core.items import Document, Item, cents
from repro.core.parties import Party, Role
from repro.core.problem import ExchangeProblem
from repro.core.trust import TrustRelation
from repro.errors import SpecSemanticError
from repro.spec.analyzer import analyze
from repro.spec.ast import ClauseKind, MemberClause, PrincipalKind, SpecFile
from repro.spec.parser import parse

_ROLE_OF_KIND = {
    PrincipalKind.CONSUMER: Role.CONSUMER,
    PrincipalKind.BROKER: Role.BROKER,
    PrincipalKind.PRODUCER: Role.PRODUCER,
}
# Bound once: reading ``Role.TRUSTED`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_TRUSTED = Role.TRUSTED
_PAYS = ClauseKind.PAYS


def _clause_item(clause: MemberClause) -> Item:
    """The Item a member clause deposits."""
    if clause.kind is _PAYS:
        assert clause.amount_cents is not None
        return cents(clause.amount_cents, tag=clause.tag)
    assert clause.item is not None
    label = f"{clause.item}#{clause.tag}" if clause.tag else clause.item
    return Document(label)


def _expected_item(clause: MemberClause) -> Item:
    """The Item named by a clause's ``expects`` annotation."""
    if clause.expects_amount_cents is not None:
        return cents(clause.expects_amount_cents, tag=clause.expects_tag)
    assert clause.expects_item is not None
    label = (
        f"{clause.expects_item}#{clause.expects_tag}"
        if clause.expects_tag
        else clause.expects_item
    )
    return Document(label)


def compile_spec(spec: SpecFile, validate: bool = True) -> ExchangeProblem:
    """Lower a (semantically valid) :class:`SpecFile` to an exchange problem.

    ``validate`` additionally runs the interaction graph's structural checks
    (pairwise trusted components etc.); disable it when compiling §9
    multi-party extensions for separate validation.
    """
    analyze(spec)

    parties: dict[str, Party] = {}
    graph = InteractionGraph()
    for decl in spec.principals:
        party = Party(decl.name, _ROLE_OF_KIND[decl.kind])
        parties[decl.name] = party
        graph.add_principal(party)
    for decl in spec.trusted:
        party = Party(decl.name, _TRUSTED)
        parties[decl.name] = party
        graph.add_trusted(party)

    for exchange in spec.exchanges:
        via = parties[exchange.via]
        deposits = {
            clause.party: _clause_item(clause) for clause in exchange.clauses
        }
        if any(clause.has_expects for clause in exchange.clauses):
            members = [
                (parties[clause.party], deposits[clause.party])
                for clause in exchange.clauses
            ]
            entitlements = {
                parties[clause.party]: _expected_item(clause)
                for clause in exchange.clauses
            }
            graph.add_multi_exchange(via, members, entitlements=entitlements)
        else:
            for clause in exchange.clauses:
                graph.add_edge(parties[clause.party], via, deposits[clause.party])
        if exchange.deadline is not None:
            graph.set_deadline(via, float(exchange.deadline))

    # Each priority names a (principal, via) pair; resolve every pair in one
    # pass to the edge find_edge would return (the first; all are untagged).
    edge_of: dict[tuple[str, str], InteractionEdge] = {}
    for edge in graph.edges:
        edge_of.setdefault((edge.principal.name, edge.trusted.name), edge)
    for priority in spec.priorities:
        graph.mark_priority(edge_of[priority.principal, priority.via])

    trust = TrustRelation()
    for decl in spec.trusts:
        trust.add(parties[decl.truster], parties[decl.trustee])

    problem = ExchangeProblem(spec.name, graph, trust)
    if validate:
        problem.validate()
    return problem


def load(source: str, validate: bool = True) -> ExchangeProblem:
    """Parse, analyze, and compile specification text in one call."""
    return compile_spec(parse(source), validate=validate)


def load_file(path: str, validate: bool = True) -> ExchangeProblem:
    """Load a specification from a file path (UTF-8, with or without a
    byte-order mark)."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            source = handle.read()
    except OSError as exc:
        raise SpecSemanticError(f"cannot read spec file {path!r}: {exc}") from exc
    return load(source, validate=validate)
