"""Semantic analysis of parsed specifications.

The parser guarantees shape; the analyzer guarantees meaning:

* every name is declared exactly once, and principal/trusted namespaces do
  not collide;
* exchange blocks reference declared parties, members are principals, the
  intermediary is trusted, and members of one exchange are distinct;
* the two sides of a pairwise exchange provide distinct items;
* an exchange's deadline is positive and small enough to hold as a float;
* a ``pays`` amount is small enough to hold as a float (reports print
  cents as dollars through one);
* ``priority`` statements reference an existing (principal, via) edge;
* ``trust`` statements reference declared parties, principals or trusted
  components (the §9 hierarchy of trust), and are not reflexive;
* every declared party participates in at least one exchange.

Errors are :class:`SpecSemanticError` carrying the offending position.

On top of the fatal checks sits a **non-fatal warning tier**
(:func:`analyze_warnings`) that flags declarations which are legal but
almost certainly not what the author meant:

* ``SPECW001`` — the declared priorities alone make the exchange trivially
  infeasible (a red-edge cycle): dropping every ``priority`` statement
  restores feasibility;
* ``SPECW002`` — a ``trust`` declaration affects no reduction: the
  step-for-step reduction trace is identical with and without it;
* ``SPECW003`` — a party is reachable only via warned declarations: every
  ``trust``/``priority`` statement naming it is inert.

Warnings are :class:`repro.staticcheck.model.Finding` objects with
``Severity.WARNING``, so user specs and our own Python source flow through
the same reporters (``repro lint`` accepts ``.exchange`` files directly).
"""

from __future__ import annotations

import dataclasses
import sys

from repro.errors import ReproError, SpecSemanticError
from repro.spec.ast import ClauseKind, ExchangeDecl, MemberClause, Position, SpecFile
from repro.staticcheck.model import Finding, Severity

# Bound once: reading ``ClauseKind.PAYS`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_PAYS = ClauseKind.PAYS


def analyze(spec: SpecFile) -> SpecFile:
    """Validate *spec*; returns it unchanged on success."""
    _check_declarations(spec)
    _check_exchanges(spec)
    _check_priorities(spec)
    _check_trusts(spec)
    _check_participation(spec)
    return spec


def _fail(message: str, position: Position) -> None:
    raise SpecSemanticError(message, line=position.line, column=position.column)


def _check_declarations(spec: SpecFile) -> None:
    seen: dict[str, object] = {}
    for decl in spec.principals:
        if decl.name in seen:
            _fail(f"duplicate declaration of {decl.name!r}", decl.position)
        seen[decl.name] = decl
    for decl in spec.trusted:
        if decl.name in seen:
            _fail(f"duplicate declaration of {decl.name!r}", decl.position)
        seen[decl.name] = decl


def _check_exchanges(spec: SpecFile) -> None:
    principals = spec.principal_names()
    trusted = spec.trusted_names()
    for exchange in spec.exchanges:
        if exchange.via not in trusted:
            _fail(
                f"exchange intermediary {exchange.via!r} is not a declared "
                "trusted component",
                exchange.position,
            )
        members: set[str] = set()
        signatures: set[tuple[object, ...]] = set()
        for clause in exchange.clauses:
            if clause.party not in principals:
                hint = (
                    " (it is a trusted component)" if clause.party in trusted else ""
                )
                _fail(
                    f"exchange member {clause.party!r} is not a declared principal{hint}",
                    clause.position,
                )
            if clause.party in members:
                _fail(
                    f"{clause.party!r} appears twice in the exchange via "
                    f"{exchange.via!r}",
                    clause.position,
                )
            members.add(clause.party)
            signature: tuple[object, ...]
            if clause.kind is _PAYS:
                # Reports print amounts as dollars through a float; an int
                # compares with a float exactly.
                amount = clause.amount_cents
                if amount is not None and amount > sys.float_info.max:
                    _fail("amount too large to hold as a float", clause.position)
                signature = ("pays", clause.amount_cents, clause.tag)
            else:
                signature = ("gives", clause.item, clause.tag)
            if signature in signatures:
                _fail(
                    "both sides of an exchange provide the same item; "
                    "use 'tag' to distinguish them or fix the spec",
                    clause.position,
                )
            signatures.add(signature)
        _check_expects(exchange)


def _check_expects(exchange: ExchangeDecl) -> None:
    """Validate ``expects`` annotations (§9 multi-party entitlement maps)."""
    if exchange.deadline is not None:
        if exchange.deadline <= 0:
            _fail("deadlines must be positive", exchange.position)
        try:
            float(exchange.deadline)  # the compiler's conversion
        except OverflowError:
            _fail("deadline too large to hold as a float", exchange.position)
    clauses = exchange.clauses
    with_expects = [c for c in clauses if c.has_expects]
    if not with_expects:
        if len(clauses) > 2:
            _fail(
                "an exchange with more than two members must annotate every "
                "clause with 'expects'",
                exchange.position,
            )
        return
    if len(with_expects) != len(clauses):
        missing = next(c for c in clauses if not c.has_expects)
        _fail(
            f"{missing.party!r} lacks an 'expects' annotation while other "
            "members of the exchange have one",
            missing.position,
        )

    def provision_signature(clause: MemberClause) -> tuple[object, ...]:
        if clause.kind is _PAYS:
            return ("pays", clause.amount_cents, clause.tag)
        return ("gives", clause.item, clause.tag)

    def expects_signature(clause: MemberClause) -> tuple[object, ...]:
        if clause.expects_amount_cents is not None:
            return ("pays", clause.expects_amount_cents, clause.expects_tag)
        return ("gives", clause.expects_item, clause.expects_tag)

    provided = {provision_signature(c): c.party for c in clauses}
    for clause in clauses:
        wanted = expects_signature(clause)
        provider = provided.get(wanted)
        if provider is None:
            _fail(
                f"{clause.party!r} expects something no member deposits",
                clause.position,
            )
        if provider == clause.party:
            _fail(
                f"{clause.party!r} expects its own deposit back",
                clause.position,
            )


def _check_priorities(spec: SpecFile) -> None:
    edges = {
        (clause.party, exchange.via)
        for exchange in spec.exchanges
        for clause in exchange.clauses
    }
    seen: set[tuple[str, str]] = set()
    for priority in spec.priorities:
        key = (priority.principal, priority.via)
        if key not in edges:
            _fail(
                f"priority references no exchange edge {priority.principal!r} "
                f"via {priority.via!r}",
                priority.position,
            )
        if key in seen:
            _fail(
                f"duplicate priority for {priority.principal!r} via "
                f"{priority.via!r}",
                priority.position,
            )
        seen.add(key)


def _check_trusts(spec: SpecFile) -> None:
    declared = spec.principal_names() | spec.trusted_names()
    for trust in spec.trusts:
        for name in (trust.truster, trust.trustee):
            if name not in declared:
                _fail(
                    f"trust statement references undeclared party {name!r}",
                    trust.position,
                )
        if trust.truster == trust.trustee:
            _fail("a party cannot declare trust in itself", trust.position)


def _check_participation(spec: SpecFile) -> None:
    used_principals = {
        clause.party for exchange in spec.exchanges for clause in exchange.clauses
    }
    used_trusted = {exchange.via for exchange in spec.exchanges}
    for decl in spec.principals:
        if decl.name not in used_principals:
            _fail(
                f"principal {decl.name!r} participates in no exchange",
                decl.position,
            )
    for decl in spec.trusted:
        if decl.name not in used_trusted:
            _fail(
                f"trusted component {decl.name!r} mediates no exchange",
                decl.position,
            )


# --------------------------------------------------------------- warning tier


def _warning(
    rule: str, message: str, position: Position, path: str, suggestion: str = ""
) -> Finding:
    return Finding(
        path=path,
        line=position.line,
        column=position.column,
        rule=rule,
        message=message,
        suggestion=suggestion,
        severity=Severity.WARNING,
    )


def _trace_signature(spec: SpecFile) -> tuple[object, ...] | None:
    """A step-for-step fingerprint of the fifo reduction of *spec*.

    Returns None when the spec cannot be compiled (the fatal checks report
    that separately); two specs reduce identically iff their signatures are
    equal.
    """
    # Imported lazily: the compiler imports this module for its fatal checks.
    from repro.spec.compiler import compile_spec

    try:
        problem = compile_spec(spec, validate=False)
        trace = problem.reduce()
    except ReproError:
        return None
    steps = tuple(
        (step.edge.commitment.label, step.edge.conjunction.label, int(step.rule))
        for step in trace.steps
    )
    return (trace.feasible, steps)


def analyze_warnings(spec: SpecFile, path: str = "<spec>") -> list[Finding]:
    """The non-fatal warning tier; *spec* must already pass :func:`analyze`.

    Warnings are advisory: they never fail a build, but `repro lint` surfaces
    them through the same reporters as the Python lint passes.
    """
    findings: list[Finding] = []
    warned_priority_parties: set[str] = set()
    warned_trust_parties: set[str] = set()

    # SPECW001 — the priorities alone are a trivially infeasible cycle.
    base_signature = _trace_signature(spec)
    if spec.priorities and base_signature is not None and not base_signature[0]:
        without_priorities = dataclasses.replace(spec, priorities=())
        relaxed = _trace_signature(without_priorities)
        if relaxed is not None and relaxed[0]:
            cycle = ", ".join(
                f"{p.principal} via {p.via}" for p in spec.priorities
            )
            findings.append(
                _warning(
                    "SPECW001",
                    "the declared priorities form a trivially infeasible "
                    f"cycle ({cycle}): removing every priority statement "
                    "restores feasibility",
                    spec.priorities[0].position,
                    path,
                    suggestion="drop or reorient one of the priority edges",
                )
            )
            warned_priority_parties.update(p.principal for p in spec.priorities)

    # SPECW002 — a trust declaration that affects no reduction.
    inert_trusts = []
    for index, trust in enumerate(spec.trusts):
        remaining = spec.trusts[:index] + spec.trusts[index + 1 :]
        without = dataclasses.replace(spec, trusts=remaining)
        if base_signature is not None and _trace_signature(without) == base_signature:
            inert_trusts.append(trust)
            findings.append(
                _warning(
                    "SPECW002",
                    f"trust {trust.truster} -> {trust.trustee} affects no "
                    "reduction: the step-for-step trace is identical "
                    "without it",
                    trust.position,
                    path,
                    suggestion="remove the declaration or re-check which "
                    "edge it was meant to unlock",
                )
            )
    if len(inert_trusts) == len(spec.trusts):
        warned_trust_parties.update(
            name for t in inert_trusts for name in (t.truster, t.trustee)
        )
    else:
        effective = set(spec.trusts) - set(inert_trusts)
        inert_names = {
            name for t in inert_trusts for name in (t.truster, t.trustee)
        }
        live_names = {
            name for t in effective for name in (t.truster, t.trustee)
        }
        warned_trust_parties.update(inert_names - live_names)

    # SPECW003 — parties reachable only via warned declarations.
    mentioned: dict[str, list[str]] = {}
    for priority in spec.priorities:
        mentioned.setdefault(priority.principal, []).append("priority")
    for trust in spec.trusts:
        mentioned.setdefault(trust.truster, []).append("trust")
        mentioned.setdefault(trust.trustee, []).append("trust")
    positions = {decl.name: decl.position for decl in spec.principals}
    positions.update({decl.name: decl.position for decl in spec.trusted})
    for decl_name in sorted(mentioned):
        kinds = mentioned[decl_name]
        priority_ok = "priority" not in kinds or decl_name in warned_priority_parties
        trust_ok = "trust" not in kinds or decl_name in warned_trust_parties
        if priority_ok and trust_ok and (
            decl_name in warned_priority_parties or decl_name in warned_trust_parties
        ):
            findings.append(
                _warning(
                    "SPECW003",
                    f"party {decl_name!r} is reachable only via warned "
                    "declarations: every trust/priority statement naming it "
                    "is inert",
                    positions.get(decl_name, Position(1, 1)),
                    path,
                    suggestion="the party still trades, but its trust/priority "
                    "annotations do nothing — delete or fix them",
                )
            )
    return sorted(findings, key=lambda finding: finding.sort_key)
