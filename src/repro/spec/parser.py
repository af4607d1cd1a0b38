"""Parser for the exchange-specification language, a statement at a time.

Grammar (keywords lowercase, ``*`` = repetition)::

    spec       := problem? statement*
    problem    := "problem" (STRING | IDENT)
    statement  := principal | trusted | exchange | priority | trust
    principal  := "principal" ("consumer"|"broker"|"producer") IDENT
    trusted    := "trusted" IDENT
    exchange   := "exchange" "via" IDENT ("deadline" NUMBER)? "{" clause clause+ "}"
    clause     := IDENT ("pays" AMOUNT | "gives" IDENT) ("tag" IDENT)? expects?
    expects    := "expects" (IDENT | AMOUNT) ("tag" IDENT)?
    priority   := "priority" IDENT "via" IDENT
    trust      := "trust" IDENT "->" IDENT

Each statement, and each member clause of an exchange block, is read by one
match of one compiled pattern assembled from the lexer's token fragments
(:mod:`repro.spec.lexer`), and each declaration is built straight from the
match's groups through :data:`repro.records.new_record`: no token list is
built, and a line and column are worked out only for the positions the
declarations keep.

A pattern's steps nest, each one optional after the one before, so a match
that falls short ends where its first missing step should begin, and the
last group it set names the error, which each step enters beside its own
pattern.  Before a syntax error is raised the whole text is tokenized, so a
lexical error anywhere in it is the error reported, as when the parser read
tokens; the token a message shows is the lexer's one-token step at the
error's offset.  All errors are :class:`SpecSyntaxError` with source
positions.
"""

from __future__ import annotations

import re

from repro.errors import SpecSyntaxError
from repro.records import new_record
from repro.spec.ast import (
    ClauseKind,
    ExchangeDecl,
    MemberClause,
    Position,
    PrincipalDecl,
    PrincipalKind,
    PriorityDecl,
    SpecFile,
    TrustDecl,
    TrustedDecl,
)
from repro.spec.lexer import (
    ARROW,
    LBRACE,
    NUMBER,
    RBRACE,
    STRING,
    TRIVIA,
    WORD,
    WORD_CHAR,
    amount,
    amount_cents,
    token_at,
    tokenize,
)
from repro.spec.tokens import KEYWORDS

_PRINCIPAL_KINDS = {kind.value: kind for kind in PrincipalKind}
# Bound once: reading ``ClauseKind.PAYS`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_PAYS = ClauseKind.PAYS
_GIVES = ClauseKind.GIVES

# A word ends where the lexer's would: a keyword or identifier matched as a
# prefix of a longer word is no match.  Every step after a statement's first
# is optional, so the engine never backtracks into a step that matched, and
# each token a pattern takes is the one the lexer's greedy match would take.
_WORD_END = rf"(?!{WORD_CHAR})"
_IDENT = rf"(?!(?:{'|'.join(sorted(KEYWORDS))}){_WORD_END}){WORD}"

#: What a match that stops after a group expected next, by group; ``{found}``
#: is the token there.  Each step below enters its own message.
_EXPECTED: dict[str, str] = {}


def _group(name: str, pattern: str, then: str | None = None) -> str:
    """*pattern* in the group *name*; *then* is the error of a match that
    stops after it."""
    if then is not None:
        _EXPECTED[name] = then
    return f"(?P<{name}>{pattern})"


def _keyword(word: str, name: str | None = None, then: str | None = None) -> str:
    """Keyword *word* in the group *name* (the word itself by default)."""
    return _group(name or word, word, then) + _WORD_END


def _optional(step: str) -> str:
    """*step*, or nothing: a later step tests its group with :func:`_if`."""
    return f"(?:{step}|)"


def _if(group: str, step: str, otherwise: str = "") -> str:
    """*step* if *group* matched, else *otherwise*."""
    return f"(?({group})(?:{step})|{otherwise})"


def _steps(*steps: str) -> str:
    """*steps* in order, each followed by trivia and each after the first
    optional after the one before: a match ends at the first that fails."""
    pattern = ""
    for step in reversed(steps):
        pattern = f"(?:{step}){TRIVIA}" + (f"(?:{pattern})?" if pattern else "")
    return pattern


# One pattern per statement (the alternatives of one compiled pattern) and
# one per member clause of an exchange block.  A complete match sets its
# final step's group; a shorter one ends where the first missing step
# should begin, and the last group it set picks the error.
_OPEN = "expected '{' opening the exchange block"
_HEADER = re.compile(
    TRIVIA
    + _optional(
        _steps(
            _keyword("problem", then="expected a problem name after 'problem'"),
            _group("problem_name", f"{STRING}|{_IDENT}"),
        )
    )
)
_STATEMENT = re.compile(
    "|".join(
        (
            _steps(
                _keyword(
                    "principal",
                    then="expected 'consumer', 'broker' or 'producer' after 'principal'",
                ),
                _group(
                    "kind",
                    "consumer|broker|producer",
                    then="expected a principal name, found {found}",
                )
                + _WORD_END,
                _group("principal_name", _IDENT),
            ),
            _steps(
                _keyword("trusted", then="expected a trusted-component name, found {found}"),
                _group("trusted_name", _IDENT),
            ),
            _steps(
                _keyword("exchange", then="expected 'via', found {found}"),
                _keyword("via", then="expected a trusted-component name, found {found}"),
                _group("via_name", _IDENT, then=_OPEN),
                _optional(_keyword("deadline", then="expected a number after 'deadline'")),
                _if("deadline", _group("deadline_number", NUMBER, then=_OPEN)),
                _group("open", LBRACE),
                _optional(_group("empty", RBRACE)),
            ),
            _steps(
                _keyword("priority", then="expected a principal name, found {found}"),
                _group("priority_name", _IDENT, then="expected 'via', found {found}"),
                _keyword(
                    "via", "priority_via", then="expected a trusted-component name, found {found}"
                ),
                _group("priority_via_name", _IDENT),
            ),
            _steps(
                _keyword("trust", then="expected a party name, found {found}"),
                _group("truster", _IDENT, then="expected '->' in trust statement"),
                _group("arrow", ARROW, then="expected a party name, found {found}"),
                _group("trustee", _IDENT),
            ),
        )
    )
)
_MEMBER = re.compile(
    _steps(
        _group("party", _IDENT, then="expected 'pays' or 'gives', found {found}"),
        _keyword("pays", then="expected a '$' amount after 'pays'")
        + "|"
        + _keyword("gives", then="expected an item name, found {found}"),
        _if("pays", amount("dollars", "cents"), _group("item", _IDENT)),
        _optional(_keyword("tag", then="expected a tag name, found {found}")),
        _if("tag", _group("tag_name", _IDENT)),
        _optional(
            _keyword("expects", then="expected an item name or '$' amount after 'expects'")
        ),
        _if(
            "expects",
            amount("expects_dollars", "expects_cents") + "|" + _group("expects_item", _IDENT),
        ),
        _if(
            "expects",
            _optional(_keyword("tag", "expects_tag", then="expected a tag name, found {found}")),
        ),
        _if("expects_tag", _group("expects_tag_name", _IDENT)),
        _group("close", RBRACE) + "|" + _group("member", ""),
    )
)
_MEMBER_FIELDS = (
    "party",
    "pays",
    "dollars",
    "cents",
    "item",
    "tag_name",
    "expects_dollars",
    "expects_cents",
    "expects_item",
    "expects_tag_name",
)
_NO_STATEMENT = (
    "expected a statement keyword (principal/trusted/exchange/priority/trust), found {found}"
)
_NO_MEMBER = "expected a participant name, found {found}"
_TOO_FEW_MEMBERS = "an exchange needs at least two member clauses"
_UNTERMINATED = "unterminated exchange block (missing '}')"


def _syntax_error(source: str, message: str, offset: int) -> SpecSyntaxError:
    """The error *message* about the token at *offset*, unless *source* holds
    a lexical error, which is raised instead."""
    tokenize(source)
    token = token_at(source, offset)
    return SpecSyntaxError(
        message.replace("{found}", str(token)), line=token.line, column=token.column
    )


def parse(source: str) -> SpecFile:
    """Parse specification text into a :class:`SpecFile`."""
    header = _HEADER.match(source)
    assert header is not None  # every step is optional
    if header.lastgroup == "problem":
        raise _syntax_error(source, _EXPECTED["problem"], header.end())
    name = header.group("problem_name")
    if name is None:
        name = "unnamed"
    elif name[0] == '"':
        name = name[1:-1]
    principals: list[PrincipalDecl] = []
    trusted: list[TrustedDecl] = []
    exchanges: list[ExchangeDecl] = []
    priorities: list[PriorityDecl] = []
    trusts: list[TrustDecl] = []
    # The exchange whose block is open: its header match and position, and
    # the member clauses read so far.
    exchange: re.Match[str] | None = None
    exchange_position: Position | None = None
    members: list[MemberClause] = []
    statement = _STATEMENT.match
    member = _MEMBER.match
    count = source.count
    rfind = source.rfind
    end = len(source)
    pos = header.end()
    line = 1
    line_start = 0  # offset of the first character of the current line
    counted = 0  # the offset up to which ``line`` counts the newlines
    while pos < end:
        match = (statement if exchange is None else member)(source, pos)
        if match is None:
            raise _syntax_error(source, _NO_STATEMENT if exchange is None else _NO_MEMBER, pos)
        newlines = count("\n", counted, pos)
        if newlines:
            line += newlines
            line_start = rfind("\n", counted, pos) + 1
        counted = pos
        position = new_record(Position, (line, pos - line_start + 1))
        kind = match.lastgroup
        if kind == "member" or kind == "close":
            party, pays, dollars, cents, item, tag, e_dollars, e_cents, e_item, e_tag = (
                match.group(*_MEMBER_FIELDS)
            )
            try:
                amount = None if pays is None else amount_cents(dollars, cents)
                expects_amount = None if e_dollars is None else amount_cents(e_dollars, e_cents)
            except ValueError:  # a malformed amount
                tokenize(source)  # raises its lexical error, or an earlier one
                raise
            members.append(
                new_record(
                    MemberClause,
                    (
                        party,
                        _GIVES if pays is None else _PAYS,
                        amount,
                        item,
                        tag or "",
                        position,
                        e_item,
                        expects_amount,
                        e_tag or "",
                    ),
                )
            )
            if kind == "close":
                assert exchange is not None  # a member is read only in an open block
                if len(members) < 2:
                    raise _syntax_error(source, _TOO_FEW_MEMBERS, exchange.start())
                via, number = exchange.group("via_name", "deadline_number")
                try:
                    deadline = None if number is None else int(number)
                except ValueError:  # more digits than ``int()`` converts
                    tokenize(source)  # raises its lexical error, or an earlier one
                    raise
                exchanges.append(
                    new_record(ExchangeDecl, (via, tuple(members), exchange_position, deadline))
                )
                exchange = None
                members = []
        elif kind == "principal_name":
            kind_name, principal = match.group("kind", "principal_name")
            principals.append(
                new_record(PrincipalDecl, (_PRINCIPAL_KINDS[kind_name], principal, position))
            )
        elif kind == "trusted_name":
            trusted.append(new_record(TrustedDecl, (match.group("trusted_name"), position)))
        elif kind == "open":
            exchange = match
            exchange_position = position
        elif kind == "priority_via_name":
            principal, via = match.group("priority_name", "priority_via_name")
            priorities.append(new_record(PriorityDecl, (principal, via, position)))
        elif kind == "trustee":
            truster, trustee = match.group("truster", "trustee")
            trusts.append(new_record(TrustDecl, (truster, trustee, position)))
        elif kind == "empty":
            raise _syntax_error(source, _TOO_FEW_MEMBERS, pos)
        else:
            assert kind is not None  # a match sets its first step's group
            raise _syntax_error(source, _EXPECTED[kind], match.end())
        pos = match.end()
    if exchange is not None:
        raise _syntax_error(source, _UNTERMINATED, end)
    return SpecFile(
        name=name,
        principals=tuple(principals),
        trusted=tuple(trusted),
        exchanges=tuple(exchanges),
        priorities=tuple(priorities),
        trusts=tuple(trusts),
    )
