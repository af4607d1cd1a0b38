"""Recursive-descent parser for the exchange-specification language.

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

All errors are :class:`SpecSyntaxError` with source positions.  Every
position and declaration is built through :data:`repro.records.new_record`,
which takes all of its fields in declaration order.
"""

from __future__ import annotations

from typing import Any, Callable

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
from repro.spec.lexer import tokenize
from repro.spec.tokens import Token, TokenType

_PRINCIPAL_KINDS = {kind.value: kind for kind in PrincipalKind}
# Bound once: reading ``TokenType.IDENT`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_EOF = TokenType.EOF
_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_STRING = TokenType.STRING
_NUMBER = TokenType.NUMBER
_AMOUNT = TokenType.AMOUNT
_LBRACE = TokenType.LBRACE
_RBRACE = TokenType.RBRACE
_ARROW = TokenType.ARROW
_PAYS = ClauseKind.PAYS
_GIVES = ClauseKind.GIVES


class Parser:
    """Consumes a token stream and yields a :class:`SpecFile`."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------ util

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not _EOF:
            self._index += 1
        return token

    @staticmethod
    def _error(message: str, token: Token) -> SpecSyntaxError:
        return SpecSyntaxError(message, line=token.line, column=token.column)

    def _accept(self, word: str) -> bool:
        """Consume the next token if it is the keyword *word*."""
        token = self._tokens[self._index]
        if token.type is _KEYWORD and token.value == word:
            self._index += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._tokens[self._index]
        if token.type is not _KEYWORD or token.value != word:
            raise self._error(f"expected '{word}', found {token}", token)
        self._index += 1

    def _expect_ident(self, what: str) -> Token:
        token = self._tokens[self._index]
        if token.type is not _IDENT:
            raise self._error(f"expected {what}, found {token}", token)
        self._index += 1
        return token

    # ----------------------------------------------------------------- parse

    def parse(self) -> SpecFile:
        """Parse the full specification."""
        name = self._parse_problem_header()
        principals: list[PrincipalDecl] = []
        trusted: list[TrustedDecl] = []
        exchanges: list[ExchangeDecl] = []
        priorities: list[PriorityDecl] = []
        trusts: list[TrustDecl] = []
        # Each statement keyword: the method that parses the rest of the
        # statement from its keyword token, and the list its result joins.
        statements: dict[str, tuple[Callable[[Token], object], list[Any]]] = {
            "principal": (self._parse_principal, principals),
            "trusted": (self._parse_trusted, trusted),
            "exchange": (self._parse_exchange, exchanges),
            "priority": (self._parse_priority, priorities),
            "trust": (self._parse_trust, trusts),
        }
        tokens = self._tokens
        while (token := tokens[self._index]).type is not _EOF:
            if token.type is not _KEYWORD or token.value not in statements:
                raise self._error(
                    f"expected a statement keyword (principal/trusted/exchange/"
                    f"priority/trust), found {token}",
                    token,
                )
            self._index += 1
            parse_statement, found = statements[str(token.value)]
            found.append(parse_statement(token))
        return SpecFile(
            name=name,
            principals=tuple(principals),
            trusted=tuple(trusted),
            exchanges=tuple(exchanges),
            priorities=tuple(priorities),
            trusts=tuple(trusts),
        )

    def _parse_problem_header(self) -> str:
        if not self._accept("problem"):
            return "unnamed"
        token = self._advance()
        if token.type not in (_STRING, _IDENT):
            raise self._error("expected a problem name after 'problem'", token)
        return str(token.value)

    def _parse_principal(self, start: Token) -> PrincipalDecl:
        kind_token = self._advance()
        if kind_token.type is not _KEYWORD or kind_token.value not in _PRINCIPAL_KINDS:
            raise self._error(
                "expected 'consumer', 'broker' or 'producer' after 'principal'",
                kind_token,
            )
        name = self._expect_ident("a principal name")
        kind = _PRINCIPAL_KINDS[str(kind_token.value)]
        position = new_record(Position, (start.line, start.column))
        return new_record(PrincipalDecl, (kind, str(name.value), position))

    def _parse_trusted(self, start: Token) -> TrustedDecl:
        name = self._expect_ident("a trusted-component name")
        position = new_record(Position, (start.line, start.column))
        return new_record(TrustedDecl, (str(name.value), position))

    def _parse_exchange(self, start: Token) -> ExchangeDecl:
        self._expect_keyword("via")
        via = self._expect_ident("a trusted-component name")
        deadline: int | None = None
        if self._accept("deadline"):
            number = self._advance()
            if number.type is not _NUMBER:
                raise self._error("expected a number after 'deadline'", number)
            deadline = int(number.value)
        brace = self._advance()
        if brace.type is not _LBRACE:
            raise self._error("expected '{' opening the exchange block", brace)
        clauses: list[MemberClause] = []
        tokens = self._tokens
        while (token := tokens[self._index]).type is not _RBRACE:
            if token.type is _EOF:
                raise self._error("unterminated exchange block (missing '}')", token)
            clauses.append(self._parse_clause())
        self._index += 1  # consume '}'
        if len(clauses) < 2:
            raise self._error("an exchange needs at least two member clauses", start)
        position = new_record(Position, (start.line, start.column))
        return new_record(ExchangeDecl, (str(via.value), tuple(clauses), position, deadline))

    def _parse_clause(self) -> MemberClause:
        party = self._expect_ident("a participant name")
        verb = self._advance()
        word = verb.value if verb.type is _KEYWORD else None
        amount_cents: int | None = None
        item: str | None = None
        if word == "pays":
            amount = self._advance()
            if amount.type is not _AMOUNT:
                raise self._error("expected a '$' amount after 'pays'", amount)
            amount_cents = int(amount.value)
            kind = _PAYS
        elif word == "gives":
            item = str(self._expect_ident("an item name").value)
            kind = _GIVES
        else:
            raise self._error(f"expected 'pays' or 'gives', found {verb}", verb)
        tag = str(self._expect_ident("a tag name").value) if self._accept("tag") else ""
        expects_item: str | None = None
        expects_amount: int | None = None
        expects_tag = ""
        if self._accept("expects"):
            target = self._advance()
            if target.type is _AMOUNT:
                expects_amount = int(target.value)
            elif target.type is _IDENT:
                expects_item = str(target.value)
            else:
                raise self._error(
                    "expected an item name or '$' amount after 'expects'", target
                )
            if self._accept("tag"):
                expects_tag = str(self._expect_ident("a tag name").value)
        return new_record(
            MemberClause,
            (
                str(party.value),
                kind,
                amount_cents,
                item,
                tag,
                new_record(Position, (party.line, party.column)),
                expects_item,
                expects_amount,
                expects_tag,
            ),
        )

    def _parse_priority(self, start: Token) -> PriorityDecl:
        principal = self._expect_ident("a principal name")
        self._expect_keyword("via")
        via = self._expect_ident("a trusted-component name")
        position = new_record(Position, (start.line, start.column))
        return new_record(PriorityDecl, (str(principal.value), str(via.value), position))

    def _parse_trust(self, start: Token) -> TrustDecl:
        truster = self._expect_ident("a party name")
        arrow = self._advance()
        if arrow.type is not _ARROW:
            raise self._error("expected '->' in trust statement", arrow)
        trustee = self._expect_ident("a party name")
        position = new_record(Position, (start.line, start.column))
        return new_record(TrustDecl, (str(truster.value), str(trustee.value), position))


def parse(source: str) -> SpecFile:
    """Parse specification text into a :class:`SpecFile`."""
    return Parser(tokenize(source)).parse()
