"""Token definitions for the exchange-specification language.

The paper introduces "a language for specifying these commercial exchange
problems" (§1) but gives no concrete syntax; this package supplies one.  A
specification is a sequence of keyword-initiated statements::

    problem "example1"

    principal consumer Consumer
    principal broker   Broker
    principal producer Producer
    trusted Trusted1
    trusted Trusted2

    exchange via Trusted1 {
        Consumer pays $12.00 tag retail
        Broker   gives d
    }
    exchange via Trusted2 {
        Broker   pays $10.00 tag wholesale
        Producer gives d
    }

    priority Broker via Trusted1      # red edge: secure the buyer first
    trust Source1 -> Broker1          # direct trust (§4.2.3)

Tokens carry 1-based line/column positions for error reporting.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Lexical classes of the spec language."""

    IDENT = "identifier"
    STRING = "string"
    AMOUNT = "amount"  # $12.00 — value in cents
    NUMBER = "number"
    LBRACE = "{"
    RBRACE = "}"
    ARROW = "->"
    KEYWORD = "keyword"
    EOF = "end of input"


KEYWORDS = frozenset(
    {
        "problem",
        "principal",
        "consumer",
        "broker",
        "producer",
        "trusted",
        "exchange",
        "via",
        "pays",
        "gives",
        "tag",
        "priority",
        "trust",
        "deadline",
        "expects",
    }
)


class Token(NamedTuple):
    """One lexical token with its source position.

    ``value`` is the raw text for identifiers/keywords, the unquoted content
    for strings, and the integer cent count (as ``int``) for amounts.
    """

    type: TokenType
    value: str | int
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """Whether this token is the keyword *word*."""
        return self.type is TokenType.KEYWORD and self.value == word

    def __str__(self) -> str:
        if self.type in (TokenType.LBRACE, TokenType.RBRACE, TokenType.ARROW):
            return f"'{self.type.value}'"
        if self.type is TokenType.EOF:
            return "end of input"
        if self.type is TokenType.AMOUNT:
            cents = int(self.value)
            return f"amount ${cents // 100}.{cents % 100:02d}"
        return f"{self.type.value} {self.value!r}"
