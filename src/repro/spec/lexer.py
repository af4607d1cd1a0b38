"""Lexer for the exchange-specification language.

Whitespace-insensitive; ``#`` starts a comment running to end of line.
Amounts are dollars-and-cents literals (``$12``, ``$12.5``, ``$12.50``) and
are tokenized directly into integer cents so no float ever enters the
pipeline.

One compiled master pattern scans the input: its alternatives cover every
character, so consecutive matches tile the source and each match's group
name says which token (or error) starts there.  Positions are 1-based; every
character, tab and carriage return included, advances the column by one, and
only ``\\n`` starts a new line.
"""

from __future__ import annotations

import re

from repro.errors import SpecSyntaxError
from repro.spec.tokens import KEYWORDS, Token, TokenType

_SCANNER = re.compile(
    r"""
      (?P<trivia>[ \t\r\n]+|\#[^\n]*)
    | (?P<word>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<number>[0-9]+)
    | (?P<amount>\$(?P<dollars>[0-9]*)(?:\.(?P<cents>[0-9]*))?)
    | (?P<string>"[^"\n]*"?)
    | (?P<arrow>->)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_PUNCTUATION = {"arrow": TokenType.ARROW, "lbrace": TokenType.LBRACE, "rbrace": TokenType.RBRACE}


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*; raises :class:`SpecSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _SCANNER.finditer(source):
        kind = match.lastgroup
        start = match.start()
        text = match.group()
        if kind == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "word":
            word_type = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            append(Token(word_type, text, line, column))
        elif kind == "number":
            append(Token(TokenType.NUMBER, int(text), line, column))
        elif kind == "amount":
            append(Token(TokenType.AMOUNT, _cents(match, line, column), line, column))
        elif kind == "string":
            if len(text) < 2 or not text.endswith('"'):
                raise SpecSyntaxError("unterminated string", line=line, column=column)
            append(Token(TokenType.STRING, text[1:-1], line, column))
        elif kind in _PUNCTUATION:
            append(Token(_PUNCTUATION[kind], text, line, column))
        elif text == "-":
            raise SpecSyntaxError("expected '->' after '-'", line=line, column=column)
        else:
            raise SpecSyntaxError(
                f"unexpected character {text!r}", line=line, column=column
            )
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens


def _cents(match: re.Match[str], line: int, column: int) -> int:
    """The integer cents of an ``amount`` match (errors point at the ``$``)."""
    dollars = match.group("dollars")
    if not dollars:
        raise SpecSyntaxError("expected digits after '$'", line=line, column=column)
    cents = int(dollars) * 100
    fraction = match.group("cents")
    if fraction is not None:
        if not fraction or len(fraction) > 2:
            raise SpecSyntaxError(
                "amounts take at most two decimal places", line=line, column=column
            )
        cents += int(fraction.ljust(2, "0"))
    return cents
