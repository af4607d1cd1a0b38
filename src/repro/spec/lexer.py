"""Lexer for the exchange-specification language.

Whitespace-insensitive; ``#`` starts a comment running to end of line.
Amounts are dollars-and-cents literals (``$12``, ``$12.5``, ``$12.50``) and
are tokenized directly into integer cents so no float ever enters the
pipeline.

One compiled master pattern scans the input, one match per token: each match
is the trivia (whitespace and comments) before a token plus the token, and
the name of the token's group says which token (or error) it is.  The last
match is the trivia before the end of input, so the matches tile the source.
Positions are 1-based; every character, tab and carriage return included,
advances the column by one, and only ``\\n`` starts a new line: the lexer
counts the newlines in each token's leading trivia and measures its column
from the last of them.
"""

from __future__ import annotations

import re

from repro.errors import SpecSyntaxError
from repro.spec.tokens import KEYWORDS, Token, TokenType

# Every position after the greedy trivia run starts a token, an ``other``
# character or the ``eof``, so a match never backtracks into its trivia (a
# token inside a comment stays in the comment).
_SCANNER = re.compile(
    r"""
    (?P<trivia>[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (?:
      (?P<word>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<amount>\$(?P<dollars>[0-9]*)(?:\.(?P<cents>[0-9]*))?)
    | (?P<arrow>->)
    | (?P<number>[0-9]+)
    | (?P<string>"[^"\n]*"?)
    | (?P<other>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_PUNCTUATION = {"arrow": TokenType.ARROW, "lbrace": TokenType.LBRACE, "rbrace": TokenType.RBRACE}
# Bound once: reading ``TokenType.IDENT`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_AMOUNT = TokenType.AMOUNT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_EOF = TokenType.EOF


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*; raises :class:`SpecSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    count = source.count
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _SCANNER.finditer(source):
        kind = match.lastgroup
        trivia = match.start()
        start = match.end("trivia")
        if trivia != start:
            newlines = count("\n", trivia, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", trivia, start) + 1
        column = start - line_start + 1
        if kind == "word":
            text = match.group("word")
            word_type = _KEYWORD if text in KEYWORDS else _IDENT
            append(Token(word_type, text, line, column))
        elif kind in _PUNCTUATION:
            append(Token(_PUNCTUATION[kind], match.group(kind), line, column))
        elif kind == "amount":
            append(Token(_AMOUNT, _cents(match, line, column), line, column))
        elif kind == "number":
            append(Token(_NUMBER, int(match.group("number")), line, column))
        elif kind == "string":
            text = match.group("string")
            if len(text) < 2 or not text.endswith('"'):
                raise SpecSyntaxError("unterminated string", line=line, column=column)
            append(Token(_STRING, text[1:-1], line, column))
        elif kind == "eof":
            break
        elif match.group("other") == "-":
            raise SpecSyntaxError("expected '->' after '-'", line=line, column=column)
        else:
            raise SpecSyntaxError(
                f"unexpected character {match.group('other')!r}", line=line, column=column
            )
    append(Token(_EOF, "", line, column))
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
