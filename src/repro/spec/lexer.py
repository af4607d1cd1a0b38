"""Lexer for the exchange-specification language.

Whitespace-insensitive; ``#`` starts a comment running to end of line.
Amounts are dollars-and-cents literals (``$12``, ``$12.5``, ``$12.50``) and
are tokenized directly into integer cents so no float ever enters the
pipeline.

Each token class is written once, as one of the regular-expression fragments
below.  The master scanner here and the statement patterns of
:mod:`repro.spec.parser` are both assembled from them, so the lexer and the
parser cannot disagree on where a token ends.

The scanner matches once per token: each match is the trivia (whitespace
and comments) before a token plus the token, and the name of the token's
group says which token (or error) it is.  The last match is the trivia
before the end of input, so the matches tile the source.  Positions are
1-based; every character, tab and carriage return included, advances the
column by one, and only ``\\n`` starts a new line: the lexer counts the
newlines in each token's leading trivia and measures its column from the
last of them.
"""

from __future__ import annotations

import re

from repro.errors import SpecSyntaxError
from repro.records import new_record
from repro.spec.tokens import KEYWORDS, Token, TokenType

# The token classes, as fragments that read the same with or without
# ``re.VERBOSE`` (no bare spaces or ``#`` outside a character class).  Every
# position after the greedy trivia run starts a token, an error or the end
# of input, so a match never backtracks into its trivia (a token inside a
# comment stays in the comment).
TRIVIA = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
WORD_CHAR = r"[A-Za-z0-9_-]"
WORD = rf"[A-Za-z]{WORD_CHAR}*"
NUMBER = r"[0-9]+"
STRING = r'"[^"\n]*"'
ARROW = r"->"
LBRACE = r"\{"
RBRACE = r"\}"


def amount(dollars: str, cents: str) -> str:
    """The fragment of an amount, its two digit runs in groups *dollars* and
    *cents* (the digits after a ``.``; unset without one)."""
    return rf"\$(?P<{dollars}>[0-9]*)(?:\.(?P<{cents}>[0-9]*))?"


_SCANNER = re.compile(
    rf"""
    (?P<trivia>{TRIVIA})
    (?:
      (?P<word>{WORD})
    | (?P<lbrace>{LBRACE})
    | (?P<rbrace>{RBRACE})
    | (?P<amount>{amount("dollars", "cents")})
    | (?P<arrow>{ARROW})
    | (?P<number>{NUMBER})
    | (?P<string>{STRING})
    | (?P<unterminated>"[^"\n]*)
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
    count = source.count
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _SCANNER.finditer(source):
        trivia = match.start()
        start = match.end("trivia")
        if trivia != start:
            newlines = count("\n", trivia, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", trivia, start) + 1
        token = _token(match, line, start - line_start + 1)
        tokens.append(token)
        if token.type is _EOF:
            break
    return tokens


def token_at(source: str, offset: int) -> Token:
    """The token at *offset*, or after the trivia there, with its position:
    the lexer's one-token step."""
    match = _SCANNER.match(source, offset)
    assert match is not None  # ``other`` and ``eof`` match anywhere
    start = match.end("trivia")
    return _token(match, source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start))


def _token(match: re.Match[str], line: int, column: int) -> Token:
    """The token of one scanner match, at *line* and *column*."""
    kind = match.lastgroup
    if kind == "word":
        text = match.group("word")
        return new_record(Token, (_KEYWORD if text in KEYWORDS else _IDENT, text, line, column))
    if kind in _PUNCTUATION:
        return new_record(Token, (_PUNCTUATION[kind], match.group(kind), line, column))
    try:
        if kind == "amount":
            cents = amount_cents(match.group("dollars"), match.group("cents"))
            return new_record(Token, (_AMOUNT, cents, line, column))
        if kind == "number":
            return new_record(Token, (_NUMBER, _integer(match.group("number")), line, column))
    except ValueError as exc:
        raise SpecSyntaxError(str(exc), line=line, column=column) from None
    if kind == "string":
        return new_record(Token, (_STRING, match.group("string")[1:-1], line, column))
    if kind == "unterminated":
        raise SpecSyntaxError("unterminated string", line=line, column=column)
    if kind == "eof":
        return new_record(Token, (_EOF, "", line, column))
    if match.group("other") == "-":
        raise SpecSyntaxError("expected '->' after '-'", line=line, column=column)
    raise SpecSyntaxError(
        f"unexpected character {match.group('other')!r}", line=line, column=column
    )


def _integer(digits: str) -> int:
    """The value of a run of decimal *digits*; ValueError names a run longer
    than ``int()`` converts (``sys.get_int_max_str_digits()``)."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"number too long ({len(digits)} digits)") from None


def amount_cents(dollars: str, cents: str | None) -> int:
    """The integer cents of an amount's digit runs (see :func:`amount`);
    ValueError says what is malformed, in the words of the lexer's error."""
    if not dollars:
        raise ValueError("expected digits after '$'")
    value = _integer(dollars) * 100
    if cents is not None:
        if not cents or len(cents) > 2:
            raise ValueError("amounts take at most two decimal places")
        value += int(cents.ljust(2, "0"))
    return value
