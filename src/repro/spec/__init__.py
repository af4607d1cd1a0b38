"""A concrete text language for the paper's exchange problems (§1, §2).

Pipeline: :func:`parse` → :func:`analyze` → :func:`compile_spec`; or just
:func:`load` / :func:`load_file` end to end.  :func:`parse` reads the text a
statement at a time and builds no token; :func:`tokenize` lists the tokens,
and the parser calls it only to report an error.
:func:`format_problem` renders a problem back to text (round-trip safe).
"""

from repro.spec.analyzer import analyze
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
from repro.spec.compiler import compile_spec, load, load_file
from repro.spec.formatter import format_problem
from repro.spec.lexer import tokenize
from repro.spec.parser import parse
from repro.spec.tokens import KEYWORDS, Token, TokenType

__all__ = [
    "analyze",
    "ClauseKind",
    "ExchangeDecl",
    "MemberClause",
    "Position",
    "PrincipalDecl",
    "PrincipalKind",
    "PriorityDecl",
    "SpecFile",
    "TrustDecl",
    "TrustedDecl",
    "compile_spec",
    "load",
    "load_file",
    "format_problem",
    "tokenize",
    "parse",
    "KEYWORDS",
    "Token",
    "TokenType",
]
