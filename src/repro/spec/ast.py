"""Abstract syntax tree of the exchange-specification language.

Each node remembers its source position for diagnostics.  The AST maps 1:1
to the paper's formal objects: principal/trusted declarations build *P* and
*T* of the interaction graph, exchange blocks build *E* (two member clauses
per pairwise exchange), ``priority`` statements become red edges, and
``trust`` statements populate the direct-trust relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class Position(NamedTuple):
    """1-based source location of a node (a tuple of its fields)."""

    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"line {self.line}, column {self.column}"


class PrincipalKind(enum.Enum):
    """The three principal classes of §2.1."""

    CONSUMER = "consumer"
    BROKER = "broker"
    PRODUCER = "producer"


class ClauseKind(enum.Enum):
    """What a member of an exchange block contributes."""

    PAYS = "pays"
    GIVES = "gives"


@dataclass(frozen=True)
class PrincipalDecl:
    """``principal <kind> <name>``"""

    kind: PrincipalKind
    name: str
    position: Position


@dataclass(frozen=True)
class TrustedDecl:
    """``trusted <name>``"""

    name: str
    position: Position


@dataclass(frozen=True)
class MemberClause:
    """``<party> pays $X [tag t]`` or ``<party> gives <item> [tag t]``.

    ``amount_cents`` is set for PAYS, ``item`` for GIVES; ``tag``
    disambiguates otherwise-identical items.
    """

    party: str
    kind: ClauseKind
    amount_cents: int | None
    item: str | None
    tag: str
    position: Position
    expects_item: str | None = None
    expects_amount_cents: int | None = None
    expects_tag: str = ""

    @property
    def has_expects(self) -> bool:
        """Whether the clause names its entitlement explicitly (§9 multi-party)."""
        return self.expects_item is not None or self.expects_amount_cents is not None


@dataclass(frozen=True)
class ExchangeDecl:
    """``exchange via <trusted> { <clauses...> }``"""

    via: str
    clauses: tuple[MemberClause, ...]
    position: Position
    deadline: int | None = None  # §2.2: how long deposits are held


@dataclass(frozen=True)
class PriorityDecl:
    """``priority <principal> via <trusted>`` — a red edge (§4.1)."""

    principal: str
    via: str
    position: Position


@dataclass(frozen=True)
class TrustDecl:
    """``trust <truster> -> <trustee>`` — direct trust (§4.2.3)."""

    truster: str
    trustee: str
    position: Position


@dataclass(frozen=True)
class SpecFile:
    """A parsed specification: name plus declaration lists, in source order."""

    name: str
    principals: tuple[PrincipalDecl, ...] = field(default_factory=tuple)
    trusted: tuple[TrustedDecl, ...] = field(default_factory=tuple)
    exchanges: tuple[ExchangeDecl, ...] = field(default_factory=tuple)
    priorities: tuple[PriorityDecl, ...] = field(default_factory=tuple)
    trusts: tuple[TrustDecl, ...] = field(default_factory=tuple)

    def principal_names(self) -> set[str]:
        """All declared principal names."""
        return {decl.name for decl in self.principals}

    def trusted_names(self) -> set[str]:
        """All declared trusted-component names."""
        return {decl.name for decl in self.trusted}
