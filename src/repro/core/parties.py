"""Parties to a distributed commerce transaction (paper §2.1, §2.5).

The paper distinguishes three classes of *principals* — producers, consumers,
and brokers — plus *trusted components* (intermediaries).  A party is a named,
hashable value object; identity is the name, so two ``Party`` objects with the
same name are interchangeable.

Parties key every graph index and hot-loop set, so ``Party`` is a tuple of
its fields (a validated ``NamedTuple``): hashing, equality and ordering run
in C.  ``Role`` hashes by identity, since enum members are singletons.

The principal/trusted distinction matters structurally: interaction graphs are
bipartite between principals and trusted components (§3), and only trusted
components may emit ``notify`` actions or reverse transfers they received
(§2.5).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import ModelError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")


class Role(enum.Enum):
    """Functional role a party plays in a transaction.

    ``CONSUMER``/``BROKER``/``PRODUCER`` are the paper's three principal
    classes (§2.1); ``TRUSTED`` marks a trusted component (§2.5).  The role
    only constrains graph structure (principal vs trusted); the
    consumer/broker/producer distinction is descriptive and used by workload
    generators and the spec language.
    """

    CONSUMER = "consumer"
    BROKER = "broker"
    PRODUCER = "producer"
    TRUSTED = "trusted"

    # Members are singletons compared by identity; hash them the same way,
    # in C, instead of through Enum.__hash__ (a Python frame per lookup).
    __hash__ = object.__hash__

    @property
    def is_principal(self) -> bool:
        """True for consumer/broker/producer, False for trusted components."""
        return self is not _TRUSTED


# Bound once: reading ``Role.TRUSTED`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_TRUSTED = Role.TRUSTED


class _PartyFields(NamedTuple):
    name: str
    role: Role


class Party(_PartyFields):
    """A named participant with a :class:`Role`.

    Parties are immutable and hashable; they are used as graph-node keys
    throughout the library.

    >>> c = Party("consumer", Role.CONSUMER)
    >>> c.is_principal
    True
    >>> Party("t1", Role.TRUSTED).is_trusted
    True
    """

    __slots__ = ()

    def __new__(cls, name: str, role: Role) -> Party:
        if not _NAME_RE.fullmatch(name):
            raise ModelError(
                f"invalid party name {name!r}: names must start with a "
                "letter and contain only letters, digits, '_' or '-'"
            )
        return super().__new__(cls, name, role)

    @property
    def is_principal(self) -> bool:
        """Whether this party is a principal (non-trusted) participant."""
        return self.role is not _TRUSTED

    @property
    def is_trusted(self) -> bool:
        """Whether this party is a trusted component."""
        return self.role is _TRUSTED

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def consumer(name: str) -> Party:
    """Create a consumer principal (paper §2.1)."""
    return Party(name, Role.CONSUMER)


def broker(name: str) -> Party:
    """Create a broker principal (paper §2.1)."""
    return Party(name, Role.BROKER)


def producer(name: str) -> Party:
    """Create a producer principal (paper §2.1)."""
    return Party(name, Role.PRODUCER)


def trusted(name: str) -> Party:
    """Create a trusted component (paper §2.5)."""
    return Party(name, Role.TRUSTED)


def require_principal(party: Party, context: str) -> Party:
    """Validate that *party* is a principal; raise :class:`ModelError` otherwise."""
    if not party.is_principal:
        raise ModelError(f"{context}: {party.name} is a trusted component, not a principal")
    return party


def require_trusted(party: Party, context: str) -> Party:
    """Validate that *party* is a trusted component; raise otherwise."""
    if not party.is_trusted:
        raise ModelError(f"{context}: {party.name} is a principal, not a trusted component")
    return party
