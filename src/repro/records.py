"""The one builder of the per-item records of the in-process path.

Calling a ``NamedTuple`` class runs the ``__new__`` that
``collections.namedtuple`` compiles for it, a Python ``lambda`` that takes
the fields by name, fills in defaults and then builds the tuple in C.  The
spec language's tokens, the sequencing graph's nodes and edges, the
reduction and execution steps and the simulator's deliveries are built once
per item, so that frame is paid per item in every layer.
:data:`new_record` is ``tuple.__new__`` itself: it builds a record of class
*cls* from a tuple of its fields with no Python frame at all.

What it skips is the price: it checks no arity and applies no defaults, and
it runs no ``__new__`` of *cls*.  Every call therefore passes every field, in
declaration order, and only a class whose ``__new__`` checks nothing is
built through it; the validated value types (``Party``, ``Document``,
``Money``, ``InteractionEdge``, ``Action``) call it only after their own
checks.  Cold paths, tests and docs keep calling the classes.
"""

from __future__ import annotations

from typing import Any, Protocol, TypeVar, cast

_R = TypeVar("_R", bound="tuple[Any, ...]")


class _RecordBuilder(Protocol):
    """The signature of ``tuple.__new__`` on a tuple subclass."""

    def __call__(self, cls: type[_R], fields: tuple[Any, ...], /) -> _R: ...


new_record = cast(_RecordBuilder, tuple.__new__)
"""Build a record of class *cls* from *fields*, every field in order, in C."""
