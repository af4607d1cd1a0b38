"""Transferable items: goods and money (paper §2.2).

The paper's ``give`` action transfers a *document* and ``pay`` transfers a
*dollar amount*; payment "is only a special case of a give action".  We model
both under a common :class:`Item` interface so ledgers and transfer machinery
are uniform, while keeping the give/pay distinction for action rendering and
for the §5 rule that trusted agents release goods before payments.

Items sit inside every action, ledger key and interaction edge, so each
concrete item is a tuple of its fields (a validated ``NamedTuple``) and
hashes, compares and orders in C; once checked, it is built by
:data:`repro.records.new_record`, with no generated ``__new__`` frame.
:class:`Item` is a field-less mixin that carries the shared behaviour and
serves ``isinstance`` and annotations.

Money amounts are held in integer *cents* to avoid floating-point drift in
ledgers and indemnity sums; the constructors accept floats/ints in dollars.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ModelError
from repro.records import new_record


class Item:
    """Base class for transferable objects.  Identity is the label."""

    __slots__ = ()

    if TYPE_CHECKING:
        # Each concrete item's ``label`` is its first tuple field.

        @property
        def label(self) -> str: ...

    @property
    def is_money(self) -> bool:
        """Whether this item is a monetary amount (a :class:`Money`)."""
        return False

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class _DocumentFields(NamedTuple):
    label: str


class Document(_DocumentFields, Item):
    """A digital good: a document, dataset, or computation result.

    >>> Document("d1").is_money
    False
    """

    __slots__ = ()

    def __new__(cls, label: str) -> Document:
        if not label:
            raise ModelError("item label must be non-empty")
        return new_record(cls, (label,))


class _MoneyFields(NamedTuple):
    label: str
    cents: int


class Money(_MoneyFields, Item):
    """A dollar amount, stored as integer cents.

    The label is derived from the amount so that equal amounts with equal
    labels compare equal; distinct payments of the same amount in one exchange
    should carry distinct labels (use :func:`money` with ``tag``).

    >>> money(10).cents
    1000
    >>> str(money(10))
    '$10.00'
    """

    __slots__ = ()

    def __new__(cls, label: str, cents: int = 0) -> Money:
        if not label:
            raise ModelError("item label must be non-empty")
        if cents < 0:
            raise ModelError(f"money amount must be non-negative, got {cents} cents")
        return new_record(cls, (label, cents))

    @property
    def is_money(self) -> bool:
        return True

    @property
    def dollars(self) -> float:
        """The amount in dollars as a float (for display and analysis)."""
        return self.cents / 100.0

    def __str__(self) -> str:
        return f"${self.cents // 100}.{self.cents % 100:02d}"


def document(label: str) -> Document:
    """Create a document item."""
    return Document(label)


def money(dollars: float | int, tag: str = "") -> Money:
    """Create a :class:`Money` amount from a dollar figure.

    ``tag`` disambiguates multiple payments of the same amount within one
    exchange (e.g. the broker's purchase price vs. the consumer's price).

    >>> money(12.5).cents
    1250
    >>> money(10, tag="resale").label
    '$10.00#resale'
    """
    cents = round(dollars * 100)
    if cents < 0:
        raise ModelError(f"money amount must be non-negative, got {dollars}")
    base = f"${cents // 100}.{cents % 100:02d}"
    label = f"{base}#{tag}" if tag else base
    return Money(label=label, cents=cents)


def cents(amount: int, tag: str = "") -> Money:
    """Create a :class:`Money` amount from integer cents."""
    if amount < 0:
        raise ModelError(f"money amount must be non-negative, got {amount} cents")
    base = f"${amount // 100}.{amount % 100:02d}"
    label = f"{base}#{tag}" if tag else base
    return Money(label=label, cents=amount)
