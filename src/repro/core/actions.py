"""Actions of the exchange formalism (paper §2.2, §2.5).

Only actions that *transfer* something between parties are modeled, plus the
``notify`` action available to trusted components:

* ``give_{a->b}(d)`` — *a* gives *b* item *d* (:func:`give`).
* ``pay_{b->a}(m)`` — *b* pays *a* amount *m*; a special case of give
  (:func:`pay`).
* ``give⁻¹`` / ``pay⁻¹`` — the mathematical inverse, compensating the original
  transfer (the recipient returns the item to the sender; :meth:`Action.inverse`).
* ``notify(x)`` — a trusted component informs principal *x* that all other
  parts of the exchange are in place (:func:`notify`).

Actions populate the unordered *state sets* of §2.3, and every layer from
protocol synthesis to the wire builds, hashes and reads them per message, so
an :class:`Action` is a tuple of its fields (a validated ``NamedTuple``):
construction checks its fields once, and hashing, equality and field reads
run in C.  The paper attaches deadlines to transfers toward trusted
components (§2.2); :class:`Action` carries an optional ``deadline`` which the
formal machinery ignores (the paper assumes generous deadlines) but the
simulator enforces.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from repro.core.items import Item, Money
from repro.core.parties import Party
from repro.errors import ModelError


class ActionKind(enum.Enum):
    """Discriminates the three action schemas of §2.2/§2.5."""

    GIVE = "give"
    PAY = "pay"
    NOTIFY = "notify"

    __hash__ = object.__hash__  # singletons: hash by identity, in C


# Bound once: reading ``ActionKind.NOTIFY`` goes through the enum metaclass's
# ``__getattr__`` hook, several times the cost of a module global.
_GIVE = ActionKind.GIVE
_PAY = ActionKind.PAY
_NOTIFY = ActionKind.NOTIFY


class _ActionFields(NamedTuple):
    kind: ActionKind
    sender: Party
    recipient: Party
    item: Item | None = None
    inverted: bool = False
    deadline: float | None = None


class Action(_ActionFields):
    """One action instance: a transfer, its inverse, or a notification.

    ``inverted`` marks the compensation action (``give⁻¹``/``pay⁻¹``): the
    *same* sender/recipient/item as the original, flagged as reversed, exactly
    as the paper writes ``give⁻¹_{a->b}(d)`` for the return of *d* from *b*
    to *a*.

    For ``NOTIFY``, ``sender`` is the trusted component and ``recipient`` the
    notified principal; ``item`` is ``None``.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: ActionKind,
        sender: Party,
        recipient: Party,
        item: Item | None = None,
        inverted: bool = False,
        deadline: float | None = None,
    ) -> Action:
        if kind is _NOTIFY:
            if item is not None:
                raise ModelError("notify actions carry no item")
            if inverted:
                raise ModelError("notify actions cannot be inverted")
            if not sender.is_trusted:
                raise ModelError(
                    f"only trusted components may notify; {sender.name} is a principal"
                )
        else:
            if item is None:
                raise ModelError(f"{kind.value} actions require an item")
            if kind is _PAY and not isinstance(item, Money):
                raise ModelError("pay actions must transfer Money")
            if kind is _GIVE and isinstance(item, Money):
                raise ModelError("money transfers must use pay, not give")
        if sender == recipient:
            raise ModelError(f"{sender.name} cannot perform an action on itself")
        if deadline is not None and deadline < 0:
            raise ModelError("deadlines must be non-negative")
        return super().__new__(cls, kind, sender, recipient, item, inverted, deadline)

    def _replace(self, /, **changes: Any) -> Action:
        """A copy with *changes* to its fields, checked like a new action.

        (``NamedTuple._replace`` would build the copy unchecked.)
        """
        action = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return action

    @property
    def is_transfer(self) -> bool:
        """True for give/pay (and their inverses), False for notify."""
        return self.kind is not _NOTIFY

    def inverse(self) -> Action:
        """The compensating action (``give⁻¹``/``pay⁻¹``) for this transfer.

        Inverting twice restores the original action, matching the paper's
        treatment of the inverse as a mathematical involution.

        >>> from repro.core.items import document
        >>> from repro.core.parties import producer, trusted
        >>> sale = give(producer("P"), trusted("T"), document("d"))
        >>> print(sale.inverse())
        give^-1[P->T](d)
        >>> sale.inverse().inverse() == sale
        True
        """
        if self.kind is _NOTIFY:
            raise ModelError("notify actions have no inverse")
        return Action(self.kind, self.sender, self.recipient, self.item, not self.inverted)

    def compensates(self, other: Action) -> bool:
        """Whether this action is exactly the inverse of *other*.

        Deadlines are ignored, so a returned deposit compensates the deposit
        whatever deadline either carries:

        >>> from repro.core.items import money
        >>> from repro.core.parties import consumer, trusted
        >>> deposit = pay(consumer("C"), trusted("T"), money(12), deadline=40.0)
        >>> deposit.inverse().compensates(deposit)
        True
        >>> deposit.compensates(deposit)
        False
        """
        if not other.is_transfer or not self.is_transfer:
            return False
        return self.inverse() == other._replace(deadline=None) or (
            self._replace(deadline=None) == other.inverse()
        )

    @property
    def effective_sender(self) -> Party:
        """Who physically relinquishes the item (the recipient, if inverted)."""
        return self.recipient if self.inverted else self.sender

    @property
    def effective_recipient(self) -> Party:
        """Who physically obtains the item (the sender, if inverted)."""
        return self.sender if self.inverted else self.recipient

    def __str__(self) -> str:
        if self.kind is _NOTIFY:
            return f"notify[{self.sender}]({self.recipient})"
        sup = "^-1" if self.inverted else ""
        return f"{self.kind.value}{sup}[{self.sender}->{self.recipient}]({self.item})"


def give(sender: Party, recipient: Party, item: Item, deadline: float | None = None) -> Action:
    """``give_{sender->recipient}(item)`` — transfer a good (§2.2).

    >>> from repro.core.items import document
    >>> from repro.core.parties import producer, trusted
    >>> sale = give(producer("P"), trusted("T"), document("d"))
    >>> print(sale)
    give[P->T](d)
    >>> sale.is_transfer, sale.effective_recipient.name
    (True, 'T')
    """
    return Action(_GIVE, sender, recipient, item, deadline=deadline)


def pay(sender: Party, recipient: Party, amount: Money, deadline: float | None = None) -> Action:
    """``pay_{sender->recipient}(amount)`` — transfer money (§2.2)."""
    return Action(_PAY, sender, recipient, amount, deadline=deadline)


def transfer(sender: Party, recipient: Party, item: Item, deadline: float | None = None) -> Action:
    """Create a give or pay depending on whether *item* is money."""
    if isinstance(item, Money):
        return pay(sender, recipient, item, deadline=deadline)
    return give(sender, recipient, item, deadline=deadline)


def notify(trusted_component: Party, principal: Party) -> Action:
    """``notify(principal)`` issued by *trusted_component* (§2.5).

    >>> from repro.core.parties import consumer, trusted
    >>> print(notify(trusted("T"), consumer("C")))
    notify[T](C)
    """
    return Action(_NOTIFY, trusted_component, principal)
