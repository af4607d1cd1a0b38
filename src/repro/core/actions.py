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

Actions are frozen value objects so they can populate the unordered *state
sets* of §2.3.  The paper attaches deadlines to transfers toward trusted
components (§2.2); :class:`Action` carries an optional ``deadline`` which the
formal machinery ignores (the paper assumes generous deadlines) but the
simulator enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core.items import Item, Money
from repro.core.parties import Party
from repro.errors import ModelError


class ActionKind(enum.Enum):
    """Discriminates the three action schemas of §2.2/§2.5."""

    GIVE = "give"
    PAY = "pay"
    NOTIFY = "notify"

    __hash__ = object.__hash__  # singletons: hash by identity, in C


@dataclass(frozen=True, order=True)
class Action:
    """One action instance: a transfer, its inverse, or a notification.

    ``inverted`` marks the compensation action (``give⁻¹``/``pay⁻¹``): the
    *same* sender/recipient/item as the original, flagged as reversed, exactly
    as the paper writes ``give⁻¹_{a->b}(d)`` for the return of *d* from *b*
    to *a*.

    For ``NOTIFY``, ``sender`` is the trusted component and ``recipient`` the
    notified principal; ``item`` is ``None``.
    """

    kind: ActionKind
    sender: Party
    recipient: Party
    item: Item | None = None
    inverted: bool = False
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.NOTIFY:
            if self.item is not None:
                raise ModelError("notify actions carry no item")
            if self.inverted:
                raise ModelError("notify actions cannot be inverted")
            if not self.sender.is_trusted:
                raise ModelError(
                    f"only trusted components may notify; {self.sender.name} is a principal"
                )
        else:
            if self.item is None:
                raise ModelError(f"{self.kind.value} actions require an item")
            if self.kind is ActionKind.PAY and not isinstance(self.item, Money):
                raise ModelError("pay actions must transfer Money")
            if self.kind is ActionKind.GIVE and isinstance(self.item, Money):
                raise ModelError("money transfers must use pay, not give")
        if self.sender == self.recipient:
            raise ModelError(f"{self.sender.name} cannot perform an action on itself")
        if self.deadline is not None and self.deadline < 0:
            raise ModelError("deadlines must be non-negative")

    @property
    def is_transfer(self) -> bool:
        """True for give/pay (and their inverses), False for notify."""
        return self.kind is not ActionKind.NOTIFY

    def inverse(self) -> "Action":
        """The compensating action (``give⁻¹``/``pay⁻¹``) for this transfer.

        Inverting twice restores the original action, matching the paper's
        treatment of the inverse as a mathematical involution.
        """
        if self.kind is ActionKind.NOTIFY:
            raise ModelError("notify actions have no inverse")
        return Action(self.kind, self.sender, self.recipient, self.item, not self.inverted)

    def compensates(self, other: "Action") -> bool:
        """Whether this action is exactly the inverse of *other*."""
        if not other.is_transfer or not self.is_transfer:
            return False
        return self.inverse() == replace(other, deadline=None) or (
            replace(self, deadline=None) == other.inverse()
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
        if self.kind is ActionKind.NOTIFY:
            return f"notify[{self.sender}]({self.recipient})"
        sup = "^-1" if self.inverted else ""
        return f"{self.kind.value}{sup}[{self.sender}->{self.recipient}]({self.item})"


def give(sender: Party, recipient: Party, item: Item, deadline: float | None = None) -> Action:
    """``give_{sender->recipient}(item)`` — transfer a good (§2.2)."""
    return Action(ActionKind.GIVE, sender, recipient, item, deadline=deadline)


def pay(sender: Party, recipient: Party, amount: Money, deadline: float | None = None) -> Action:
    """``pay_{sender->recipient}(amount)`` — transfer money (§2.2)."""
    return Action(ActionKind.PAY, sender, recipient, amount, deadline=deadline)


def transfer(sender: Party, recipient: Party, item: Item, deadline: float | None = None) -> Action:
    """Create a give or pay depending on whether *item* is money."""
    if isinstance(item, Money):
        return pay(sender, recipient, item, deadline=deadline)
    return give(sender, recipient, item, deadline=deadline)


def notify(trusted_component: Party, principal: Party) -> Action:
    """``notify(principal)`` issued by *trusted_component* (§2.5)."""
    return Action(ActionKind.NOTIFY, trusted_component, principal)
