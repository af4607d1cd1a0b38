"""How a principal deviates from its role.

An honest principal follows its synthesized :class:`PrincipalRole` (see
:class:`repro.sim.driver.PrincipalDriver`).  An :class:`AdversaryStrategy`
deviates in the ways the paper worries about:

* :func:`withholder` — performs the first *after* instructions, then
  reneges (the publisher that keeps the money, the customer that refuses to
  pay);
* :func:`wrong_item_sender` — substitutes a bogus item for a promised
  document (the publisher that "might provide an incorrect document", §1);
* :func:`slow_party` — honours its role but delays each send.

The point of the safety benchmarks is that under the synthesized protocol
*no honest party is harmed* whatever these adversaries do, whereas naive
direct exchange harms someone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.items import Document, Item


@dataclass(frozen=True)
class AdversaryStrategy:
    """How a deviating principal deviates.

    ``perform`` — number of leading instructions executed honestly before
    withholding everything else (0 = total no-show).
    ``substitute`` — map from document label to the bogus item sent instead.
    """

    perform: int = 0
    substitute: dict[str, Item] | None = None
    delay: float = 0.0  # extra think-time before each send (a slow party)

    def describe(self) -> str:
        parts = [f"performs first {self.perform} instruction(s)"]
        if self.substitute:
            swaps = ", ".join(f"{k}->{v}" for k, v in self.substitute.items())
            parts.append(f"substitutes {swaps}")
        if self.delay:
            parts.append(f"delays each send by {self.delay}")
        return "; ".join(parts)


def withholder(after: int = 0) -> AdversaryStrategy:
    """A strategy that reneges after *after* honest instructions."""
    return AdversaryStrategy(perform=after)


def wrong_item_sender(original_label: str, bogus_label: str = "bogus") -> AdversaryStrategy:
    """A strategy that ships a bogus document instead of *original_label*."""
    return AdversaryStrategy(
        perform=10**9, substitute={original_label: Document(bogus_label)}
    )


def slow_party(delay: float) -> AdversaryStrategy:
    """A party that honours its role but thinks for *delay* before each send.

    Exercises the §2.2/§2.5 temporal semantics: deposits arriving after the
    trusted component's deadline bounce, and notifications expire.
    """
    return AdversaryStrategy(perform=10**9, delay=delay)
