"""Unit tests for the trusted component's driver: the §2.5 escrow machine.

Each test feeds a :class:`TrustedDriver` events — deliveries, timer
firings — without a network or principals, and checks the commands it
returns: acceptance, rejection, notify, release ordering, timeout
reversal, and indemnity settlement.
"""

from repro.core.actions import ActionKind, give, pay
from repro.core.indemnity import IndemnityOffer
from repro.core.items import cents, document, money
from repro.core.parties import consumer, producer, trusted
from repro.core.protocol import EscrowEntry, TrustedExchangeSpec
from repro.sim.driver import TrustedDriver
from tests.sim.driver_harness import Harness

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")
M = money(10)


def _escrows(offers):
    """The escrow entries of *offers*, as the protocol compiles them."""
    return tuple(
        EscrowEntry(o.offeror, o.deposit_action().item, o.offeror, o.beneficiary) for o in offers
    )


def _spec(deadline=None, indemnities=()):
    return TrustedExchangeSpec(
        agent=T,
        entries=(EscrowEntry(C, M, P), EscrowEntry(P, D, C), *_escrows(indemnities)),
        deadline=deadline,
    )


def _driver(spec):
    """A trusted driver on the reliable wire: its only timer is the deadline."""
    return TrustedDriver(spec, 0, (), retransmit=False)


def _escrow(deadline=None, indemnities=()):
    runtime = Harness(_driver(_spec(deadline, indemnities)))
    return runtime.driver, runtime


class TestDeposits:
    def test_first_deposit_triggers_notify_to_other(self):
        driver, runtime = _escrow()
        runtime.deliver(pay(C, T, M))
        assert len(runtime.out) == 1
        notice = runtime.out[0]
        assert notice.kind is ActionKind.NOTIFY
        assert notice.recipient == P

    def test_second_deposit_releases_goods_before_money(self):
        driver, runtime = _escrow()
        runtime.deliver(pay(C, T, M))
        runtime.deliver(give(P, T, D))
        assert driver.completed
        releases = runtime.out[1:]
        assert [a.item.is_money for a in releases] == [False, True]
        assert releases[0].recipient == C and releases[1].recipient == P

    def test_duplicate_deposit_bounced(self):
        driver, runtime = _escrow()
        first = pay(C, T, M)
        runtime.deliver(first)
        runtime.deliver(first)
        bounced = runtime.out[-1]
        assert bounced == first.inverse()
        assert driver.rejected == [first]

    def test_unknown_depositor_bounced(self):
        driver, runtime = _escrow()
        stranger = consumer("stranger")
        stray = pay(stranger, T, M)
        runtime.deliver(stray)
        assert runtime.out == [stray.inverse()]

    def test_wrong_item_bounced(self):
        driver, runtime = _escrow()
        bogus = give(P, T, document("junk"))
        runtime.deliver(bogus)
        assert runtime.out == [bogus.inverse()]
        assert not driver.held

    def test_deposit_after_completion_bounced(self):
        driver, runtime = _escrow()
        runtime.deliver(pay(C, T, M))
        runtime.deliver(give(P, T, D))
        late = pay(C, T, M)
        runtime.deliver(late)
        assert runtime.out[-1] == late.inverse()

    def test_notify_sent_once_only(self):
        driver, runtime = _escrow()
        runtime.deliver(pay(C, T, M))
        bogus = give(P, T, document("junk"))
        runtime.deliver(bogus)  # bounced; P still pending
        notifies = [a for a in runtime.out if a.kind is ActionKind.NOTIFY]
        assert len(notifies) == 1

    def test_inverted_and_notify_inputs_ignored(self):
        from repro.core.actions import notify as make_notify

        driver, runtime = _escrow()
        runtime.deliver(pay(C, T, M).inverse())
        runtime.deliver(make_notify(trusted("other"), C))
        assert runtime.out == []


class TestTimeout:
    def test_timeout_reverses_held_deposits(self):
        driver, runtime = _escrow(deadline=5.0)
        deposit = pay(C, T, M)
        runtime.deliver(deposit)
        runtime.fire_all()
        assert driver.reversed
        assert deposit.inverse() in runtime.out

    def test_completion_cancels_timeout(self):
        driver, runtime = _escrow(deadline=5.0)
        runtime.deliver(pay(C, T, M))
        runtime.deliver(give(P, T, D))
        runtime.fire_all()
        assert driver.completed and not driver.reversed

    def test_deposit_after_reversal_bounced(self):
        driver, runtime = _escrow(deadline=5.0)
        runtime.deliver(pay(C, T, M))
        runtime.fire_all()
        late = give(P, T, D)
        runtime.deliver(late)
        assert runtime.out[-1] == late.inverse()

    def test_no_deadline_never_reverses(self):
        driver, runtime = _escrow(deadline=None)
        runtime.deliver(pay(C, T, M))
        runtime.fire_all()
        assert not driver.reversed

    def test_notify_expiry_equals_timeout_time(self):
        driver, runtime = _escrow(deadline=5.0)
        runtime.deliver(pay(C, T, M))
        notice = runtime.out[0]
        assert notice.deadline == 5.0  # queue starts at t=0


class TestPartialDeposits:
    """Deadline-expiry reversal and settlement with three depositors.

    The two-party cases above never exercise the reversal loop over
    *several* held deposits, nor forfeit settlement when the beneficiary is
    one of many performers — exactly the partial-deposit interleavings the
    chaos harness generates."""

    B = consumer("b")
    D2 = document("d2")

    def _spec3(self, deadline=5.0, indemnities=()):
        return TrustedExchangeSpec(
            agent=T,
            entries=(
                EscrowEntry(C, M, P),
                EscrowEntry(self.B, money(20), P),
                EscrowEntry(P, D, C),
                *_escrows(indemnities),
            ),
            deadline=deadline,
        )

    def _escrow3(self, deadline=5.0, indemnities=()):
        runtime = Harness(_driver(self._spec3(deadline, indemnities)))
        return runtime.driver, runtime

    def test_timeout_reverses_every_held_deposit(self):
        driver, runtime = self._escrow3()
        first = pay(C, T, M)
        second = pay(self.B, T, money(20))
        runtime.deliver(first)
        runtime.deliver(second)  # P never ships: two of three deposits held
        runtime.fire_all()
        assert driver.reversed and not driver.completed
        assert first.inverse() in runtime.out
        assert second.inverse() in runtime.out
        assert driver.held == {}

    def test_partial_deposit_does_not_notify_until_one_outstanding(self):
        driver, runtime = self._escrow3()
        runtime.deliver(pay(C, T, M))
        notifies = [a for a in runtime.out if a.kind is ActionKind.NOTIFY]
        assert notifies == []  # two still pending: nobody is "last"
        runtime.deliver(pay(self.B, T, money(20)))
        notifies = [a for a in runtime.out if a.kind is ActionKind.NOTIFY]
        assert len(notifies) == 1 and notifies[0].recipient == P

    def test_forfeit_under_partial_deposits(self):
        from repro.core.indemnity import IndemnityOffer
        from repro.core.interaction import InteractionEdge

        offer = IndemnityOffer(
            offeror=P,
            beneficiary=C,
            via=T,
            covers=InteractionEdge(C, T, M),
            amount_cents=500,
        )
        driver, runtime = self._escrow3(indemnities=(offer,))
        escrow = offer.deposit_action()
        runtime.deliver(escrow)
        runtime.deliver(pay(C, T, M))            # beneficiary performs
        runtime.deliver(pay(self.B, T, money(20)))  # bystander performs too
        runtime.fire_all()                     # offeror P never ships
        forfeits = [
            a for a in runtime.out
            if a.is_transfer and not a.inverted and a.recipient == C
            and "indemnity" in a.item.label
        ]
        assert len(forfeits) == 1
        # The bystander's deposit is reversed, not forfeited to anyone.
        assert pay(self.B, T, money(20)).inverse() in runtime.out

    def test_refund_when_beneficiary_among_absentees(self):
        from repro.core.indemnity import IndemnityOffer
        from repro.core.interaction import InteractionEdge

        offer = IndemnityOffer(
            offeror=P,
            beneficiary=C,
            via=T,
            covers=InteractionEdge(C, T, M),
            amount_cents=500,
        )
        driver, runtime = self._escrow3(indemnities=(offer,))
        escrow = offer.deposit_action()
        runtime.deliver(escrow)
        runtime.deliver(pay(self.B, T, money(20)))  # only the bystander performs
        runtime.fire_all()
        assert escrow.inverse() in runtime.out  # refunded, not forfeited


class TestDuplicateSuppression:
    def test_same_envelope_key_suppressed_not_bounced(self):
        driver, runtime = _escrow()
        deposit = pay(C, T, M)
        runtime.deliver(deposit, key="c:7")
        runtime.deliver(deposit, key="c:7")  # transport re-delivered the same copy
        assert driver.rejected == []
        bounces = [a for a in runtime.out if a.inverted]
        assert bounces == []

    def test_distinct_keys_still_bounce_true_overdeposit(self):
        driver, runtime = _escrow()
        deposit = pay(C, T, M)
        runtime.deliver(deposit, key="c:7")
        runtime.deliver(deposit, key="c:8")  # a genuinely new send: over-deposit
        assert driver.rejected == [deposit]
        assert runtime.out[-1] == deposit.inverse()


class TestIndemnities:
    def _offer(self):
        graph_edge = None
        # A synthetic edge object is unnecessary: offers only use parties
        # and the amount inside the driver.
        from repro.core.interaction import InteractionEdge

        graph_edge = InteractionEdge(C, T, M)
        return IndemnityOffer(
            offeror=P, beneficiary=C, via=T, covers=graph_edge, amount_cents=500
        )

    def _escrow_action(self, offer):
        return pay(P, T, cents(offer.amount_cents, tag=f"indemnity-{offer.covers.label}"))

    def test_escrow_recognized_not_treated_as_deposit(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=5.0, indemnities=(offer,))
        runtime.deliver(self._escrow_action(offer))
        assert list(driver.held) == list(_escrows([offer]))
        assert runtime.out == []  # no bounce, no notify

    def test_escrow_refunded_on_completion(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=50.0, indemnities=(offer,))
        escrow = self._escrow_action(offer)
        runtime.deliver(escrow)
        runtime.deliver(pay(C, T, M))
        runtime.deliver(give(P, T, D))
        assert escrow.inverse() in runtime.out

    def test_escrow_forfeited_when_beneficiary_performed(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=5.0, indemnities=(offer,))
        runtime.deliver(self._escrow_action(offer))
        runtime.deliver(pay(C, T, M))  # beneficiary performs; offeror never does
        runtime.fire_all()
        forfeits = [
            a
            for a in runtime.out
            if a.is_transfer
            and not a.inverted
            and a.sender == T
            and a.recipient == C
            and "indemnity" in a.item.label
        ]
        assert len(forfeits) == 1

    def test_escrow_refunded_when_beneficiary_idle(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=5.0, indemnities=(offer,))
        escrow = self._escrow_action(offer)
        runtime.deliver(escrow)
        # Nobody deposits; timeout fires only if armed — escrows alone do
        # not arm it, so force one deposit from the offeror side.
        runtime.deliver(give(P, T, D))
        runtime.fire_all()
        assert escrow.inverse() in runtime.out

    def test_escrow_after_completion_bounced(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=50.0, indemnities=(offer,))
        runtime.deliver(pay(C, T, M))
        runtime.deliver(give(P, T, D))
        late = self._escrow_action(offer)
        runtime.deliver(late)
        assert runtime.out[-1] == late.inverse()
        assert driver.held == {} and driver.custody.cents == 0

    def test_escrow_after_reversal_bounced(self):
        offer = self._offer()
        driver, runtime = _escrow(deadline=5.0, indemnities=(offer,))
        runtime.deliver(pay(C, T, M))
        runtime.fire_all()
        late = self._escrow_action(offer)
        runtime.deliver(late)
        assert runtime.out[-1] == late.inverse()
        assert driver.held == {} and driver.custody.cents == 0

    def test_escrow_is_found_by_its_item_not_its_label(self):
        # The offeror's amount under another "indemnity" tag is no escrow.
        offer = self._offer()
        driver, runtime = _escrow(deadline=5.0, indemnities=(offer,))
        stray = pay(P, T, cents(offer.amount_cents, tag="indemnity-x"))
        runtime.deliver(stray)
        assert runtime.out == [stray.inverse()]
        assert driver.held == {}
