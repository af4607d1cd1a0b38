"""The party driver's own machinery: keys, dedup, the retry schedule, the
deadline's place in the command order, custody on abandon, and a
principal's walk of its synthesized role."""

from __future__ import annotations

import pytest

from repro.core.actions import give, notify, pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.core.protocol import (
    EscrowEntry,
    PrincipalRole,
    SendInstruction,
    TrustedExchangeSpec,
    derive_protocol,
)
from repro.errors import ProtocolError
from repro.sim.agents import withholder
from repro.sim.driver import (
    Abandon,
    Got,
    Log,
    PrincipalDriver,
    Send,
    Timer,
    TrustedDriver,
)
from repro.sim.faults import RetryPolicy
from repro.sim.ledger import initial_ledger
from repro.workloads import example1, simple_purchase
from tests.sim.driver_harness import Harness

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")
M = money(10)


def _payer(retransmit=True, cents=1000):
    """c pays t at start: one unguarded instruction."""
    role = PrincipalRole(C, (SendInstruction(1, pay(C, T, M), frozenset()),))
    return Harness(PrincipalDriver(C, role, cents, (), retransmit=retransmit))


def _escrow(deadline=None, retransmit=True):
    spec = TrustedExchangeSpec(
        agent=T, entries=(EscrowEntry(C, M, P), EscrowEntry(P, D, C)), deadline=deadline
    )
    return Harness(TrustedDriver(spec, 0, (), retransmit=retransmit))


def _schedule(runtime, key):
    """Fire *key*'s retry timers until it is abandoned, on a wire that
    drops everything: (attempt instants, abandon instant)."""
    instants = [runtime.now]
    while key in runtime.timers:
        for command in runtime.fire(key):
            if isinstance(command, Send):
                instants.append(runtime.now)
            elif isinstance(command, Abandon):
                return instants, runtime.now
    raise AssertionError(f"{key} was never abandoned")


class TestRetrySchedule:
    def test_principal_default_schedule(self):
        runtime = _payer()
        runtime.start()
        instants, abandon = _schedule(runtime, "c:1")
        assert instants == [0, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160]
        assert abandon == 176

    def test_trusted_schedule_retries_32_times(self):
        runtime = _escrow()
        runtime.deliver(give(P, T, document("junk")))  # bounced at once
        instants, abandon = _schedule(runtime, "t:1")
        assert instants == [0, 4, 8, 16] + [32 + 16 * k for k in range(29)]
        assert len(instants) == 33 and instants[-1] == 480
        assert abandon == 496

    def test_policies(self):
        assert PrincipalDriver.retry_policy == RetryPolicy()
        assert TrustedDriver.retry_policy == RetryPolicy(max_retries=32)

    def test_attempts_are_numbered_on_the_wire(self):
        runtime = _payer()
        runtime.start()
        runtime.fire("c:1")
        runtime.fire("c:1")
        sends = [c for c in runtime.commands if isinstance(c, Send)]
        assert [(s.key, s.attempt) for s in sends] == [("c:1", 1), ("c:1", 2), ("c:1", 3)]
        # Only the first offer carries its log record.
        assert [s.record for s in sends] == [("send", "c:1", pay(C, T, M)), None, None]

    def test_reliable_wire_sets_no_retry_timer(self):
        runtime = _payer(retransmit=False)
        runtime.start()
        assert runtime.out == [pay(C, T, M)]
        assert runtime.timers == {}
        assert runtime.driver.unacked == {}  # delivery is certain

    def test_retry_timer_firing_after_its_ack_yields_nothing(self):
        runtime = _payer()
        runtime.start()
        assert runtime.ack("c:1") == [Log(("ack", "c:1"))]
        assert runtime.fire("c:1") == []
        assert runtime.driver.unacked == {}

    def test_second_ack_yields_nothing(self):
        runtime = _payer()
        runtime.start()
        runtime.ack("c:1")
        assert runtime.ack("c:1") == []

    def test_abandon_after_last_retry_returns_custody(self):
        runtime = _payer()
        runtime.start()
        assert runtime.driver.custody.cents == 0
        _schedule(runtime, "c:1")
        assert runtime.commands[-1] == Abandon("c:1", ("abandon", "c:1"))
        assert runtime.driver.custody.cents == 1000
        assert runtime.driver.unacked == {}


def _role_player(problem, name, strategy=None, cents=None):
    """The driver of principal *name* in *problem*'s synthesized protocol,
    endowed as the simulator endows it, on the reliable wire."""
    protocol = derive_protocol(problem, 60.0)
    initial = initial_ledger(problem.interaction, protocol).seal()
    party = next(p for p in protocol.roles if p.name == name)
    return Harness(
        PrincipalDriver(
            party,
            protocol.role_of(party),
            initial.balance(party) if cents is None else cents,
            initial.documents_of(party),
            strategy,
            retransmit=False,
        )
    )


class TestPrincipal:
    def test_unguarded_instruction_fires_at_start(self):
        runtime = _role_player(simple_purchase(), "Customer")
        runtime.start()
        assert runtime.out == [runtime.driver.role.instructions[0].action]
        assert runtime.out[0].is_transfer
        assert runtime.driver.phase() == "exhausted"
        runtime.start()
        assert len(runtime.out) == 1  # never re-fires

    def test_guarded_instruction_waits_for_its_preconditions(self):
        runtime = _role_player(example1(), "Broker")
        runtime.start()
        assert runtime.out == []  # both instructions are guarded
        first = runtime.driver.role.instructions[0]
        for precondition in first.preconditions:
            runtime.deliver(precondition)
        assert runtime.out == [first.action]
        assert runtime.driver.phase() == "active"  # the second is still guarded

    def test_the_deadline_stamp_is_stripped_before_matching(self):
        runtime = _role_player(example1(), "Broker")
        first = runtime.driver.role.instructions[0]
        for precondition in first.preconditions:
            runtime.deliver(precondition._replace(deadline=42.0))  # a live §2.5 stamp
        assert runtime.out == [first.action]
        assert all(action.deadline is None for action in runtime.driver.observed)

    def test_the_custody_gate_waits_without_advancing(self):
        runtime = _role_player(simple_purchase(), "Customer", cents=0)
        runtime.start()
        assert runtime.out == []
        assert runtime.driver.next_instruction == 0
        action = runtime.driver.role.instructions[0].action
        runtime.deliver(pay(action.recipient, action.sender, action.item))  # the funds
        assert runtime.out == [action]
        assert runtime.driver.next_instruction == 1

    def test_a_withholder_performs_nothing(self):
        runtime = _role_player(simple_purchase(), "Customer", withholder(0))
        runtime.start()
        assert runtime.out == []
        assert runtime.driver.phase() == "active"

    def test_the_same_deliveries_give_the_same_commands(self):
        runs = []
        for _ in range(2):
            runtime = _role_player(example1(), "Broker")
            runtime.start()
            for instruction in runtime.driver.role.instructions:
                for precondition in sorted(instruction.preconditions, key=str):
                    runtime.deliver(precondition)
            runs.append(runtime.commands)
        assert runs[0] == runs[1]
        assert len([c for c in runs[0] if isinstance(c, Send)]) == 2


class TestDelivery:
    def test_recv_is_logged_before_got(self):
        runtime = _escrow()
        commands = runtime.deliver(pay(C, T, M), key="c:1")
        assert commands[:2] == [Log(("recv", "c:1", pay(C, T, M))), Got("c:1")]

    def test_duplicate_delivery_yields_only_got(self):
        runtime = _escrow()
        runtime.deliver(pay(C, T, M), key="c:1")
        assert runtime.deliver(pay(C, T, M), key="c:1") == [Got("c:1")]
        assert runtime.driver.rejected == []

    def test_delivery_credits_custody(self):
        runtime = _escrow()
        runtime.deliver(pay(C, T, M), key="c:1")
        runtime.deliver(give(P, T, D), key="p:1")
        # Both released again: goods to c, money to p.
        assert runtime.driver.custody.cents == 0
        assert runtime.driver.custody.documents == set()

    def test_keys_count_per_party(self):
        runtime = _escrow()
        runtime.deliver(pay(C, T, M), key="c:1")
        runtime.deliver(give(P, T, D), key="p:1")
        keys = [c.key for c in runtime.commands if isinstance(c, Send)]
        assert keys == ["t:1", "t:2", "t:3"]  # notify p, then the two releases


class TestDeadline:
    def test_deadline_is_armed_before_the_notify_it_stamps(self):
        runtime = _escrow(deadline=5.0)
        runtime.now = 2.0
        commands = runtime.deliver(pay(C, T, M), key="c:1")
        kinds = [type(c).__name__ for c in commands]
        assert kinds == ["Log", "Got", "Log", "Timer", "Send", "Timer"]
        assert commands[2] == Log(("armed", 7.0))
        assert commands[3] == Timer("deadline", 7.0)
        assert commands[4].action == notify(T, P)._replace(deadline=7.0)

    def test_an_escrow_without_a_deadline_notifies_unstamped(self):
        runtime = _escrow(deadline=None)
        commands = runtime.deliver(pay(C, T, M), key="c:1")
        assert [type(c) for c in commands] == [Log, Got, Send, Timer]
        assert runtime.out == [notify(T, P)]
        assert runtime.out[0].deadline is None

    def test_completion_cancels_the_deadline_before_releasing(self):
        runtime = _escrow(deadline=5.0, retransmit=False)
        runtime.deliver(pay(C, T, M), key="c:1")
        commands = runtime.deliver(give(P, T, D), key="p:1")
        assert commands[2] == Timer("deadline", None)
        assert [type(c) for c in commands[3:]] == [Send, Send]
        assert runtime.driver.armed is False

    def test_deadline_is_logged_before_its_reversals(self):
        runtime = _escrow(deadline=5.0, retransmit=False)
        runtime.deliver(pay(C, T, M), key="c:1")
        commands = runtime.fire("deadline")
        assert commands[0] == Log(("deadline",))
        assert commands[1].action == pay(C, T, M).inverse()
        assert runtime.driver.phase() == "reversed"


class TestRecover:
    def test_empty_log_begins_with_the_endowment(self):
        driver = PrincipalDriver(C, PrincipalRole(C, ()), 700, ("b", "a"))
        assert driver.recover(()) == [Log(("endow", 700, ("a", "b")))]

    def test_unlogged_send_goes_out_fresh_at_start(self):
        live = _escrow(deadline=5.0)
        live.deliver(pay(C, T, M), key="c:1")
        log = [c.record for c in live.commands if isinstance(c, Log)]
        cut = log[: log.index(("recv", "c:1", pay(C, T, M))) + 1]  # before `armed`
        assert cut[0] == ("endow", 0, ())
        driver = TrustedDriver(live.driver.spec, 0, ())
        driver.recover(cut)
        commands = driver.start(3.0)
        assert commands[0] == Log(("armed", 8.0))  # expiry counts from the restart
        assert commands[1] == Timer("deadline", 8.0)
        (send,) = [c for c in commands if isinstance(c, Send)]
        assert send.key == "t:1" and send.record is not None

    def test_logged_unacked_send_is_reoffered_with_its_key(self):
        live = _payer()
        live.start()
        log = [("endow", 1000, ())] + [
            c.record for c in live.commands if isinstance(c, Send) and c.record
        ]
        driver = PrincipalDriver(C, live.driver.role, 1000, ())
        driver.recover(log)
        commands = driver.start(10.0)
        assert commands == [Send("c:1", pay(C, T, M), 1, None), Timer("c:1", 14.0)]
        assert driver.custody.cents == 0

    def test_send_the_core_cannot_regenerate_raises(self):
        driver = PrincipalDriver(C, PrincipalRole(C, ()), 1000, ())
        log = [("endow", 1000, ()), ("send", "c:1", pay(C, T, M))]
        with pytest.raises(ProtocolError, match="WAL replay diverged"):
            driver.recover(log)
