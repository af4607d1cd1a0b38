"""Unit tests for the asset ledger."""

import pytest

from repro.core.actions import give, pay
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.errors import SimulationError
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.ledger import Ledger, endow_from_interaction
from repro.sim.runtime import Simulation
from repro.workloads import example1, resale_chain

C = consumer("c")
P = producer("p")
T = trusted("t")
D = document("d")


def _funded_ledger():
    ledger = Ledger()
    ledger.endow_money(C, 1000)
    ledger.endow_document(P, "d")
    ledger.seal()
    return ledger


class TestEndowment:
    def test_endow_and_query(self):
        ledger = _funded_ledger()
        assert ledger.balance(C) == 1000
        assert ledger.holder("d") == P
        assert ledger.documents_of(P) == frozenset({"d"})

    def test_endow_after_seal_rejected(self):
        ledger = _funded_ledger()
        with pytest.raises(SimulationError):
            ledger.endow_money(C, 1)
        with pytest.raises(SimulationError):
            ledger.endow_document(C, "e")

    def test_double_document_endowment_rejected(self):
        ledger = Ledger()
        ledger.endow_document(P, "d")
        with pytest.raises(SimulationError):
            ledger.endow_document(C, "d")

    def test_negative_endowment_rejected(self):
        with pytest.raises(SimulationError):
            Ledger().endow_money(C, -5)


class TestTransfers:
    def test_money_moves(self):
        ledger = _funded_ledger()
        ledger.apply(pay(C, T, money(5)))
        assert ledger.balance(C) == 500
        assert ledger.balance(T) == 500
        ledger.check()

    def test_document_moves(self):
        ledger = _funded_ledger()
        ledger.apply(give(P, T, D))
        assert ledger.holder("d") == T
        ledger.check()

    def test_inverse_restores(self):
        ledger = _funded_ledger()
        deposit = pay(C, T, money(5))
        ledger.apply(deposit)
        ledger.apply(deposit.inverse())
        assert ledger.balance(C) == 1000
        assert ledger.balance(T) == 0

    def test_overdraft_rejected(self):
        ledger = _funded_ledger()
        with pytest.raises(SimulationError, match="cannot pay"):
            ledger.apply(pay(C, T, money(50)))

    def test_giving_unheld_document_rejected(self):
        ledger = _funded_ledger()
        with pytest.raises(SimulationError, match="cannot give"):
            ledger.apply(give(C, T, D))

    def test_notify_moves_nothing(self):
        from repro.core.actions import notify

        ledger = _funded_ledger()
        ledger.apply(notify(T, C))
        assert ledger.balance(C) == 1000

    def test_can_transfer(self):
        ledger = _funded_ledger()
        assert ledger.can_transfer(C, money(10))
        assert not ledger.can_transfer(C, money(10.01))
        assert ledger.can_transfer(P, D)
        assert not ledger.can_transfer(C, D)


class TestSnapshotsAndInvariants:
    def test_snapshot_is_immutable_copy(self):
        ledger = _funded_ledger()
        snap = ledger.snapshot()
        ledger.apply(pay(C, T, money(5)))
        assert snap.balance(C) == 1000
        assert snap.documents_of(P) == frozenset({"d"})

    def test_check_detects_negative(self):
        ledger = _funded_ledger()
        ledger._balances[C] = -1  # simulate harness corruption
        ledger._balances[T] = 1001
        with pytest.raises(SimulationError, match="negative"):
            ledger.check()

    def test_check_detects_creation(self):
        ledger = _funded_ledger()
        ledger._balances[T] = 777
        with pytest.raises(SimulationError, match="not conserved"):
            ledger.check()


class TestEndowFromInteraction:
    def test_example1_endowments(self):
        problem = example1()
        ledger = Ledger()
        endow_from_interaction(ledger, problem.interaction)
        parties = {p.name: p for p in problem.interaction.parties}
        assert ledger.balance(parties["Consumer"]) == 1200
        assert ledger.balance(parties["Broker"]) == 1000
        assert ledger.balance(parties["Producer"]) == 0
        # Only the producer starts with the document; the broker resells.
        assert ledger.holder("d") == parties["Producer"]

    def test_chain_endowments_give_doc_to_producer_only(self):
        problem = resale_chain(3, retail=100.0)
        ledger = Ledger()
        endow_from_interaction(ledger, problem.interaction)
        parties = {p.name: p for p in problem.interaction.parties}
        assert ledger.holder("d") == parties["Producer"]

    def test_working_capital_and_extra(self):
        problem = example1()
        parties = {p.name: p for p in problem.interaction.parties}
        ledger = Ledger()
        endow_from_interaction(
            ledger,
            problem.interaction,
            extra_money={parties["Broker"]: 100},
        )
        # No working capital: a principal holds its outlay plus its extra.
        assert ledger.balance(parties["Broker"]) == 1000 + 100
        assert ledger.balance(parties["Producer"]) == 0


def _spy(sim, method):
    """The sim times at which *sim*'s ledger runs *method* (``move`` or
    ``check``), recorded by a wrapper on the ledger instance."""
    times = []
    original = getattr(sim.ledger, method)

    def spy(*args):
        times.append(sim.queue.now)
        return original(*args)

    setattr(sim.ledger, method, spy)
    return times


FAULTY = FaultPlan(
    seed=3, links=(LinkFault(drop=0.3, duplicate=0.2, max_delay=2.0),), heal_at=30.0
)


class TestConservationInTheRun:
    """The ledger scans conservation at every asset movement of a run, and
    only there: a notify moves nothing and is not scanned."""

    def _simulation(self, fault_plan):
        return Simulation.from_problem(example1(), deadline=100.0, fault_plan=fault_plan)

    @pytest.mark.parametrize("fault_plan", [None, FAULTY], ids=["reliable", "faulty"])
    def test_corruption_stops_the_run_at_the_next_movement(self, fault_plan):
        clean = self._simulation(fault_plan)
        moves = _spy(clean, "move")
        clean.run()
        # Corrupt between the first two movements that happen at different
        # instants; the second of them must be the one that fails.
        k = next(i for i in range(len(moves) - 1) if moves[i] < moves[i + 1])
        sim = self._simulation(fault_plan)
        corrupted_moves = _spy(sim, "move")
        consumer = next(p for p in sim.problem.interaction.parties if p.name == "Consumer")

        def corrupt():
            sim.ledger._balances[consumer] += 1  # a harness bug creating money

        sim.queue.schedule_at((moves[k] + moves[k + 1]) / 2, corrupt)
        with pytest.raises(SimulationError, match="money not conserved"):
            sim.run()
        assert sim.queue.now == moves[k + 1]
        assert corrupted_moves == moves[: k + 2]

    def test_one_scan_per_movement_on_the_chain(self):
        sim = Simulation.from_problem(resale_chain(64, retail=1000.0), deadline=100.0)
        moves = _spy(sim, "move")
        scans = _spy(sim, "check")
        result = sim.run()
        assert result.stats.attempts == 247
        assert (result.stats.transfers, result.stats.notifies) == (182, 65)
        assert len(moves) == len(scans) == 182
