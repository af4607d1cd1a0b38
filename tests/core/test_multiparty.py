"""Unit tests for multi-party trusted agents (the §9 extension)."""

import pytest

from repro.core.execution import StepKind
from repro.core.interaction import InteractionGraph
from repro.core.items import document, money
from repro.core.parties import broker, consumer, producer, trusted
from repro.core.problem import ExchangeProblem
from repro.errors import GraphError

A, B, C = broker("A"), broker("B"), broker("C")
T = trusted("T")
DA, DB, DC = document("dA"), document("dB"), document("dC")


def ring_problem() -> ExchangeProblem:
    graph = InteractionGraph()
    for p in (A, B, C):
        graph.add_principal(p)
    graph.add_trusted(T)
    graph.add_multi_exchange(T, [(A, DA), (B, DB), (C, DC)])
    return ExchangeProblem("ring", graph).validate(allow_multiparty=True)


class TestConstruction:
    def test_ring_entitlements_default(self):
        problem = ring_problem()
        graph = problem.interaction
        assert graph.expects(graph.find_edge("A", "T")) == DC
        assert graph.expects(graph.find_edge("B", "T")) == DA
        assert graph.expects(graph.find_edge("C", "T")) == DB

    def test_explicit_entitlements(self):
        graph = InteractionGraph()
        seller = producer("S")
        buyer1, buyer2 = consumer("X"), consumer("Y")
        t = trusted("M")
        for p in (seller, buyer1, buyer2):
            graph.add_principal(p)
        graph.add_trusted(t)
        # One seller auctions one doc to X; Y pays the seller a referral fee
        # and receives X's payment note?  Keep it simple: a 3-cycle of
        # money and goods with explicit mapping.
        m1, m2 = money(5, tag="x"), money(3, tag="y")
        d = document("d")
        graph.add_multi_exchange(
            t,
            [(seller, d), (buyer1, m1), (buyer2, m2)],
            entitlements={seller: m2, buyer1: d, buyer2: m1},
        )

    def test_deposit_to_two_members_rejected(self):
        # m1 would go to both S and Y, and m2 to nobody.
        graph = InteractionGraph()
        seller, buyer1, buyer2 = producer("S"), consumer("X"), consumer("Y")
        for p in (seller, buyer1, buyer2):
            graph.add_principal(p)
        graph.add_trusted(T)
        m1, m2, d = money(5, tag="x"), money(3, tag="y"), document("d")
        with pytest.raises(GraphError, match="exactly one member"):
            graph.add_multi_exchange(
                T,
                [(seller, d), (buyer1, m1), (buyer2, m2)],
                entitlements={seller: m1, buyer1: d, buyer2: m1},
            )

    def test_entitlement_must_be_deposited(self):
        graph = InteractionGraph()
        for p in (A, B):
            graph.add_principal(p)
        graph.add_trusted(T)
        with pytest.raises(GraphError, match="not deposited"):
            graph.add_multi_exchange(
                T, [(A, DA), (B, DB)], entitlements={A: DC, B: DA}
            )

    def test_own_deposit_back_rejected(self):
        graph = InteractionGraph()
        for p in (A, B):
            graph.add_principal(p)
        graph.add_trusted(T)
        with pytest.raises(GraphError, match="own deposit"):
            graph.add_multi_exchange(
                T, [(A, DA), (B, DB)], entitlements={A: DA, B: DB}
            )

    def test_entitlements_must_cover_members(self):
        graph = InteractionGraph()
        for p in (A, B, C):
            graph.add_principal(p)
        graph.add_trusted(T)
        with pytest.raises(GraphError, match="cover exactly"):
            graph.add_multi_exchange(
                T, [(A, DA), (B, DB)], entitlements={A: DB}
            )

    def test_single_member_rejected(self):
        graph = InteractionGraph()
        graph.add_principal(A)
        graph.add_trusted(T)
        with pytest.raises(GraphError, match="at least two"):
            graph.add_multi_exchange(T, [(A, DA)])

    def test_validation_requires_multiparty_flag(self):
        problem = ring_problem()
        with pytest.raises(GraphError, match="multiparty"):
            problem.interaction.validate()

    def test_copy_preserves_entitlements(self):
        problem = ring_problem()
        clone = problem.interaction.copy()
        assert clone.expects(clone.find_edge("A", "T")) == DC


class TestPipeline:
    def test_ring_is_feasible(self):
        assert ring_problem().feasibility().feasible

    def test_ring_execution_shape(self):
        sequence = ring_problem().execution_sequence()
        kinds = [s.kind for s in sequence.steps]
        assert kinds.count(StepKind.DEPOSIT) == 3
        assert kinds.count(StepKind.NOTIFY) == 1  # only the last straggler
        assert kinds.count(StepKind.RELEASE) == 3
        assert sequence.violated_constraints() == []

    def test_ring_releases_route_by_entitlement(self):
        sequence = ring_problem().execution_sequence()
        releases = {
            s.action.recipient.name: s.action.item.label
            for s in sequence.steps
            if s.kind is StepKind.RELEASE
        }
        assert releases == {"A": "dC", "B": "dA", "C": "dB"}


class TestSimulation:
    def test_honest_ring_completes(self):
        from repro.sim import evaluate_safety, simulate

        problem = ring_problem()
        result = simulate(problem)
        assert len(result.completed_agents) == 1
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe()
        final_docs = {
            p.name: sorted(result.final.documents_of(p))
            for p in problem.interaction.principals
        }
        assert final_docs == {"A": ["dC"], "B": ["dA"], "C": ["dB"]}

    def test_ring_with_defector_reverses_everyone(self):
        from repro.sim import evaluate_safety, simulate, withholder

        problem = ring_problem()
        result = simulate(problem, adversaries={"C": withholder(0)}, deadline=40.0)
        report = evaluate_safety(problem, result)
        assert report.honest_parties_safe(frozenset({"C"}))
        # A and B got their documents back.
        for name, doc in (("A", "dA"), ("B", "dB")):
            party = next(p for p in problem.interaction.principals if p.name == name)
            assert doc in result.final.documents_of(party)
