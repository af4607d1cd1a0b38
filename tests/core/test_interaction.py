"""Unit tests for repro.core.interaction (§3 interaction graphs)."""

import pytest

from repro.core.interaction import InteractionGraph, build_interaction_graph
from repro.core.items import document, money
from repro.core.parties import broker, consumer, producer, trusted
from repro.errors import GraphError

C = consumer("c")
B = broker("b")
P = producer("p")
T1 = trusted("t1")
T2 = trusted("t2")
D = document("d")
M = money(10)


def _simple_graph() -> InteractionGraph:
    g = InteractionGraph()
    g.add_principal(C)
    g.add_principal(P)
    g.add_trusted(T1)
    g.add_exchange(C, M, P, D, via=T1)
    return g


class TestRegistration:
    def test_add_principal_idempotent(self):
        g = InteractionGraph()
        g.add_principal(C)
        g.add_principal(C)
        assert g.principals == (C,)

    def test_principal_name_collision_with_trusted(self):
        g = InteractionGraph()
        g.add_principal(consumer("x"))
        with pytest.raises(GraphError):
            g.add_trusted(trusted("x"))

    def test_trusted_name_collision_with_principal(self):
        g = InteractionGraph()
        g.add_trusted(trusted("x"))
        with pytest.raises(GraphError):
            g.add_principal(consumer("x"))

    def test_conflicting_role_same_name(self):
        g = InteractionGraph()
        g.add_principal(consumer("x"))
        with pytest.raises(GraphError):
            g.add_principal(broker("x"))

    def test_wrong_kind_rejected(self):
        g = InteractionGraph()
        with pytest.raises(Exception):
            g.add_principal(T1)
        with pytest.raises(Exception):
            g.add_trusted(C)


class TestEdges:
    def test_add_edge_requires_known_parties(self):
        g = InteractionGraph()
        g.add_principal(C)
        with pytest.raises(GraphError, match="unknown trusted"):
            g.add_edge(C, T1, M)
        g2 = InteractionGraph()
        g2.add_trusted(T1)
        with pytest.raises(GraphError, match="unknown principal"):
            g2.add_edge(C, T1, M)

    def test_duplicate_edge_rejected(self):
        g = _simple_graph()
        with pytest.raises(GraphError, match="duplicate"):
            g.add_edge(C, T1, M)

    def test_tag_permits_parallel_edges(self):
        g = _simple_graph()
        g.add_edge(C, T1, M, tag="second")
        assert len(g.edges_at(C)) == 2

    def test_add_exchange_creates_both_edges(self):
        g = _simple_graph()
        left, right = g.edges
        assert left.principal == C and left.provides == M
        assert right.principal == P and right.provides == D
        assert left.trusted == right.trusted == T1

    def test_degree_and_internal_nodes(self):
        g = _simple_graph()
        assert g.degree(T1) == 2
        assert g.degree(C) == 1
        assert g.internal_nodes() == (T1,)

    def test_counterparts_and_expects(self):
        g = _simple_graph()
        buy, sell = g.edges
        assert g.counterparts(buy) == (sell,)
        assert g.expects(buy) == D
        assert g.expects(sell) == M

    def test_find_edge(self):
        g = _simple_graph()
        assert g.find_edge("c", "t1").provides == M
        with pytest.raises(GraphError):
            g.find_edge("c", "t9")

    def test_shared_intermediaries(self):
        g = _simple_graph()
        assert g.shared_intermediaries(C, P) == (T1,)


class TestPriority:
    def test_mark_priority_records(self):
        g = _simple_graph()
        buy, _ = g.edges
        g.mark_priority(buy)
        assert buy in g.priority_edges

    def test_mark_unknown_edge_rejected(self):
        g = _simple_graph()
        other = InteractionGraph()
        other.add_principal(C)
        other.add_trusted(T2)
        other.add_principal(P)
        stray, _ = other.add_exchange(C, M, P, D, via=T2)
        with pytest.raises(GraphError):
            g.mark_priority(stray)


class TestValidation:
    def test_valid_graph_passes(self):
        _simple_graph().validate()

    def test_dangling_trusted_rejected(self):
        g = _simple_graph()
        g.add_trusted(T2)
        with pytest.raises(GraphError, match="degree"):
            g.validate()

    def test_trusted_with_one_edge_rejected(self):
        g = InteractionGraph()
        g.add_principal(C)
        g.add_principal(P)
        g.add_trusted(T1)
        g.add_edge(C, T1, M)
        with pytest.raises(GraphError, match="at least two"):
            g.validate()

    def test_multiparty_needs_flag(self):
        g = _simple_graph()
        g.add_principal(B)
        g.add_edge(B, T1, document("e"))
        with pytest.raises(GraphError, match="multiparty"):
            g.validate()
        g.validate(allow_multiparty=True)

    def test_identical_provisions_rejected(self):
        g = InteractionGraph()
        g.add_principal(C)
        g.add_principal(P)
        g.add_trusted(T1)
        g.add_edge(C, T1, D)
        g.add_edge(P, T1, D)
        with pytest.raises(GraphError, match="distinct items"):
            g.validate()

    def test_idle_principal_rejected(self):
        g = _simple_graph()
        g.add_principal(B)
        with pytest.raises(GraphError, match="no exchange"):
            g.validate()

    def test_expects_undefined_for_multiparty(self):
        g = _simple_graph()
        g.add_principal(B)
        g.add_edge(B, T1, document("e"))
        with pytest.raises(GraphError, match="entitlement map"):
            g.expects(g.edges[0])

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan")])
    def test_deadline_not_positive_rejected(self, deadline):
        g = _simple_graph()
        with pytest.raises(GraphError, match="positive"):
            g.set_deadline(T1, deadline)
        assert g.deadline_of(T1) is None


class TestConvenience:
    def test_build_interaction_graph(self):
        g = build_interaction_graph(
            principals=[C, B, P],
            trusted=[T1, T2],
            exchanges=[(C, M, B, D, T1), (B, money(8), P, D, T2)],
        )
        g.validate()
        assert len(g.edges) == 4

    def test_copy_is_independent(self):
        g = _simple_graph()
        clone = g.copy()
        clone.mark_priority(clone.edges[0])
        assert g.priority_edges == frozenset()

    def test_str_mentions_parties(self):
        text = str(_simple_graph())
        assert "c" in text and "t1" in text
