"""Unit tests for repro.core.problem (the ExchangeProblem façade)."""

import pytest

from repro.core.reduction import reduce_graph
from repro.errors import GraphError


class TestPipeline:
    def test_sequencing_graph_derivation(self, ex1):
        assert len(ex1.sequencing_graph().commitments) == 4

    def test_reduce_and_feasibility_agree(self, ex1, ex2):
        assert ex1.reduce().feasible == ex1.feasibility().feasible is True
        assert ex2.reduce().feasible == ex2.feasibility().feasible is False

    def test_execution_sequence_roundtrip(self, ex1):
        assert len(ex1.execution_sequence()) == 10

    def test_validate_returns_self(self, ex1):
        assert ex1.validate() is ex1

    def test_validate_raises_on_bad_graph(self, ex1):
        from repro.core.parties import trusted

        broken = ex1.copy()
        broken.interaction.add_trusted(trusted("dangling"))
        with pytest.raises(GraphError):
            broken.validate()


class TestWithTrust:
    def test_with_trust_adds_edge(self, ex2):
        variant = ex2.with_trust("Source1", "Broker1")
        src = next(p for p in variant.interaction.parties if p.name == "Source1")
        b1 = next(p for p in variant.interaction.parties if p.name == "Broker1")
        assert variant.trust.trusts(src, b1)

    def test_with_trust_does_not_mutate_original(self, ex2):
        before = len(ex2.trust)
        ex2.with_trust("Source1", "Broker1")
        assert len(ex2.trust) == before

    def test_with_trust_renames(self, ex2):
        variant = ex2.with_trust("Source1", "Broker1")
        assert "trust(Source1->Broker1)" in variant.name

    def test_with_trust_unknown_party_raises(self, ex2):
        with pytest.raises(KeyError):
            ex2.with_trust("Nobody", "Broker1")


class TestCopy:
    def test_copy_is_deep_enough(self, ex1):
        clone = ex1.copy()
        clone.interaction.mark_priority(clone.interaction.edges[0])
        assert ex1.interaction.priority_edges != clone.interaction.priority_edges

    def test_copy_preserves_name(self, ex1):
        assert ex1.copy().name == ex1.name

    def test_different_strategies_same_verdict(self, ex1, ex2):
        for problem, expected in ((ex1, True), (ex2, False)):
            verdicts = {
                reduce_graph(problem.sequencing_graph(), strategy=s).feasible
                for s in ("fifo", "lifo")
            }
            assert verdicts == {expected}
