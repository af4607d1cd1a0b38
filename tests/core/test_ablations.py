"""Tests for the ablation switches (design-choice justifications).

Each switch disables one mechanism DESIGN.md calls out, and the tests show
the paper result that breaks without it — the evidence that the mechanism is
load-bearing, not incidental.
"""

import pytest

from repro.core.execution import recover_execution
from repro.core.reduction import reduce_graph
from repro.errors import ModelError
from repro.workloads import (
    example1,
    example2_source_trusts_broker,
    resale_chain,
)


class TestPersonaClauseAblation:
    def test_clause2_is_what_unlocks_variant1(self):
        # §4.2.3 variant 1 is feasible ONLY because of Rule #1 clause 2.
        graph = example2_source_trusts_broker().sequencing_graph()
        with_clause = reduce_graph(graph, enable_persona_clause=True)
        without_clause = reduce_graph(graph, enable_persona_clause=False)
        assert with_clause.feasible
        assert not without_clause.feasible

    def test_ablated_diagnosis_blames_the_persona_edge(self):
        graph = example2_source_trusts_broker().sequencing_graph()
        trace = reduce_graph(graph, enable_persona_clause=False)
        blocked = {b.edge.commitment.label for b in trace.blockages}
        assert "Trusted2->Broker1" in blocked

    def test_clause_is_noop_without_personas(self):
        graph = example1().sequencing_graph()
        assert reduce_graph(graph, enable_persona_clause=False).feasible


class TestSchedulerAblation:
    def test_paper_strict_matches_on_single_reseller(self):
        # With one red edge the literal §5 recipe is exact.
        trace = reduce_graph(example1().sequencing_graph())
        gated = recover_execution(trace, scheduler="possession")
        strict = recover_execution(trace, scheduler="paper-strict")
        assert gated.describe() == strict.describe()
        assert strict.violated_constraints() == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_paper_strict_breaks_on_multi_reseller_chains(self, n):
        # The ambiguity the possession gate resolves: strict ordering makes
        # a broker ship a document it has not yet received.
        trace = reduce_graph(resale_chain(n, retail=100.0).sequencing_graph())
        strict = recover_execution(trace, scheduler="paper-strict")
        assert strict.violated_constraints() != []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_possession_gate_fixes_the_same_chains(self, n):
        trace = reduce_graph(resale_chain(n, retail=100.0).sequencing_graph())
        gated = recover_execution(trace, scheduler="possession")
        assert gated.violated_constraints() == []

    def test_unknown_scheduler_rejected(self):
        trace = reduce_graph(example1().sequencing_graph())
        with pytest.raises(ModelError, match="scheduler"):
            recover_execution(trace, scheduler="chaotic")
