"""Unit tests for the compiled form and the compile → run → decompile path."""

import random

import pytest

from repro.conformance.oracles import trace_key
from repro.core.flatcore import check_feasibility_flat, compile_graph
from repro.core.reduction import decompile, reduce_graph, run_reduction
from repro.core.reduction_reference import reference_reduce
from repro.errors import ReductionError
from repro.workloads import example1, example2, oversale, star


class TestCompile:
    def test_counts_match_graph(self, ex1):
        sg = ex1.sequencing_graph()
        compiled = compile_graph(sg)
        assert compiled.n_edges == len(sg.edges)
        assert compiled.n_commitments == len(sg.commitments)
        assert compiled.n_conjunctions == len(sg.conjunctions)

    def test_csr_rows_partition_the_edges(self, ex1):
        compiled = compile_graph(ex1.sequencing_graph())
        assert compiled.j_off[0] == 0
        assert compiled.j_off[-1] == compiled.n_edges
        assert sorted(compiled.j_adj) == list(range(compiled.n_edges))
        # Commitments have no rows; their counts come from the incidence column.
        for c in range(compiled.n_commitments):
            assert compiled.cc0[c] == compiled.edge_commitment.count(c)
        # Each conjunction row inverts the per-edge incidence column.
        for j in range(compiled.n_conjunctions):
            row = compiled.j_adj[compiled.j_off[j] : compiled.j_off[j + 1]]
            assert all(compiled.edge_conjunction[e] == j for e in row)
            assert compiled.jc0[j] == len(row)

    def test_id_sums_and_red_counts(self, ex1):
        sg = ex1.sequencing_graph()
        compiled = compile_graph(sg)
        for c in range(compiled.n_commitments):
            row = [e for e in range(compiled.n_edges) if compiled.edge_commitment[e] == c]
            assert compiled.csum0[c] == sum(row)
        for j in range(compiled.n_conjunctions):
            row = compiled.j_adj[compiled.j_off[j] : compiled.j_off[j + 1]]
            assert compiled.jsum0[j] == sum(row)
            reds = [e for e in row if compiled.edge_red[e]]
            assert compiled.rj0[j] == len(reds)
            assert compiled.jrsum0[j] == sum(reds)
        assert sum(compiled.edge_red) == sum(1 for e in sg.edges if e.is_red)

    def test_seeds_are_the_initially_eligible_edges(self, ex2_variant1):
        # example2 variant 1 has a persona waiver: with the clause on, the
        # waived red is seedable earlier than with the clause off.
        compiled = compile_graph(ex2_variant1.sequencing_graph())
        assert set(compiled.seeds_off) <= set(compiled.seeds_on)


class TestDecompile:
    def test_trace_equals_reference_on_example1(self, ex1):
        sg = ex1.sequencing_graph()
        trace = reduce_graph(sg)
        assert trace_key(trace) == trace_key(reference_reduce(sg))
        assert trace.graph is sg
        assert trace.feasible

    def test_infeasible_blockages_survive_decompilation(self, ex2):
        sg = ex2.sequencing_graph()
        trace = reduce_graph(sg)
        reference = reference_reduce(sg)
        assert not trace.feasible
        assert trace.remaining == reference.remaining
        assert trace.blockages == reference.blockages

    def test_step_objects_reference_graph_nodes(self, ex1):
        sg = ex1.sequencing_graph()
        edges = set(sg.edges)
        for step in reduce_graph(sg).steps:
            assert step.edge in edges

    def test_subgraph_after_edge_removal(self, ex1):
        sg = ex1.sequencing_graph()
        sub = sg.with_edges_removed(sg.edges[:2])
        assert trace_key(reduce_graph(sub)) == trace_key(reference_reduce(sub))


class TestStrategies:
    def test_unknown_strategy_error_matches_reference(self, ex1):
        sg = ex1.sequencing_graph()
        for reduce in (reduce_graph, reference_reduce):
            with pytest.raises(ReductionError, match="unknown reduction strategy"):
                reduce(sg, strategy="bogus")

    def test_random_strategy_default_rng_is_seeded(self, ex1):
        sg = ex1.sequencing_graph()
        assert trace_key(reduce_graph(sg, strategy="random")) == trace_key(
            reference_reduce(sg, strategy="random")
        )

    def test_compiled_graph_is_reusable(self, ex1):
        # One compile, many runs: scratch state must never leak between runs.
        compiled = compile_graph(ex1.sequencing_graph())
        first = decompile(compiled, run_reduction(compiled, strategy="lifo"))
        run_reduction(compiled, strategy="random", rng=random.Random(4))
        again = decompile(compiled, run_reduction(compiled, strategy="lifo"))
        assert trace_key(first) == trace_key(again)

    def test_persona_toggle(self, ex2_variant1):
        sg = ex2_variant1.sequencing_graph()
        assert reduce_graph(sg, enable_persona_clause=True).feasible
        assert not reduce_graph(sg, enable_persona_clause=False).feasible


class TestFlatVerdict:
    def test_counts_match_trace(self):
        for problem in (example1(), example2(), star(4), oversale()):
            sg = problem.sequencing_graph()
            trace = reduce_graph(sg)
            verdict = check_feasibility_flat(sg)
            assert verdict.feasible == trace.feasible
            assert verdict.steps == len(trace.steps)
            assert verdict.remaining == len(trace.remaining)
            assert verdict.blockages == len(trace.blockages)

    def test_accepts_precompiled_graph(self, ex1):
        compiled = compile_graph(ex1.sequencing_graph())
        assert check_feasibility_flat(compiled).feasible
