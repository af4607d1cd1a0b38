"""FIG4 — Figure 4: the sequencing graph of Example #2.

Paper: 8 commitment nodes, 7 conjunctions (∧C, ∧B1, ∧B2, ∧T1–∧T4), 14 edges
with red edges at ∧B1 and ∧B2; the paper's first four eliminations (the
circled numbers) remove the source deposits and the conjunction edges of
∧T2/∧T4.
"""

from conftest import figure4_initial_script

from repro.core.reduction_reference import replay_reference
from repro.core.sequencing import SequencingGraph
from repro.workloads import example2

PROBLEM = example2()


def test_bench_figure4_construction(benchmark):
    sg = benchmark(
        SequencingGraph.from_interaction, PROBLEM.interaction, PROBLEM.trust
    )
    assert len(sg.commitments) == 8
    assert len(sg.conjunctions) == 7
    assert len(sg.edges) == 14
    assert len(sg.red_edges) == 2
    assert {e.conjunction.agent.name for e in sg.red_edges} == {"Broker1", "Broker2"}
    # The consumer conjunction is all-black (the second-type bundle).
    consumer_conj = next(j for j in sg.conjunctions if j.agent.name == "Consumer")
    assert all(not e.is_red for e in sg.edges_of_conjunction(consumer_conj))


def test_bench_figure4_circled_eliminations(benchmark):
    """The paper's four legal eliminations leave ten edges and an impasse."""
    sg = PROBLEM.sequencing_graph()
    script = figure4_initial_script(sg)

    trace = benchmark(replay_reference, sg, script)
    assert len(trace.steps) == 4
    assert len(trace.remaining) == 10
    assert not trace.feasible
    # The two source-side trusted conjunctions are fully disconnected.
    assert {j.agent.name for j in trace.conjunction_order} == {
        "Trusted2",
        "Trusted4",
    }
