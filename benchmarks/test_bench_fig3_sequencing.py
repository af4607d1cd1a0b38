"""FIG3 — Figure 3: the sequencing graph of Example #1 and its elimination
order.

Paper: 4 commitment nodes (hexagons), 3 conjunction nodes (∧B, ∧T1, ∧T2),
6 edges of which exactly one is red (Trusted1–Broker at ∧B); the circled
numbers 1–6 give a legal elimination order ending with an empty graph.
"""

from conftest import paper_reduction_script

from repro.core.reduction_reference import replay_reference
from repro.core.sequencing import SequencingGraph
from repro.workloads import example1

PROBLEM = example1()


def test_bench_figure3_construction(benchmark):
    sg = benchmark(
        SequencingGraph.from_interaction, PROBLEM.interaction, PROBLEM.trust
    )
    assert len(sg.commitments) == 4
    assert len(sg.conjunctions) == 3
    assert len(sg.edges) == 6
    assert len(sg.red_edges) == 1
    (red,) = sg.red_edges
    assert red.commitment.label == "Trusted1->Broker"
    assert red.conjunction.agent.name == "Broker"
    assert {j.agent.name for j in sg.conjunctions} == {
        "Broker",
        "Trusted1",
        "Trusted2",
    }


def test_bench_figure3_circled_elimination_order(benchmark):
    """Replaying the paper's circled order 1–6 is legal and empties the graph."""
    sg = PROBLEM.sequencing_graph()
    script = paper_reduction_script(sg)

    trace = benchmark(replay_reference, sg, script)
    assert trace.feasible
    assert len(trace.steps) == 6
    # Steps 1,3,5,6 are Rule #1; steps 2,4 are Rule #2 — as in §4.2.2.
    rules = [int(step.rule) for step in trace.steps]
    assert rules == [1, 2, 1, 2, 1, 1]
    # The red edge is removed fifth, by Rule #1, exactly as narrated.
    assert trace.steps[4].edge.is_red
