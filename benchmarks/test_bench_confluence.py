"""CONFL — §4.2.4's confluence claim, exercised at benchmark scale.

"Although different graphs may result due to different reduction orders,
the feasibility test will always yield the same result."  The bench runs
many randomized reduction orders over the paper's examples and a batch of
random topologies, asserting one verdict per graph.
"""

import random

from repro.core.reduction import reduce_graph
from repro.workloads import (
    RandomProblemConfig,
    example1,
    example2,
    poor_broker,
    random_problem,
)


def _random_order_verdicts(graph, n_orders: int) -> set[bool]:
    verdicts = set()
    for seed in range(n_orders):
        trace = reduce_graph(graph, strategy="random", rng=random.Random(seed))
        verdicts.add(trace.feasible)
    return verdicts


def test_bench_confluence_on_paper_examples(benchmark):
    graphs = {
        "example1": (example1().sequencing_graph(), True),
        "example2": (example2().sequencing_graph(), False),
        "poor-broker": (poor_broker().sequencing_graph(), False),
    }

    def run():
        return {
            name: _random_order_verdicts(graph, 25)
            for name, (graph, _) in graphs.items()
        }

    results = benchmark(run)
    for name, (graph, expected) in graphs.items():
        assert results[name] == {expected}, name


def test_bench_confluence_on_random_topologies(benchmark):
    config = RandomProblemConfig(
        n_principals=9, n_exchanges=7, priority_probability=0.6, allow_cycles=True
    )
    problems = [random_problem(config, seed=s) for s in range(12)]

    def run():
        disagreements = 0
        for problem in problems:
            graph = problem.sequencing_graph()
            baseline = reduce_graph(graph).feasible
            if _random_order_verdicts(graph, 8) != {baseline}:
                disagreements += 1
        return disagreements

    assert benchmark(run) == 0
