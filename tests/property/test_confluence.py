"""Property-based tests for §4.2.4's confluence claim.

"Although different graphs may result due to different reduction orders, the
feasibility test will always yield the same result."  The paper asserts this
without proof; here Hypothesis drives the reduction engine through random
orders on random topologies and checks that the verdict never varies.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduction import reduce_graph
from repro.workloads import (
    RandomProblemConfig,
    broker_bundle,
    example1,
    example2,
    random_problem,
    resale_chain,
)


def _random_run(graph, seed: int):
    # Each step draws uniformly from every applicable (rule, edge) option.
    return reduce_graph(graph, strategy="random", rng=random.Random(seed))


@given(seed_a=st.integers(0, 10_000), seed_b=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_example1_feasible_under_any_order(seed_a, seed_b):
    graph = example1().sequencing_graph()
    assert _random_run(graph, seed_a).feasible
    assert _random_run(graph, seed_b).feasible


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_example2_infeasible_under_any_order(seed):
    graph = example2().sequencing_graph()
    trace = _random_run(graph, seed)
    assert not trace.feasible
    # Stronger than the paper's claim: the *surviving edge set* is also
    # order-independent for this instance.
    assert trace.remaining == reduce_graph(graph).remaining


@given(
    problem_seed=st.integers(0, 500),
    order_seed=st.integers(0, 10_000),
    n_exchanges=st.integers(2, 8),
    priority=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_random_topologies_confluent(problem_seed, order_seed, n_exchanges, priority):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=n_exchanges,
        priority_probability=priority,
        allow_cycles=True,
    )
    problem = random_problem(config, seed=problem_seed)
    graph = problem.sequencing_graph()
    baseline = reduce_graph(graph).feasible
    assert _random_run(graph, order_seed).feasible == baseline


@given(n=st.integers(0, 6), order_seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_chains_always_feasible_any_order(n, order_seed):
    graph = resale_chain(n, retail=100.0).sequencing_graph()
    assert _random_run(graph, order_seed).feasible


@given(k=st.integers(2, 4), order_seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_bundles_never_feasible_any_order(k, order_seed):
    prices = tuple(float(10 * (i + 1)) for i in range(k))
    graph = broker_bundle(k, prices).sequencing_graph()
    assert not _random_run(graph, order_seed).feasible


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_step_count_is_order_independent_for_feasible_graphs(seed):
    # A feasible graph has all |R ∪ B| edges removed in every maximal run.
    graph = example1().sequencing_graph()
    trace = _random_run(graph, seed)
    assert len(trace.steps) == len(graph.edges)
