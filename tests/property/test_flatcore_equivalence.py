"""The compiled reduction against the naive reference oracle, step for step.

:func:`~repro.core.reduction.reduce_graph` compiles a sequencing graph into
integer lists, reduces in a tight worklist loop, and decompiles back into a
:class:`~repro.core.reduction.ReductionTrace`; the retained
:class:`~repro.core.reduction_reference.ReferenceReductionEngine` rescans the
whole graph on every step.  They must be *step-for-step* indistinguishable —
same verdict, same removal sequence, same blockage diagnosis, same
commitment/conjunction disconnection orders — over every corpus fixture,
every paper workload, and hundreds of random topologies, across all
strategies and with the §4.2.3 persona clause both on and off.  The
free-order verdict loop must land on the ``fifo`` trace's (feasible, steps,
remaining, blockages) counts.
"""

import glob
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.corpus import load_corpus_file
from repro.conformance.oracles import trace_key
from repro.core.flatcore import check_feasibility_flat
from repro.core.reduction import reduce_graph
from repro.core.reduction_reference import reference_reduce
from repro.workloads import (
    RandomProblemConfig,
    broker_bundle,
    example1,
    example2,
    example2_broker_trusts_source,
    example2_source_trusts_broker,
    oversale,
    random_problem,
    resale_chain,
    star,
)

STRATEGIES = ("fifo", "lifo", "random")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

WORKLOADS = {
    "example1": example1,
    "example2": example2,
    "example2-broker-trusts-source": example2_broker_trusts_source,
    "example2-source-trusts-broker": example2_source_trusts_broker,
    "resale-chain-2": lambda: resale_chain(2),
    "resale-chain-6": lambda: resale_chain(6),
    "insolvent-chain-3": lambda: resale_chain(3, solvent=False),
    "star-3": lambda: star(3),
    "star-5": lambda: star(5),
    "oversale": oversale,
    "bundle-4": lambda: broker_bundle(4, (10.0, 20.0, 30.0, 40.0)),
}


def assert_equivalent(graph, *, strategy, rng_seed=0, persona=True):
    compiled = reduce_graph(
        graph,
        strategy=strategy,
        rng=random.Random(rng_seed),
        enable_persona_clause=persona,
    )
    reference = reference_reduce(
        graph,
        strategy=strategy,
        rng=random.Random(rng_seed),
        enable_persona_clause=persona,
    )
    assert trace_key(compiled) == trace_key(reference), (
        f"strategy={strategy} persona={persona}"
    )
    return compiled


def assert_matches_reference(graph, *, rng_seed=0):
    """Full equivalence: every strategy, persona on and off, plus verdicts."""
    for persona in (True, False):
        for strategy in STRATEGIES:
            trace = assert_equivalent(
                graph, strategy=strategy, rng_seed=rng_seed, persona=persona
            )
            if strategy == "fifo":
                fifo = trace
        # The free-order verdict loop reaches the same normal form.
        verdict = check_feasibility_flat(graph, enable_persona_clause=persona)
        assert (
            verdict.feasible,
            verdict.steps,
            verdict.remaining,
            verdict.blockages,
        ) == (
            fifo.feasible,
            len(fifo.steps),
            len(fifo.remaining),
            len(fifo.blockages),
        ), f"persona={persona}"
    return reduce_graph(graph).feasible


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_fixtures(path):
    problem = load_corpus_file(path).problem
    assert_matches_reference(problem.sequencing_graph())


@pytest.mark.parametrize("name", sorted(WORKLOADS), ids=sorted(WORKLOADS))
def test_paper_workloads(name):
    graph = WORKLOADS[name]().sequencing_graph()
    assert_matches_reference(graph, rng_seed=17)


def test_infeasible_workloads_include_blockages():
    # The blockage diagnosis must survive the decompiler, not just counts.
    for problem in (example2(), resale_chain(3, solvent=False)):
        graph = problem.sequencing_graph()
        trace = reduce_graph(graph)
        assert not trace.feasible
        assert trace.blockages == reference_reduce(graph).blockages
        assert trace.blockages


def test_persona_ablation_changes_verdict_identically():
    # §4.2.3: with direct trust the persona clause makes example 2
    # feasible; the ablation must flip both engines the same way.
    graph = example2_source_trusts_broker().sequencing_graph()
    with_persona = reduce_graph(graph, enable_persona_clause=True)
    without = reduce_graph(graph, enable_persona_clause=False)
    assert with_persona.feasible and not without.feasible
    assert trace_key(without) == trace_key(
        reference_reduce(graph, enable_persona_clause=False)
    )


def _random_graph(seed):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=7,
        priority_probability=(0.0, 0.25, 0.5, 0.75, 1.0)[seed % 5],
        allow_cycles=True,
        hub_probability=0.6 if seed % 3 == 0 else 0.0,
    )
    problem = random_problem(config, seed=seed)
    rng = random.Random(seed * 31 + 7)
    principals = list(problem.interaction.principals)
    for _ in range(seed % 5):
        if len(principals) < 2:
            break
        truster, trustee = rng.sample(principals, 2)
        problem.trust.add(truster, trustee)
    return problem.sequencing_graph()


@pytest.mark.parametrize("block", range(8))
def test_random_topologies(block):
    # 200 graphs in 8 parametrized blocks of 25: trust edges, priorities,
    # hubs, cycles — every strategy, persona on and off.
    for seed in range(block * 25, (block + 1) * 25):
        assert_matches_reference(_random_graph(seed), rng_seed=seed)


def test_random_sweep_covers_both_verdicts():
    verdicts = {assert_matches_reference(_random_graph(s)) for s in range(40)}
    assert verdicts == {True, False}, (
        "the random sweep must exercise feasible AND infeasible graphs"
    )


def _random_graph_with_trust(problem_seed, trust_seed, n_trust, priority, hubby):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=7,
        priority_probability=priority,
        allow_cycles=True,
        hub_probability=0.6 if hubby else 0.0,
    )
    problem = random_problem(config, seed=problem_seed)
    principals = list(problem.interaction.principals)
    rng = random.Random(trust_seed)
    for _ in range(n_trust):
        if len(principals) < 2:
            break
        truster, trustee = rng.sample(principals, 2)
        problem.trust.add(truster, trustee)
    return problem.sequencing_graph()


@settings(max_examples=60, deadline=None)
@given(
    problem_seed=st.integers(0, 400),
    trust_seed=st.integers(0, 50),
    n_trust=st.integers(0, 6),
    priority=st.floats(0.0, 1.0),
    hubby=st.booleans(),
    strategy=st.sampled_from(STRATEGIES),
    order_seed=st.integers(0, 1000),
    persona=st.booleans(),
)
def test_engines_agree(
    problem_seed, trust_seed, n_trust, priority, hubby, strategy, order_seed, persona
):
    # Hypothesis-drawn graphs and rng seeds on top of the fixed sweep above;
    # a random-strategy run only matches if every step drew from the same
    # full (rule, edge) option list as the reference's applicable().
    graph = _random_graph_with_trust(problem_seed, trust_seed, n_trust, priority, hubby)
    assert_equivalent(graph, strategy=strategy, rng_seed=order_seed, persona=persona)
