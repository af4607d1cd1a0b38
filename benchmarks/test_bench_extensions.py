"""EXT — the §9 future-work extensions, implemented and measured.

* **Distributed reduction** — each participant locally decides its part;
  verdicts match the centralized engine with O(edges) messages and
  O(diameter) rounds.
* **Hierarchy of trust** — trust among intermediaries unlocks principal
  pairs that share no direct intermediary.
* **Multi-party trusted agents** — a 3-party ring exchange through one
  component is feasible, executes, and simulates safely.

Plus the ablations DESIGN.md calls out: Rule #1 clause 2 is exactly what
makes §4.2.3 variant 1 feasible, and possession gating is exactly what makes
multi-reseller chains executable.
"""

from repro.core.execution import recover_execution
from repro.core.mediation import hierarchy_study
from repro.core.reduction import reduce_graph
from repro.distributed import distributed_reduce
from repro.workloads import (
    example1,
    example2,
    example2_source_trusts_broker,
    figure7,
    resale_chain,
)


def test_bench_distributed_matches_centralized(benchmark):
    problems = [example1(), example2(), figure7(), resale_chain(5, retail=100.0)]
    graphs = [(p, p.sequencing_graph()) for p in problems]

    def run():
        return [
            (distributed_reduce(g).feasible, reduce_graph(g).feasible)
            for _, g in graphs
        ]

    results = benchmark(run)
    for distributed, centralized in results:
        assert distributed == centralized


def test_bench_distributed_message_and_round_costs(benchmark):
    graph = resale_chain(8, retail=100.0).sequencing_graph()
    trace = benchmark(distributed_reduce, graph)
    assert trace.feasible
    # One notification per cross-conjunction edge removal, at most.
    assert trace.messages <= len(graph.edges)
    # Rounds track the commitment cascade along the chain.
    assert trace.rounds >= 8


def test_bench_hierarchy_unlocks_pairs(benchmark):
    rows = benchmark(lambda: [hierarchy_study(seed=s) for s in range(6)])
    assert all(r.pairs_hierarchical >= r.pairs_direct for r in rows)
    assert sum(r.unlocked_by_hierarchy for r in rows) > 0


def test_bench_multiparty_ring(benchmark):
    from repro.core.interaction import InteractionGraph
    from repro.core.items import document
    from repro.core.parties import broker, trusted
    from repro.core.problem import ExchangeProblem
    from repro.sim import evaluate_safety, simulate

    def run():
        graph = InteractionGraph()
        members = []
        for i in range(3):
            p = broker(f"P{i + 1}")
            graph.add_principal(p)
            members.append((p, document(f"d{i + 1}")))
        graph.add_trusted(trusted("T"))
        graph.add_multi_exchange(graph.trusted_components[0], members)
        problem = ExchangeProblem("ring", graph).validate(allow_multiparty=True)
        result = simulate(problem)
        return problem, result

    problem, result = benchmark(run)
    assert len(result.completed_agents) == 1
    assert evaluate_safety(problem, result).honest_parties_safe()


def test_bench_ablation_persona_clause(benchmark):
    graph = example2_source_trusts_broker().sequencing_graph()

    def run():
        with_clause = reduce_graph(graph, enable_persona_clause=True)
        without = reduce_graph(graph, enable_persona_clause=False)
        return with_clause.feasible, without.feasible

    enabled, disabled = benchmark(run)
    assert (enabled, disabled) == (True, False)


def test_bench_ablation_possession_gate(benchmark):
    trace = reduce_graph(resale_chain(3, retail=100.0).sequencing_graph())

    def run():
        gated = recover_execution(trace, scheduler="possession")
        strict = recover_execution(trace, scheduler="paper-strict")
        return len(gated.violated_constraints()), len(strict.violated_constraints())

    gated_violations, strict_violations = benchmark(run)
    assert gated_violations == 0
    assert strict_violations > 0
