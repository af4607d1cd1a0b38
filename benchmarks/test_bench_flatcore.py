"""FLATCORE — the compiled form, the free-order verdict loop, the trace path.

Times compile, the verdict loop and ``reduce_graph`` (compile + run +
decompile) at the same sizes as the SCALE bench, and verdict throughput over
a batch of random problems.  Every benchmark also asserts verdict
correctness, so the numbers can't drift away from the semantics.
``benchmarks/flatcore_bench.py`` is the standalone twin that writes
``BENCH_flatcore.json``.
"""

import pytest

from repro.analysis import batch_specs
from repro.core.flatcore import check_feasibility_flat, compile_graph
from repro.core.reduction import reduce_graph
from repro.workloads import RandomProblemConfig, resale_chain

SIZES = [64, 256, 1024]


def _chain_graph(n_brokers):
    problem = resale_chain(n_brokers, retail=float(max(1000, 2 * n_brokers)))
    return problem.sequencing_graph()


@pytest.mark.parametrize("n_brokers", SIZES)
def test_bench_flat_compile(benchmark, n_brokers):
    sg = _chain_graph(n_brokers)
    compiled = benchmark(compile_graph, sg)
    assert compiled.n_edges == len(sg.edges)


@pytest.mark.parametrize("n_brokers", SIZES)
def test_bench_flat_verdict_loop(benchmark, n_brokers):
    compiled = compile_graph(_chain_graph(n_brokers))
    verdict = benchmark(check_feasibility_flat, compiled)
    assert verdict.feasible and verdict.remaining == 0


@pytest.mark.parametrize("n_brokers", SIZES)
def test_bench_flat_trace_path(benchmark, n_brokers):
    sg = _chain_graph(n_brokers)
    trace = benchmark(reduce_graph, sg)
    assert trace.feasible
    assert len(trace.steps) == len(sg.edges)


def test_bench_batch_throughput(benchmark):
    specs = batch_specs(
        100,
        RandomProblemConfig(n_principals=12, n_exchanges=9, priority_probability=0.5),
        seed=0,
    )
    graphs = [spec.build().sequencing_graph() for spec in specs]
    verdicts = benchmark(lambda: [check_feasibility_flat(g) for g in graphs])
    assert len(verdicts) == 100
