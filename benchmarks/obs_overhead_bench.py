"""Measure the observability layer's cost on the reduction hot paths.

Three questions, answered on the 1024-broker ``resale_chain`` verdict bench
(the acceptance bar for the tracing layer)::

    PYTHONPATH=src python benchmarks/obs_overhead_bench.py --assert-overhead 2.0

1. **Disabled overhead** — the public entry points
   (:func:`~repro.core.flatcore.check_feasibility_flat`,
   :func:`~repro.core.reduction.run_reduction`) capture the active tracer
   once and branch to the uninstrumented implementation when none is
   installed.  Comparing the public wrapper against a direct call of the
   private implementation measures exactly that guard; ``--assert-overhead``
   fails the run if it exceeds the given percentage.
2. **Metrics-only cost** — the same workload inside
   :func:`~repro.obs.runtime.metrics_scope` (what pooled fuzz/chaos workers
   pay per case).
3. **Full-tracing cost** — inside :func:`~repro.obs.runtime.tracing` with
   span recording on (what ``repro trace`` pays).

The guard comparisons sample the two variants *interleaved* (A, B, A, B, …)
and compare best-of-N, so CPU frequency drift between two back-to-back
blocks does not masquerade as instrumentation overhead; the absolute-cost
numbers (metrics/spans) are plain medians.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.core.flatcore import compile_graph
from repro.core.flatcore.runtime import _check_feasibility_impl, check_feasibility_flat
from repro.core.reduction import _run_reduction_impl, run_reduction
from repro.obs import metrics_scope, tracing
from repro.workloads import resale_chain


def median_seconds(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def paired_best_seconds(
    fn_a, fn_b, repeat: int, inner: int = 5
) -> tuple[float, float]:
    """Best per-run seconds for two variants, sampled interleaved.

    Each sample times a block of *inner* calls (single-call samples at the
    few-millisecond scale are dominated by scheduler jitter) and the best
    block per variant wins.
    """
    fn_a(), fn_b()  # warm-up (first run pays allocator/cache setup)
    best_a = best_b = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(inner):
            fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(inner):
            fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a / inner, best_b / inner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--brokers", type=int, default=1024)
    parser.add_argument("--repeat", type=int, default=9, help="runs per median")
    parser.add_argument(
        "--assert-overhead",
        type=float,
        metavar="PCT",
        help="fail if the disabled-tracer guard costs more than PCT percent "
        "on either hot path",
    )
    args = parser.parse_args(argv)

    n = args.brokers
    problem = resale_chain(n, retail=float(max(1000, 2 * n)))
    compiled = compile_graph(problem.sequencing_graph())

    # --- guarded wrappers vs raw implementations (interleaved) -------------
    raw_verdict, guarded_verdict = paired_best_seconds(
        lambda: _check_feasibility_impl(compiled, True),
        lambda: check_feasibility_flat(compiled),
        args.repeat,
    )
    raw_reduce, guarded_reduce = paired_best_seconds(
        lambda: _run_reduction_impl(compiled, "fifo", None, True, None),
        lambda: run_reduction(compiled),
        args.repeat,
    )

    def traced_verdict() -> None:
        with tracing():
            check_feasibility_flat(compiled)

    def metered_reduce() -> None:
        with metrics_scope():
            run_reduction(compiled)

    def traced_reduce() -> None:
        with tracing():
            run_reduction(compiled)

    metrics_verdict = median_seconds(traced_verdict, args.repeat)
    metrics_reduce = median_seconds(metered_reduce, args.repeat)
    spans_reduce = median_seconds(traced_reduce, args.repeat)

    def pct(guarded: float, raw: float) -> float:
        return (guarded / raw - 1.0) * 100.0

    verdict_overhead = pct(guarded_verdict, raw_verdict)
    reduce_overhead = pct(guarded_reduce, raw_reduce)
    print(f"workload: resale_chain({n}), {compiled.n_edges} edges")
    print(
        f"verdict loop:  raw {raw_verdict * 1e3:8.3f}ms  guarded "
        f"{guarded_verdict * 1e3:8.3f}ms  ({verdict_overhead:+.2f}%)  "
        f"traced {metrics_verdict * 1e3:8.3f}ms"
    )
    print(
        f"trace loop:    raw {raw_reduce * 1e3:8.3f}ms  guarded "
        f"{guarded_reduce * 1e3:8.3f}ms  ({reduce_overhead:+.2f}%)  "
        f"metrics {metrics_reduce * 1e3:8.3f}ms  spans {spans_reduce * 1e3:8.3f}ms"
    )

    if args.assert_overhead is not None:
        failures = [
            f"{label} guard overhead {overhead:+.2f}% exceeds "
            f"{args.assert_overhead}%"
            for label, overhead in (
                ("verdict loop", verdict_overhead),
                ("trace loop", reduce_overhead),
            )
            if overhead > args.assert_overhead
        ]
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
