"""Measure the compiled reduction and write ``BENCH_flatcore.json``.

Standalone (no pytest-benchmark) so CI's bench-smoke job and a developer's
shell run the exact same thing::

    PYTHONPATH=src python benchmarks/flatcore_bench.py \
        --sizes 256,1024,16384 --out BENCH_flatcore.json

Per size ``n`` it builds ``resale_chain(n)``, then times — median of
``--repeat`` runs each —

* ``compile_graph`` (the one-off flattening every reduction starts with);
* the free-order verdict loop over the compiled graph
  (``check_feasibility_flat``, no trace);
* the trace path, ``reduce_graph`` (compile + run + decompile), split into
  those three phases as well.

It also measures verdict throughput (problems/second) of
``check_feasibility_flat`` over ``--batch`` random 12-principal problems.
All timing lives here because wall-clock reads are banned from the linted
core (DET001); the payload is assembled by the DET002-linted
:func:`repro.core.flatcore.report.bench_payload`.  End-to-end numbers for
the same code path live in ``perfbench/`` (its ``paper``, ``chain`` and
``chaos`` workloads).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from datetime import date

from repro.analysis.batch import batch_specs, effective_cpu_count
from repro.core.flatcore import check_feasibility_flat, compile_graph
from repro.core.flatcore.report import bench_payload
from repro.core.reduction import decompile, reduce_graph, run_reduction
from repro.obs import PhaseTimer
from repro.workloads import RandomProblemConfig, resale_chain


def median_seconds(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_size(n: int, repeat: int) -> tuple[int, float, float, float, dict[str, float]]:
    """Edge count, compile / verdict / trace medians, and the trace path's
    compile/run/decompile phases for ``resale_chain(n)``.

    Phases use the sanctioned :class:`~repro.obs.clock.PhaseTimer` (mean
    seconds per run over *repeat* runs) so the artifact shows where a
    regression lands, not just that one did.  One graph is alive at a time:
    a large live graph makes every collector pass slower and would inflate
    the smaller sizes' numbers.
    """
    sg = resale_chain(n, retail=float(max(1000, 2 * n))).sequencing_graph()
    compiled = compile_graph(sg)
    compile_s = median_seconds(lambda: compile_graph(sg), repeat)
    verdict = median_seconds(lambda: check_feasibility_flat(compiled), repeat)
    trace = median_seconds(lambda: reduce_graph(sg), repeat)
    # Sanity: both paths certify the chain feasible.
    assert reduce_graph(sg).feasible
    assert check_feasibility_flat(compiled).feasible
    phases = PhaseTimer()
    for _ in range(repeat):
        with phases.phase("compile"):
            compiled = compile_graph(sg)
        with phases.phase("run"):
            run = run_reduction(compiled)
        with phases.phase("decompile"):
            decompile(compiled, run)
    phase_s = {name: seconds / repeat for name, seconds in phases.as_dict().items()}
    parts = "  ".join(f"{name}={sec * 1e3:8.2f}ms" for name, sec in phase_s.items())
    print(
        f"n={n:>6} E={len(sg.edges):>6} compile={compile_s * 1e3:8.2f}ms "
        f"verdict={verdict * 1e3:8.2f}ms trace={trace * 1e3:9.2f}ms  {parts}",
        file=sys.stderr,
    )
    return len(sg.edges), compile_s, verdict, trace, phase_s


def bench_batch(problems: int, repeat: int) -> float:
    specs = batch_specs(
        problems,
        RandomProblemConfig(
            n_principals=12, n_exchanges=9, priority_probability=0.5
        ),
        seed=0,
    )
    graphs = [spec.build().sequencing_graph() for spec in specs]

    def verdict_pass():
        for g in graphs:
            check_feasibility_flat(g)

    return problems / median_seconds(verdict_pass, repeat)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="64,256,1024",
        help="comma-separated broker counts for resale_chain (default 64,256,1024)",
    )
    parser.add_argument("--repeat", type=int, default=5, help="runs per median")
    parser.add_argument("--batch", type=int, default=200, help="batch problem count")
    parser.add_argument("--out", metavar="PATH", help="write the JSON payload here")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    graph_sizes: dict[int, int] = {}
    compile_s: dict[int, float] = {}
    verdict: dict[int, float] = {}
    trace: dict[int, float] = {}
    phase_seconds: dict[int, dict[str, float]] = {}
    for n in sizes:
        (
            graph_sizes[n],
            compile_s[n],
            verdict[n],
            trace[n],
            phase_seconds[n],
        ) = bench_size(n, args.repeat)
    batch_pps = bench_batch(args.batch, args.repeat)
    print(
        f"batch of {args.batch}: verdict loop {batch_pps:,.0f} problems/s",
        file=sys.stderr,
    )

    payload = bench_payload(
        machine=f"{effective_cpu_count()}-core {platform.system().lower()}, "
        f"CPython {platform.python_version()}",
        date=date.today().isoformat(),
        process_cpus=effective_cpu_count(),
        repeat=args.repeat,
        graph_sizes=graph_sizes,
        compile_seconds=compile_s,
        verdict_seconds=verdict,
        trace_seconds=trace,
        phase_seconds=phase_seconds,
        batch_problems=args.batch,
        batch_problems_per_second=round(batch_pps, 1),
        notes={
            "workload": "resale_chain(n, retail=max(1000, 2n)); batch uses "
            f"{args.batch} random 12-principal problems, graphs prebuilt",
            "verdict_vs_trace": "verdict_seconds runs the free-order loop on "
            "a precompiled graph; trace_seconds is reduce_graph end to end "
            "(compile + run + decompile)",
        },
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
