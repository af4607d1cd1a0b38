"""Assembles the ``BENCH_flatcore.json`` payload.

Timing itself happens in ``benchmarks/flatcore_bench.py`` — wall-clock
reads are banned from the determinism-linted core (DET001) — so the bench
script measures and this function only *assembles*.  It is a serialization
sink by name (``*_payload``), which puts it under DET002's
unordered-iteration lint: everything it emits must be deterministically
ordered.
"""

from __future__ import annotations

from typing import Mapping


def bench_payload(
    *,
    machine: str,
    date: str,
    process_cpus: int,
    repeat: int,
    graph_sizes: Mapping[int, int],
    compile_seconds: Mapping[int, float],
    verdict_seconds: Mapping[int, float],
    trace_seconds: Mapping[int, float],
    phase_seconds: Mapping[int, Mapping[str, float]],
    batch_problems: int,
    batch_problems_per_second: float,
    notes: Mapping[str, str],
) -> dict[str, object]:
    """Assemble the BENCH_flatcore.json document from measured components.

    ``graph_sizes`` maps broker count → edge count; the per-size timing maps
    are median wall-clock seconds over ``repeat`` runs of that graph.  The
    caller supplies ``date`` and ``machine`` (no clock or platform reads
    here), and ``process_cpus`` so throughput numbers stay interpretable on
    single-core hosts.  ``phase_seconds`` breaks the trace path into its
    compile/run/decompile phases (measured with
    :class:`repro.obs.clock.PhaseTimer`, mean seconds per run).
    """

    def by_size(values: Mapping[int, float]) -> dict[str, float]:
        return {str(size): values[size] for size in sorted(values)}

    return {
        "benchmark": "flatcore",
        "machine": machine,
        "date": date,
        "process_cpus": process_cpus,
        "repeat": repeat,
        "graph_edges": {str(s): graph_sizes[s] for s in sorted(graph_sizes)},
        "compile_seconds": by_size(compile_seconds),
        "verdict_seconds": by_size(verdict_seconds),
        "trace_seconds": by_size(trace_seconds),
        "phase_seconds": {
            str(size): {
                phase: phase_seconds[size][phase]
                for phase in phase_seconds[size]
            }
            for size in sorted(phase_seconds)
        },
        "batch": {
            "problems": batch_problems,
            "verdict_problems_per_second": batch_problems_per_second,
        },
        "notes": {key: notes[key] for key in sorted(notes)},
    }
