"""The compiled form of a sequencing graph, and the free-order verdict loop.

* :mod:`repro.core.flatcore.compiler` — a one-time pass flattening a
  :class:`~repro.core.sequencing.SequencingGraph` into dense integer lists
  (edge → node ids, color and persona masks, live-edge counters, id sums);
  :func:`repro.core.reduction.reduce_graph` runs its step-recording loop
  over this form and decompiles the result into a full trace;
* :mod:`repro.core.flatcore.runtime` — :func:`check_feasibility_flat`, the
  **free-order verdict loop**: feasible/steps/remaining/blockages with no
  trace and no object allocation per edge, for callers that need only the
  verdict;
* :mod:`repro.core.flatcore.report` — the pure payload function for the
  ``BENCH_flatcore.json`` artifact (timing itself lives in ``benchmarks/``,
  outside the determinism-linted core).

The free-order loop is safe because the reduction system has a **unique
normal form** (DESIGN.md §11): eligibility of an edge is anti-monotone in
the remaining-edge set, so every maximal reduction sequence strands exactly
the same residual set — the verdict, step count, remaining count, and
blockage diagnosis are all order-independent.  The conformance fuzzer checks
the loop's counts against the ``fifo`` trace on every case.
"""

from repro.core.flatcore.compiler import CompiledGraph, compile_graph
from repro.core.flatcore.report import bench_payload
from repro.core.flatcore.runtime import FlatVerdict, check_feasibility_flat

__all__ = [
    "CompiledGraph",
    "FlatVerdict",
    "bench_payload",
    "check_feasibility_flat",
    "compile_graph",
]
