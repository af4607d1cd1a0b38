"""Batched feasibility pipeline: fan thousands of reductions over a process pool.

The Monte-Carlo studies (:mod:`repro.analysis.feasibility_study`,
:mod:`repro.analysis.indemnity_study`) and the CLI's ``sweep`` commands all
evaluate *many independent* problems; each verdict is embarrassingly
parallel.  This module provides the shared driver:

* :func:`parallel_map` — ordered, chunked ``map`` over a
  :class:`concurrent.futures.ProcessPoolExecutor`, falling back to a plain
  serial loop for small batches or ``processes<=1``.  Results always come
  back **in input order**, and the serial and parallel paths run the exact
  same per-item function, so verdicts are deterministic and identical either
  way (the batch test suite asserts this over 1000+ problems).
* :class:`ProblemSpec` — a small picklable *recipe* (random-problem config +
  seed + optional extra trust edges).  Workers rebuild the problem from the
  spec on their side, so the parent never pickles whole
  :class:`~repro.core.problem.ExchangeProblem` graphs across the pool
  boundary for generated workloads.
* :func:`check_feasibility_batch` — the batched §4.2.4 verdict:
  accepts specs and/or ready problems and runs the free-order verdict loop
  (:func:`repro.core.flatcore.check_feasibility_flat`) once per problem,
  returning light :class:`BatchVerdict` rows.  No trace is built: the
  studies aggregate counts only, and the counts are the same for every
  reduction order (DESIGN.md §11).
* :func:`batch_specs` — the spec-level twin of
  :func:`repro.workloads.random_graphs.random_problem_batch` (identical
  sub-seed derivation, so ``spec.build()`` reproduces the same problems).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

import random

from repro.core.flatcore import FlatVerdict, check_feasibility_flat
from repro.core.problem import ExchangeProblem
from repro.obs.metrics import MetricsSnapshot, merge_snapshots
from repro.obs.runtime import metrics_scope
from repro.workloads.random_graphs import RandomProblemConfig, random_problem

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items a pool costs more than it saves; run serially.
SERIAL_THRESHOLD = 8


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    Uses :func:`os.process_cpu_count` (Python 3.13+, affinity-aware) when
    present, falling back to :func:`os.cpu_count`.  Recorded in every bench
    and report artifact so throughput numbers stay interpretable, and used
    to warn when a process pool is requested on a single-core host.
    """
    getter = getattr(os, "process_cpu_count", None)
    count: int | None = getter() if getter is not None else os.cpu_count()
    return count or 1


def _auto_processes() -> int:
    return effective_cpu_count()


def _auto_chunksize(n_items: int, processes: int) -> int:
    """Chunk so each worker sees a handful of batches (amortizes IPC)."""
    return max(1, n_items // (processes * 4))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    processes: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Apply *fn* to every item, preserving input order.

    ``processes=None`` uses all cores; ``processes<=1`` (or a batch smaller
    than :data:`SERIAL_THRESHOLD`) runs serially in-process.  *fn* must be
    picklable (a module-level function, or a :func:`functools.partial` of
    one) for the pooled path.
    """
    items = list(items)
    workers = _auto_processes() if processes is None else processes
    if workers <= 1 or len(items) < SERIAL_THRESHOLD:
        return [fn(item) for item in items]
    if effective_cpu_count() == 1:
        # Results are identical either way, so honor the request — but say
        # why it won't be faster (BENCH_reduction.json's batched_study rows
        # looked like a parallelization failure until this was diagnosed).
        warnings.warn(
            "parallel_map: this host exposes a single CPU to the process; "
            f"a pool of {workers} workers only adds dispatch overhead",
            RuntimeWarning,
            stacklevel=2,
        )
    workers = min(workers, len(items))
    if chunksize is None:
        chunksize = _auto_chunksize(len(items), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _instrumented_call(item: T, fn: Callable[[T], R]) -> tuple[R, MetricsSnapshot]:
    """Run one work item inside a fresh metrics-only observability scope."""
    with metrics_scope() as tracer:
        result = fn(item)
    return result, tracer.metrics.snapshot()


def instrumented_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    processes: int | None = None,
    chunksize: int | None = None,
) -> tuple[list[R], MetricsSnapshot]:
    """:func:`parallel_map` plus deterministic per-worker metrics merging.

    Every item runs inside its own metrics-only tracer scope — in this
    process on the serial path, worker-side on the pooled path — and the
    per-item snapshots come back with the results and are folded **in input
    order**.  Counters and histograms merge by sum and gauges by max (all
    order-independent), so the merged snapshot and its
    :func:`~repro.obs.metrics.snapshot_digest` are byte-identical between
    serial and ``--jobs`` execution: the same contract the fuzz digest
    already makes for verdicts, extended to observability.
    """
    wrapped = partial(_instrumented_call, fn=fn)
    pairs = parallel_map(wrapped, items, processes=processes, chunksize=chunksize)
    results = [result for result, _ in pairs]
    merged = merge_snapshots([snapshot for _, snapshot in pairs])
    return results, merged


@dataclass(frozen=True)
class ProblemSpec:
    """A picklable recipe for worker-side problem construction.

    ``trust_edges`` name extra direct-trust pairs ``(truster, trustee)`` to
    add after generation (party names, since parties are reconstructed in
    the worker).
    """

    config: RandomProblemConfig = field(default_factory=RandomProblemConfig)
    seed: int | float = 0
    trust_edges: tuple[tuple[str, str], ...] = ()

    def build(self) -> ExchangeProblem:
        """Construct the problem this spec describes (deterministic)."""
        problem = random_problem(self.config, seed=self.seed)
        if self.trust_edges:
            by_name = {p.name: p for p in problem.interaction.parties}
            for truster, trustee in self.trust_edges:
                problem.trust.add(by_name[truster], by_name[trustee])
        return problem


#: One feasibility verdict row: feasible, steps, remaining, blockages.
#: Light enough to ship back from a worker (the trace is never built).
BatchVerdict = FlatVerdict


def _check_one(
    item: "ProblemSpec | ExchangeProblem", enable_persona_clause: bool = True
) -> BatchVerdict:
    """Worker: build (if a spec) and run the verdict loop on one problem."""
    problem = item.build() if isinstance(item, ProblemSpec) else item
    return check_feasibility_flat(
        problem.sequencing_graph(), enable_persona_clause=enable_persona_clause
    )


def check_feasibility_batch(
    items: "Sequence[ProblemSpec | ExchangeProblem]",
    *,
    enable_persona_clause: bool = True,
    processes: int | None = None,
    chunksize: int | None = None,
) -> list[BatchVerdict]:
    """Feasibility verdicts for a batch, in input order.

    Mixing :class:`ProblemSpec` recipes (rebuilt worker-side) and ready
    :class:`ExchangeProblem` objects (pickled whole) is allowed.
    """
    fn = partial(_check_one, enable_persona_clause=enable_persona_clause)
    return parallel_map(fn, items, processes=processes, chunksize=chunksize)


def batch_specs(
    count: int,
    config: RandomProblemConfig = RandomProblemConfig(),
    seed: int = 0,
) -> list[ProblemSpec]:
    """*count* specs with the same sub-seed stream as ``random_problem_batch``.

    ``[spec.build() for spec in batch_specs(n, cfg, s)]`` reproduces
    ``random_problem_batch(n, cfg, s)`` exactly.
    """
    rng = random.Random(seed)
    return [ProblemSpec(config=config, seed=rng.random()) for _ in range(count)]
