"""Per-layer spans recorded from outside the program.

A :class:`LayerTracer` swaps each layer's public entry points (``ENTRY_POINTS``)
for a wrapper that keeps one span per call in memory: name, start, end,
parent span and operation id.  Module functions are rebound in every loaded
``repro.*`` module that bound them -- ``reduce_graph`` alone is bound in
``core.reduction``, ``core.feasibility``, ``core.problem`` and
``core.indemnity`` -- and methods are replaced on their class, so the
program's own call sites reach the wrappers.  :meth:`LayerTracer.uninstall`
puts every original object back.

The program's ``repro.obs`` tracer stays off throughout: a traced run executes
the untraced code paths plus the wrappers, nothing else.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# A span is a mutable list, appended on entry and closed on exit:
# [name, start_s, end_s, parent_index (-1 for a root), op_id, count]
Span = list

Count = Callable[[tuple, Any], int]


def _spec_bytes(args: tuple, _result: Any) -> int:
    return len(args[0].encode("utf-8"))


def _graph_edges(_args: tuple, result: Any) -> int:
    return len(result.edges)


def _reduction_steps(_args: tuple, result: Any) -> int:
    return len(result.steps)


def _records(_args: tuple, result: Any) -> int:
    return len(result)


#: (span name, module, attribute or ``Class.method``, per-call count or None)
ENTRY_POINTS: tuple[tuple[str, str, str, Count | None], ...] = (
    ("spec.parse", "repro.spec.parser", "parse", _spec_bytes),
    ("spec.compile", "repro.spec.compiler", "compile_spec", None),
    ("core.sequencing", "repro.core.sequencing", "SequencingGraph.from_interaction", _graph_edges),
    ("core.reduction", "repro.core.reduction", "reduce_graph", _reduction_steps),
    ("core.execution", "repro.core.execution", "recover_execution", None),
    ("core.protocol", "repro.core.protocol", "synthesize_protocol", None),
    ("core.indemnity", "repro.core.indemnity", "minimal_indemnity_plan", None),
    ("sim.setup", "repro.sim.runtime", "Simulation.__init__", None),
    ("sim.run", "repro.sim.runtime", "Simulation.run", None),
    ("sim.safety", "repro.sim.safety", "evaluate_safety", None),
    ("net.supervisor", "repro.net.supervisor", "run_networked_exchange", None),
    # A marker, not a cost: its start is the run's epoch (sim time 0).
    ("net.epoch", "repro.net.proxy", "NetFaultProxy.open_for_business", None),
    ("net.wire.encode", "repro.net.wire", "encode_frame", None),
    ("net.wire.decode", "repro.net.wire", "decode_frame", None),
    ("net.wal.append", "repro.net.wal", "WriteAheadLog.append", None),
    ("net.wal.replay", "repro.net.wal", "replay", _records),
)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1  # the harness sets this before each operation
        self._stack: list[int] = []
        # (owner, attribute, original) for every rebinding, in install order
        self.sites: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any], count: Count | None) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        if self.sites:
            raise RuntimeError("tracer is already installed")
        for name, module_name, path, count in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(self._wrap(name, original.__func__, count))
                else:
                    wrapped = self._wrap(name, original, count)
                self.sites.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, count)
            for loaded in _repro_modules():
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self.sites.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.sites):
            setattr(owner, attr, original)
        self.sites = []

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


@dataclass
class LayerTotals:
    """One span name's totals: self time, call count, summed per-call counts."""

    self_s: float = 0.0
    calls: int = 0
    count: int = 0


def layer_totals(spans: list[Span], factors: list[float]) -> dict[str, LayerTotals]:
    """Self time per span name: each span's duration minus its children's.

    ``factors[op]`` scales the spans of operation *op* to the reference host
    speed (see :mod:`perfbench.hostspeed`).
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    totals: dict[str, LayerTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[0], LayerTotals())
        entry.self_s += (span[2] - span[1] - child_s[index]) * factors[span[4]]
        entry.calls += 1
        entry.count += span[5]
    return totals


def root_seconds(spans: list[Span], factors: list[float]) -> float:
    """Time covered by spans that have no parent span, at the reference speed."""
    return sum((span[2] - span[1]) * factors[span[4]] for span in spans if span[3] < 0)


def write_spans(path: str, spans: list[Span], factors: list[float], origin: float) -> None:
    """Write *spans* as JSONL: times in microseconds since *origin*, plus the
    host-speed factor of each span's operation."""
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, op, count) in enumerate(spans):
            record = {
                "id": index,
                "name": name,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
                "parent": parent,
                "op": op,
                "count": count,
                "factor": round(factors[op], 4),
            }
            out.write(json.dumps(record) + "\n")
