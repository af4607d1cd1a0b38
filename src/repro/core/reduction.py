"""Sequencing-graph reduction (paper §4.2).

Two reduction rules remove edges from a sequencing graph:

* **Rule #1** (commitment fringe): an edge ``(c, j)`` may be removed when
  commitment *c* has no other remaining edge AND either (clause 1) no *other*
  red edge remains at *j*, or (clause 2) the trusted-agent role of *c* is
  played by *c*'s own principal (a persona, §4.2.3).  The candidate edge
  itself never pre-empts its own removal — this is required to reproduce the
  paper's Example #1, where the red edge at ∧B is removed by Rule #1 once it
  is the only red edge left there.
* **Rule #2** (conjunction fringe): an edge ``(c, j)`` may be removed when
  conjunction *j* has no other remaining edge.

Reductions "may be done in a greedy fashion — any applicable reduction may be
applied at any time, in any order" and the feasibility verdict is
order-independent (§4.2.4; DESIGN.md §11 proves the residual edge set is the
same for every order).  :func:`reduce_graph` nevertheless records *which*
order it used, under one of three strategies (``fifo``, ``lifo``,
``random``), because the §5 execution sequence is read off the steps.

A reduced graph is **feasible** iff no edges remain (§4.2.4).  When edges do
remain the trace carries a :class:`Blockage` diagnosis: which fringe
commitments are pre-empted by which red edges — the raw material for the
indemnity planner (§6).

Implementation
--------------

:func:`reduce_graph` is compile → run → decompile: the graph is flattened
into integer lists (:func:`repro.core.flatcore.compile_graph`), a loop over
those lists removes edges and records each step as a tuple
(:func:`run_reduction`), and :func:`decompile` lifts the result back into a
:class:`ReductionTrace`.  Fringe tests are O(1) counter reads; a node's
surviving edge, once its counter reaches 1, is the sum of its live edge ids;
``fifo``/``lifo`` pick from a heap of eligible edge ids.  A full run is
O(E log E).

The rescan-everything engine in :mod:`repro.core.reduction_reference` is the
oracle: the property suite and the conformance fuzzer require
:func:`reduce_graph` to match it step for step under every strategy, with
the persona clause on and off.  Scripted replay and custom step choosers
live only on the oracle (:func:`~repro.core.reduction_reference.replay_reference`,
:meth:`~repro.core.reduction_reference.ReferenceReductionEngine.run`).
Verdict-only callers skip the trace entirely with
:func:`repro.core.flatcore.check_feasibility_flat`.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.flatcore.compiler import CompiledGraph, compile_graph
from repro.core.sequencing import (
    CommitmentNode,
    ConjunctionNode,
    SGEdge,
    SequencingGraph,
)
from repro.errors import ReductionError
from repro.obs.runtime import active as _active_tracer
from repro.obs.spans import Tracer
from repro.records import new_record


class Rule(enum.IntEnum):
    """The paper's two reduction rules (§4.2.1)."""

    COMMITMENT_FRINGE = 1
    CONJUNCTION_FRINGE = 2


class ReductionStep(NamedTuple):
    """One edge removal: which rule, which edge, and what it disconnected.

    ``via_persona`` is True when Rule #1 fired through clause 2 (direct
    trust).  ``commitment_disconnected``/``conjunction_disconnected`` are set
    when this removal left that node with no remaining edges — the events
    that drive execution-sequence recovery (§5).  A step is a tuple of its
    fields: :func:`decompile` builds each with :data:`repro.records.new_record`,
    which runs no Python frame, and it hashes and compares in C.
    """

    index: int  # type: ignore[assignment]  # shadows tuple.index; no step is searched
    rule: Rule
    edge: SGEdge
    via_persona: bool = False
    commitment_disconnected: CommitmentNode | None = None
    conjunction_disconnected: ConjunctionNode | None = None

    def __str__(self) -> str:
        persona = " (persona)" if self.via_persona else ""
        return f"step {self.index}: Rule#{int(self.rule)}{persona} removes {self.edge}"


@dataclass(frozen=True, slots=True)
class Blockage:
    """A fringe commitment edge that cannot be removed, and why (§4.2.4).

    ``blocking_red`` lists the red edges at the conjunction that pre-empt the
    blocked edge (Rule #1 clause 1 failure, with no persona to rescue it),
    in original graph-edge order.
    """

    edge: SGEdge
    blocking_red: tuple[SGEdge, ...]

    def __str__(self) -> str:
        reds = ", ".join(str(e) for e in self.blocking_red)
        return f"{self.edge} blocked by red edge(s): {reds}"


@dataclass(frozen=True)
class ReductionTrace:
    """The complete record of one reduction run.

    * ``steps`` — the edge removals, in order;
    * ``remaining`` — edges left when no rule applied any more;
    * ``feasible`` — the §4.2.4 test: ``remaining`` is empty;
    * ``commitment_order`` — commitment nodes in disconnection order (the
      commit order of §5);
    * ``conjunction_order`` — conjunction nodes in disconnection order;
    * ``blockages`` — diagnosis of the impasse when infeasible.
    """

    graph: SequencingGraph
    steps: tuple[ReductionStep, ...]
    remaining: frozenset[SGEdge]
    commitment_order: tuple[CommitmentNode, ...]
    conjunction_order: tuple[ConjunctionNode, ...]
    blockages: tuple[Blockage, ...]

    @property
    def feasible(self) -> bool:
        """The objective feasibility test: all edges removed (§4.2.4)."""
        return not self.remaining

    def step_for_edge(self, edge: SGEdge) -> ReductionStep:
        """The step that removed *edge* (raises if it was never removed)."""
        for step in self.steps:
            if step.edge == edge:
                return step
        raise ReductionError(f"edge {edge} was not removed in this trace")

    def __str__(self) -> str:
        header = "feasible" if self.feasible else f"INFEASIBLE ({len(self.remaining)} edges remain)"
        lines = [f"ReductionTrace: {header}"]
        lines.extend(f"  {step}" for step in self.steps)
        if not self.feasible:
            lines.extend(f"  !! {blockage}" for blockage in self.blockages)
        return "\n".join(lines)


_RULES = (Rule.COMMITMENT_FRINGE, Rule.CONJUNCTION_FRINGE)


@dataclass(frozen=True, slots=True)
class FlatRun:
    """Raw outcome of :func:`run_reduction`, before decompilation.

    ``steps`` holds one ``(rule, edge, via_persona, commitment_done,
    conjunction_done)`` tuple per removal, with ``-1`` for "no node
    disconnected"; ``alive``, ``cc``, ``rj`` and ``per`` describe the
    residual graph the blockage diagnosis reads.
    """

    steps: list[tuple[int, int, bool, int, int]]
    alive: bytearray
    cc: list[int]
    rj: list[int]
    per: bytearray
    commitment_order: list[int]
    conjunction_order: list[int]


def run_reduction(
    compiled: CompiledGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> FlatRun:
    """Reduce the compiled graph until no rule applies, recording each step.

    ``fifo`` removes the lowest eligible edge id next (by Rule #1 when it
    applies), ``lifo`` the highest (by Rule #2 when it applies), and
    ``random`` draws from the full ``(rule, edge)`` option list with *rng*
    (``random.Random(0)`` when omitted) — the same choices the reference
    engine makes from its ``applicable()`` list.  An unknown strategy raises
    :class:`ReductionError` only if some rule applies.
    """
    obs = _active_tracer()
    if obs is None:
        return _run_reduction_impl(compiled, strategy, rng, enable_persona_clause, None)
    with obs.span(
        "reduce.flat", {"edges": compiled.n_edges, "strategy": strategy}
    ) as span_id:
        run = _run_reduction_impl(compiled, strategy, rng, enable_persona_clause, obs)
        remaining = run.alive.count(1)
        obs.set_attr(span_id, "feasible", remaining == 0)
        obs.set_attr(span_id, "survivors", remaining)
    obs.metrics.histogram("reduction.survivors").observe(remaining)
    obs.verdict(remaining == 0)
    return run


def _run_reduction_impl(
    compiled: CompiledGraph,
    strategy: str,
    rng: random.Random | None,
    enable_persona_clause: bool,
    obs: Tracer | None,
) -> FlatRun:
    ec = compiled.edge_commitment
    ej = compiled.edge_conjunction
    red = compiled.edge_red
    j_off = compiled.j_off
    j_adj = compiled.j_adj
    per = compiled.persona if enable_persona_clause else bytearray(compiled.n_commitments)
    cc = compiled.cc0[:]
    jc = compiled.jc0[:]
    rj = compiled.rj0[:]
    csum = compiled.csum0[:]
    jsum = compiled.jsum0[:]
    jrsum = compiled.jrsum0[:]
    alive = bytearray(b"\x01") * compiled.n_edges
    elig = bytearray(compiled.n_edges)
    seeds = compiled.seeds_on if enable_persona_clause else compiled.seeds_off
    # Nodes with no edges at all are disconnected from the outset.
    commitment_order = [c for c, n in enumerate(cc) if n == 0] if 0 in cc else []
    conjunction_order = [j for j, n in enumerate(jc) if n == 0] if 0 in jc else []
    steps: list[tuple[int, int, bool, int, int]] = []
    woken: list[int] = []
    wake = woken.append

    def remove(e: int, rule: int) -> bool:
        """Apply *rule* to edge *e*: record the step, collect newly eligible
        edges in ``woken``, and return whether the persona clause fired."""
        c = ec[e]
        j = ej[e]
        # Persona is reported only where clause 1 alone would have failed.
        via_persona = rule == 1 and per[c] != 0 and rj[j] > red[e]
        alive[e] = 0
        c_done = j_done = -1
        n = cc[c] - 1
        cc[c] = n
        s = csum[c] - e
        csum[c] = s
        if n == 0:
            c_done = c
            commitment_order.append(c)
        elif n == 1 and not elig[s]:
            j2 = ej[s]
            if per[c] or rj[j2] == red[s] or jc[j2] == 1:
                elig[s] = 1
                wake(s)
        m = jc[j] - 1
        jc[j] = m
        t = jsum[j] - e
        jsum[j] = t
        if m == 0:
            j_done = j
            conjunction_order.append(j)
        elif m == 1 and not elig[t]:
            elig[t] = 1
            wake(t)
        if red[e]:
            r = rj[j] - 1
            rj[j] = r
            u = jrsum[j] - e
            jrsum[j] = u
            if r == 1:
                # One red left at j: that red itself is now unblocked.
                if not elig[u] and cc[ec[u]] == 1:
                    elig[u] = 1
                    wake(u)
            elif r == 0 and m > 0:
                # Last red gone: every surviving black fringe edge at j wakes.
                for e2 in j_adj[j_off[j] : j_off[j + 1]]:
                    if alive[e2] and not elig[e2] and cc[ec[e2]] == 1:
                        elig[e2] = 1
                        wake(e2)
        steps.append((rule, e, via_persona, c_done, j_done))
        return via_persona

    if strategy == "fifo" or strategy == "lifo":
        lifo = strategy == "lifo"
        heap = [-e for e in seeds] if lifo else seeds[:]
        heapq.heapify(heap)
        for e in seeds:
            elig[e] = 1
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            e = heappop(heap)
            if lifo:
                e = -e
            # Eligibility never lapses, but which rule applies can change
            # between push and pop, so the rule is read off live counters.
            c = ec[e]
            j = ej[e]
            if lifo:
                rule = 2 if jc[j] == 1 else 1
            else:
                rule = 1 if cc[c] == 1 and (per[c] or rj[j] == red[e]) else 2
            persona = remove(e, rule)
            if obs is not None:
                obs.rule_firing(f"rule{rule}", edge=e, depth=len(heap), persona=persona)
            for e2 in woken:
                heappush(heap, -e2 if lifo else e2)
            woken.clear()
    elif strategy == "random":
        if rng is None:
            rng = random.Random(0)
        cand = set(seeds)
        for e in seeds:
            elig[e] = 1
        while cand:
            options: list[tuple[int, int]] = []
            for e in sorted(cand):
                c = ec[e]
                j = ej[e]
                if cc[c] == 1 and (per[c] or rj[j] == red[e]):
                    options.append((1, e))
                if jc[j] == 1:
                    options.append((2, e))
            rule, e = rng.choice(options)
            cand.discard(e)
            persona = remove(e, rule)
            if obs is not None:
                obs.rule_firing(f"rule{rule}", edge=e, depth=len(cand), persona=persona)
            cand.update(woken)
            woken.clear()
    elif seeds:
        raise ReductionError(f"unknown reduction strategy {strategy!r}")

    return FlatRun(
        steps=steps,
        alive=alive,
        cc=cc,
        rj=rj,
        per=per,
        commitment_order=commitment_order,
        conjunction_order=conjunction_order,
    )


def decompile(compiled: CompiledGraph, run: FlatRun) -> ReductionTrace:
    """Lift a compiled run back into a :class:`ReductionTrace`."""
    graph = compiled.graph
    edges = graph.edges
    commitments = graph.commitments
    conjunctions = graph.conjunctions
    steps = tuple(
        new_record(
            ReductionStep,
            (
                index,
                _RULES[rule - 1],
                edges[e],
                via_persona,
                None if c_done < 0 else commitments[c_done],
                None if j_done < 0 else conjunctions[j_done],
            ),
        )
        for index, (rule, e, via_persona, c_done, j_done) in enumerate(run.steps, 1)
    )
    alive = run.alive
    blockages: list[Blockage] = []
    if len(steps) == compiled.n_edges:
        remaining: frozenset[SGEdge] = frozenset()
    else:
        live = [e for e in range(compiled.n_edges) if alive[e]]
        remaining = frozenset(edges[e] for e in live)
        ec = compiled.edge_commitment
        ej = compiled.edge_conjunction
        red = compiled.edge_red
        j_off = compiled.j_off
        j_adj = compiled.j_adj
        cc, rj, per = run.cc, run.rj, run.per
        # A survivor is blocked when its commitment is on the fringe, another
        # red survives at its conjunction, and no persona waives it.
        blocked = [
            e for e in live if cc[ec[e]] == 1 and rj[ej[e]] > red[e] and not per[ec[e]]
        ]
        for e in sorted(blocked, key=edges.__getitem__):
            c = ec[e]
            j = ej[e]
            blocking = tuple(
                edges[e2]
                for e2 in j_adj[j_off[j] : j_off[j + 1]]
                if alive[e2] and red[e2] and ec[e2] != c
            )
            blockages.append(Blockage(edge=edges[e], blocking_red=blocking))
    return ReductionTrace(
        graph=graph,
        steps=steps,
        remaining=remaining,
        commitment_order=tuple(commitments[c] for c in run.commitment_order),
        conjunction_order=tuple(conjunctions[j] for j in run.conjunction_order),
        blockages=tuple(blockages),
    )


def reduce_graph(
    graph: SequencingGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> ReductionTrace:
    """Reduce *graph* greedily and return the trace.

    ``enable_persona_clause=False`` ablates Rule #1 clause 2 (§4.2.3); see
    :func:`run_reduction` for the strategies.
    """
    compiled = compile_graph(graph)
    return decompile(
        compiled, run_reduction(compiled, strategy, rng, enable_persona_clause)
    )
