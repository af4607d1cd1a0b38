"""Flatten a :class:`SequencingGraph` into dense integer lists.

The compiled form is the whole trick: once commitments, conjunctions, and
edges are dense integer ids, the §4.2 reduction rules become comparisons on
list counters instead of hash lookups on node and edge values.  The compiler
runs once per graph (O(V + E)); the step-recording loop in
:mod:`repro.core.reduction` and the free-order verdict loop in
:mod:`repro.core.flatcore.runtime` both consume its output.

Layout (plain ``list``/``bytearray`` — small graphs dominate the workload,
and list indexing and copying beat ``array`` there):

* ``edge_commitment`` / ``edge_conjunction`` — edge id → node id, in
  ``graph.edges`` order (so edge id *i* is exactly ``graph.edges[i]``,
  which keeps decompilation a tuple lookup).
* ``edge_red`` — ``bytearray`` color mask (1 = red / priority obligation).
* ``persona`` — ``bytearray`` over commitments (1 = §4.2.3 persona, i.e.
  the trusted-principal waiver *may* apply at that commitment node).
* ``j_off``/``j_adj`` — CSR adjacency of conjunctions: the edges incident
  to conjunction ``j`` are ``j_adj[j_off[j]:j_off[j + 1]]``, in
  ``graph.edges`` order (the order blockage diagnoses list red edges in).
  Commitments need no rows: their survivors are found by id sum.
* ``cc0``/``jc0``/``rj0`` — initial live-edge counts per commitment, per
  conjunction, and initial *red* live-edge counts per conjunction.  An
  edge's blocking-red count is ``rj[j] - red[e]`` (parallel edges are
  rejected by ``SequencingGraph``, so an edge sees at most one red of its
  own at its conjunction — itself).
* ``csum0``/``jsum0``/``jrsum0`` — sums of live edge *ids* per node.  When
  a counter drops to 1 the surviving edge id is exactly the sum, so fringe
  survivors are found in O(1) without scanning adjacency rows.
* ``seeds_on``/``seeds_off`` — edge ids initially eligible under Rule 1 or
  Rule 2, with the persona clause enabled/disabled, in edge-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sequencing import SequencingGraph


@dataclass(frozen=True)
class CompiledGraph:
    """The flat form of one sequencing graph.  Treat every field read-only;
    runtime loops copy the mutable counters before reducing."""

    graph: SequencingGraph
    n_edges: int
    n_commitments: int
    n_conjunctions: int
    edge_commitment: list[int]
    edge_conjunction: list[int]
    edge_red: bytearray
    persona: bytearray
    j_off: list[int]
    j_adj: list[int]
    cc0: list[int]
    jc0: list[int]
    rj0: list[int]
    csum0: list[int]
    jsum0: list[int]
    jrsum0: list[int]
    seeds_on: list[int]
    seeds_off: list[int]


def compile_graph(graph: SequencingGraph) -> CompiledGraph:
    """Flatten ``graph`` into the dense integer form described above."""
    edges = graph.edges
    n_e = len(edges)
    n_c = len(graph.commitments)
    n_j = len(graph.conjunctions)

    cidx = {node: i for i, node in enumerate(graph.commitments)}
    jidx = {node: i for i, node in enumerate(graph.conjunctions)}

    ec = [0] * n_e
    ej = [0] * n_e
    red = bytearray(n_e)
    cc0 = [0] * n_c
    csum0 = [0] * n_c
    jc0 = [0] * n_j
    jsum0 = [0] * n_j
    rj0 = [0] * n_j
    jrsum0 = [0] * n_j
    j_rows: list[list[int]] = [[] for _ in range(n_j)]
    for i, edge in enumerate(edges):
        c = cidx[edge.commitment]
        j = jidx[edge.conjunction]
        ec[i] = c
        ej[i] = j
        cc0[c] += 1
        csum0[c] += i
        jc0[j] += 1
        jsum0[j] += i
        j_rows[j].append(i)
        if edge.is_red:
            red[i] = 1
            rj0[j] += 1
            jrsum0[j] += i

    persona = bytearray(n_c)
    for node in graph.personas:
        persona[cidx[node]] = 1

    seeds_on: list[int] = []
    seeds_off: list[int] = []
    for i in range(n_e):
        c = ec[i]
        j = ej[i]
        fringe = cc0[c] == 1
        if jc0[j] == 1 or (fringe and rj0[j] == red[i]):
            seeds_on.append(i)
            seeds_off.append(i)
        elif fringe and persona[c]:
            seeds_on.append(i)

    j_off = [0]
    j_adj: list[int] = []
    for row in j_rows:
        j_adj.extend(row)
        j_off.append(len(j_adj))

    return CompiledGraph(
        graph=graph,
        n_edges=n_e,
        n_commitments=n_c,
        n_conjunctions=n_j,
        edge_commitment=ec,
        edge_conjunction=ej,
        edge_red=red,
        persona=persona,
        j_off=j_off,
        j_adj=j_adj,
        cc0=cc0,
        jc0=jc0,
        rj0=rj0,
        csum0=csum0,
        jsum0=jsum0,
        jrsum0=jrsum0,
        seeds_on=seeds_on,
        seeds_off=seeds_off,
    )
