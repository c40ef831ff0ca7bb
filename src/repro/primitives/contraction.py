"""Vertex-contraction machinery shared by connectivity and MSF.

A contraction step is described by a ``leader`` array: ``leader[v]`` is the
vertex v merges into (leaders have ``leader[v] == v``). Leader pointers may
chain (v -> u -> w) when vertices contract to the lowest-id neighbor inside
a small component; :func:`resolve_pointers` collapses chains to their roots.

In AMPC, chain resolution is a *single adaptive round*: each vertex walks
its pointer chain with adaptive reads (the walk length is bounded by the
component size, which the algorithms keep ≤ d ≤ S). We execute the walk
with vectorized pointer doubling and charge one adaptive round whose read
count equals the total number of pointer steps a per-vertex walk would
perform — the exact model cost, computed without per-vertex Python loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cost import RoundStats

from .dedup import group_min

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import AMPCRuntime
    from repro.graph.graph import Graph, WeightedGraph


def resolve_pointers(
    leader: np.ndarray,
    runtime: "AMPCRuntime | None" = None,
    *,
    tag: str = "resolve-pointers",
) -> np.ndarray:
    """Root of each vertex's leader chain, charged as one adaptive round.

    Returns ``root`` with ``root[v]`` the fixed point reached from v.
    Raises ValueError if the pointers contain a cycle not of length 1.
    """
    n = leader.size
    root = leader.astype(np.int64, copy=True)
    # Model cost: vertex v pays (chain length of v) adaptive reads. Chain
    # lengths are recovered exactly below; doubling is only the execution
    # strategy, not the charged cost.
    depth = np.zeros(n, dtype=np.int64)
    unresolved = root != root[root]
    hops = np.where(root != np.arange(n), 1, 0).astype(np.int64)
    iterations = 0
    while unresolved.any():
        iterations += 1
        if iterations > 2 * max(1, int(np.ceil(np.log2(max(n, 2)))) + 2):
            raise ValueError("leader pointers contain a cycle")
        nxt = root[root]
        hops = hops + np.where(root != nxt, hops[root], 0)
        root = nxt
        unresolved = root != root[root]
    # Doubling over a pointer cycle can converge to a bogus fixed point
    # (e.g. a 2-cycle maps every element to itself); a true forest
    # resolution satisfies root[v] == root[leader[v]] everywhere.
    if n and not np.array_equal(root, root[leader]):
        raise ValueError("leader pointers contain a cycle")
    depth = hops
    if runtime is not None:
        # charge_stats (not report.add) so observers see this round too.
        runtime.charge_stats(
            RoundStats(
                index=len(runtime.report.rounds),
                tag=tag,
                kind="adaptive",
                rounds=1,
                total_reads=int(depth.sum()),
                total_writes=n,
                max_machine_reads=int(depth.max()) if n else 0,
                n_machines_active=runtime.config.n_machines,
                read_budget=runtime.config.read_budget,
                write_budget=runtime.config.write_budget,
            )
        )
    return root


def compact_labels(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map root ids to compact 0..n'-1 ids.

    Returns (new_of, rep): ``new_of[v]`` is v's compact component id and
    ``rep[i]`` is the original root vertex of compact id i.
    """
    rep, new_of = np.unique(root, return_inverse=True)
    return new_of.astype(np.int64), rep.astype(np.int64)


def contract_graph(
    graph: "Graph", root: np.ndarray
) -> tuple["Graph", np.ndarray, np.ndarray]:
    """Contract every vertex to its root; drop self-loops, dedup edges.

    Returns (contracted graph, new_of, rep). Uncharged: each caller
    charges the contraction round its model prices.
    """
    from repro.graph.graph import Graph, unique_sorted

    new_of, rep = compact_labels(root)
    # Every arc relabelled to its roots as the key row·n' + column; both
    # directions are already there, so the distinct non-loop keys are
    # the contracted CSR.
    n = rep.size
    keys = np.repeat(new_of, np.diff(graph.indptr))
    heads = new_of[graph.indices]
    keep = keys != heads
    keys *= n
    keys += heads
    del heads
    keys = keys[keep]
    keys.sort()
    return Graph.from_arc_keys(n, unique_sorted(keys)), new_of, rep


def contract_weighted(
    graph: "WeightedGraph", root: np.ndarray
) -> tuple["WeightedGraph", np.ndarray, np.ndarray, np.ndarray]:
    """Weighted contraction keeping the lightest parallel edge (uncharged,
    as :func:`contract_graph`).

    Only the lightest edge between two super-vertices can belong to the MSF
    (cycle rule), so parallel edges collapse to their minimum. Each kept
    edge remembers the *original* edge id so the driver can report MSF
    edges of the input graph (paper Algorithm 9's mapping M).

    Returns (contracted graph, new_of, rep, orig_edge_id) where
    ``orig_edge_id[j]`` is the input-graph edge id behind contracted edge j
    (aligned with the contracted graph's canonical edge list).
    """
    from repro.graph.graph import WeightedGraph

    new_of, rep = compact_labels(root)
    n_new = rep.size
    edges = graph.edge_list()
    weights = graph.edge_weights()
    eids = np.arange(edges.shape[0], dtype=np.int64)
    if edges.size == 0:
        empty = WeightedGraph.from_weighted_edges(n_new, edges, weights)
        return empty, new_of, rep, eids
    mapped = new_of[edges]
    lo = np.minimum(mapped[:, 0], mapped[:, 1])
    hi = np.maximum(mapped[:, 0], mapped[:, 1])
    keep = lo != hi
    lo, hi, w, ids = lo[keep], hi[keep], weights[keep], eids[keep]
    pair_key = lo * np.int64(n_new) + hi
    ukeys, uw, uids = group_min(pair_key, w, ids)
    ulo = (ukeys // n_new).astype(np.int64)
    uhi = (ukeys % n_new).astype(np.int64)
    new_edges = np.column_stack([ulo, uhi])
    contracted = WeightedGraph.from_weighted_edges(n_new, new_edges, uw)
    # from_weighted_edges lex-sorts canonical pairs; ukeys are already in
    # that order (group_min sorts by key), so uids aligns with edge ids.
    return contracted, new_of, rep, uids
