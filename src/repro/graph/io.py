"""DDS encodings of graphs, lists and per-vertex tables.

The AMPC algorithms read graphs through the distributed data store using
key conventions shared between drivers and machine programs:

* ``("deg", v) -> deg(v)`` and ``("adj", v, i) -> i-th neighbor`` for plain
  graphs (i is 0-based; neighbors in sorted order),
* ``("adjw", v, i) -> (neighbor, weight, edge_id)`` for weighted graphs,
* the *flat* weighted scheme MSF reads —
  ``("deg", v) -> (deg(v), base_v)`` with ``base_v`` the row start in the
  CSR, and ``("adjw", base_v + i) -> (neighbor, weight, edge_id)`` —
  whose integer-only key columns make it expressible both as scalar pairs
  (:func:`encode_weighted_graph_flat`) and as ``setup_arrays`` columns
  (:func:`encode_weighted_graph_arrays`) with identical key placement,
* ``("succ", v) / ("pred", v)`` for cycle and list pointer structures,
* ``(name, v) -> value`` for driver-published per-vertex tables (sampled
  flags, statuses, priorities, ...).

Every encoder returns an iterator of (key, value) pairs suitable for
``AMPCRuntime.round(setup=...)``; the runtime charges their publication as
writes, so the accounting includes the cost of re-materializing state
between rounds, as a real deployment must.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from .graph import Graph, WeightedGraph

Pairs = Iterator[tuple[Hashable, Any]]


def encode_graph(graph: Graph, prefix: str = "adj") -> Pairs:
    """CSR adjacency as ("deg", v) and (prefix, v, i) pairs."""
    indptr, indices = graph.indptr, graph.indices
    for v in range(graph.n):
        start, end = indptr[v], indptr[v + 1]
        yield ("deg", v), int(end - start)
        for i in range(end - start):
            yield (prefix, v, i), int(indices[start + i])


def encode_graph_arrays(
    graph: Graph,
    prefix: str = "adj",
    *,
    chunk_edges: int = 1 << 20,
) -> Iterator[tuple]:
    """Chunked columnar twin of :func:`encode_graph` for
    ``round_batch(setup_arrays=...)``.

    Yields ``("deg", vertex_ids, degrees)`` triples and slotted
    ``(prefix, vertex_ids, slots, neighbors)`` quadruples whose keys,
    values, write count (n + 2m) and per-server placement are identical
    to the scalar pair stream — only the write *order* differs (all
    degrees, then adjacency), which no ledger observes.

    Chunking is the out-of-core contract: no yielded array exceeds
    ``chunk_edges`` rows, and when ``graph`` is an
    :class:`~repro.graph.csr.MmapGraph` the neighbor columns are
    read-only mmap slices the store retains without copying — peak RSS
    stays O(chunk), not O(m).
    """
    indptr, indices = graph.indptr, graph.indices
    n = graph.n
    step = max(1, int(chunk_edges))

    def _sealed(array: np.ndarray) -> np.ndarray:
        # Freshly computed, never exposed elsewhere: marking it read-only
        # lets the store's append retain it instead of re-copying.
        array.flags.writeable = False
        return array

    for lo in range(0, n, step):
        hi = min(n, lo + step)
        degs = np.asarray(indptr[lo + 1 : hi + 1]) - np.asarray(
            indptr[lo:hi]
        )
        ids = np.arange(lo, hi, dtype=np.int64)
        yield ("deg", _sealed(ids), _sealed(degs))
    total = int(indptr[-1]) if n else 0
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        pos = np.arange(lo, hi, dtype=np.int64)
        rows = np.searchsorted(indptr, pos, side="right") - 1
        slots = pos - np.asarray(indptr[rows])
        yield (prefix, _sealed(rows), _sealed(slots), indices[lo:hi])


def encode_weighted_graph(graph: WeightedGraph, prefix: str = "adjw") -> Pairs:
    """Weighted adjacency as (prefix, v, i) -> (nbr, weight, edge_id)."""
    indptr, indices = graph.indptr, graph.indices
    weights, eids = graph.weights, graph.edge_ids
    for v in range(graph.n):
        start, end = indptr[v], indptr[v + 1]
        yield ("deg", v), int(end - start)
        for i in range(end - start):
            j = start + i
            yield (prefix, v, i), (int(indices[j]), float(weights[j]), int(eids[j]))


def encode_weighted_graph_flat(
    graph: WeightedGraph, prefix: str = "adjw"
) -> Pairs:
    """Flat-key weighted adjacency as scalar pairs.

    ``("deg", v) -> (deg, base)`` and ``(prefix, base + i) ->
    (nbr, weight, edge_id)``: the key set (hence server placement) matches
    :func:`encode_weighted_graph_arrays` exactly.
    """
    indptr, indices = graph.indptr, graph.indices
    weights, eids = graph.weights, graph.edge_ids
    for v in range(graph.n):
        start, end = int(indptr[v]), int(indptr[v + 1])
        yield ("deg", v), (end - start, start)
    for pos in range(indices.size):
        yield (prefix, pos), (
            int(indices[pos]), float(weights[pos]), int(eids[pos])
        )


def encode_weighted_graph_arrays(
    graph: WeightedGraph, prefix: str = "adjw"
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Columnar twin of :func:`encode_weighted_graph_flat` for
    ``round_batch(setup_arrays=...)``: same keys, one bulk write per
    namespace. The ``prefix`` values are float64 rows (nbr, weight,
    edge_id); ids and edge ids are exact under 2**53."""
    indptr = graph.indptr
    deg_vals = np.stack([np.diff(indptr), indptr[:-1]], axis=1)
    adj_vals = np.stack(
        [
            graph.indices.astype(np.float64),
            graph.weights.astype(np.float64),
            graph.edge_ids.astype(np.float64),
        ],
        axis=1,
    )
    return [
        ("deg", np.arange(graph.n, dtype=np.int64), deg_vals),
        (prefix, np.arange(graph.indices.size, dtype=np.int64), adj_vals),
    ]


def encode_cycle_pointers(graph: Graph) -> Pairs:
    """Orient a union of cycles into ("succ", v)/("pred", v) pairs.

    Every vertex must have degree exactly 2. The orientation follows each
    cycle consistently (successor of v is the neighbor not used to enter v).
    """
    succ, pred = orient_cycles(graph)
    for v in range(graph.n):
        yield ("succ", v), int(succ[v])
        yield ("pred", v), int(pred[v])


def orient_cycles(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Successor/predecessor arrays for a disjoint union of cycles."""
    degs = graph.degrees
    if graph.n and not np.all(degs == 2):
        bad = int(np.flatnonzero(degs != 2)[0])
        raise ValueError(
            f"not a union of cycles: vertex {bad} has degree {degs[bad]}"
        )
    n = graph.n
    succ = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    for start in range(n):
        if visited[start]:
            continue
        prev = start
        cur = int(graph.neighbors(start)[0])
        visited[start] = True
        succ[start] = cur
        pred[cur] = start
        while cur != start:
            visited[cur] = True
            a, b = graph.neighbors(cur)
            nxt = int(b) if int(a) == prev else int(a)
            succ[cur] = nxt
            pred[nxt] = cur
            prev, cur = cur, nxt
    return succ, pred


def encode_list_pointers(succ: np.ndarray, name: str = "succ") -> Pairs:
    """Successor array as (name, v) pairs; -1 entries are encoded too (the
    tail's successor), read back as -1 sentinels."""
    for v in range(succ.size):
        yield (name, v), int(succ[v])


def encode_table(name: str, values: dict | np.ndarray) -> Pairs:
    """Per-vertex table as (name, v) -> value pairs.

    Accepts a dict (sparse) or an array (dense; index = vertex).
    """
    if isinstance(values, dict):
        for v, value in values.items():
            yield (name, v), value
    else:
        for v in range(len(values)):
            yield (name, v), values[v].item() if isinstance(values[v], np.generic) else values[v]


def encode_flags(name: str, members: Iterable[int]) -> Pairs:
    """Set membership as (name, v) -> 1 pairs (absent = not a member)."""
    for v in members:
        yield (name, int(v)), 1


def chain(*encoders: Iterable[tuple[Hashable, Any]]) -> Pairs:
    """Concatenate several pair iterators into one setup stream."""
    for enc in encoders:
        yield from enc


def graph_pair_count(graph: Graph) -> int:
    """Number of pairs :func:`encode_graph` emits (n + 2m)."""
    return graph.n + 2 * graph.m
