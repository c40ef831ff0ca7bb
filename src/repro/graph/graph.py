"""Graph containers used across the library.

Graphs are immutable CSR (compressed sparse row) structures over numpy
arrays: ``indptr`` of length n+1 and ``indices`` of length 2m, with both
directions of every undirected edge stored so neighborhood access is a
contiguous slice — the memory-friendly layout the HPC guides recommend
(views, not copies; contiguous access).

Vertices are integers 0..n-1 (paper §3). Self-loops and duplicate edges are
rejected at construction, matching the paper's assumption.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Graph:
    """Immutable undirected graph in CSR form.

    Construct via :meth:`from_edges` (validating) or :meth:`from_csr`
    (trusting, for internal fast paths).
    """

    __slots__ = ("n", "indptr", "indices", "_m")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self._m = int(indices.size // 2)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build a graph from an edge list.

        Self-loops are rejected; duplicate edges (in either orientation) are
        collapsed. Endpoints must lie in [0, n).
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be (m, 2), got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range [0, n)")
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed (paper §3)")
        arr = canonical_edges(arr)
        return cls._from_canonical(n, arr)

    @classmethod
    def _from_canonical(cls, n: int, arr: np.ndarray) -> "Graph":
        """Build from deduplicated u<v edges (internal)."""
        m = arr.shape[0]
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(arr[:, 0], n, out=keys[:m])
        keys[:m] += arr[:, 1]
        np.multiply(arr[:, 1], n, out=keys[m:])
        keys[m:] += arr[:, 0]
        keys.sort()
        return cls.from_arc_keys(n, keys)

    @classmethod
    def from_arc_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Build from the sorted, distinct arc keys ``row·n + column`` of
        both directions of every edge (``n²`` must fit in int64). Takes
        ``keys`` over: it becomes the ``indices`` array."""
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys, n, out=keys)
        return cls(n, indptr, keys)

    @classmethod
    def from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Wrap existing CSR arrays without validation (fast path)."""
        return cls(n, indptr, indices)

    # -- accessors ----------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._m

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Degree array (fresh, length n)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of v (a view — do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def subgraph_without_edges(self, drop: np.ndarray) -> "Graph":
        """New graph with the given (u, v) edges removed (u<v rows)."""
        if drop.size == 0:
            return Graph(self.n, self.indptr.copy(), self.indices.copy())
        drop = canonical_edges(np.asarray(drop, dtype=np.int64))
        keep = edge_set_difference(self.edges(), drop)
        return Graph._from_canonical(self.n, keep)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


class WeightedGraph(Graph):
    """Undirected graph with one weight per edge, CSR-aligned.

    ``weights`` is aligned with ``indices`` (each direction carries its
    edge's weight) and ``edge_ids`` maps each direction to the canonical
    edge index in :meth:`edge_list` order, so MSF algorithms can report
    original edges after contractions.

    MSF assumes distinct weights (paper §7); :meth:`weights_distinct`
    reports whether that holds, and :func:`total_order_key` provides the
    paper's suggested tie-break by endpoint ids otherwise.
    """

    __slots__ = ("weights", "edge_ids", "_edge_list", "_edge_weights")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        edge_ids: np.ndarray,
        edge_list: np.ndarray,
        edge_weights: np.ndarray,
    ) -> None:
        super().__init__(n, indptr, indices)
        self.weights = weights
        self.edge_ids = edge_ids
        self._edge_list = edge_list
        self._edge_weights = edge_weights

    @classmethod
    def from_weighted_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Iterable[float] | np.ndarray,
    ) -> "WeightedGraph":
        earr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                          dtype=np.int64)
        if earr.size == 0:
            earr = earr.reshape(0, 2)
        warr = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                          dtype=np.float64)
        if earr.shape[0] != warr.shape[0]:
            raise ValueError("edges and weights must have equal length")
        if earr.size and np.any(earr[:, 0] == earr[:, 1]):
            raise ValueError("self-loops are not allowed")
        if earr.size and (earr.min() < 0 or earr.max() >= n):
            raise ValueError("edge endpoint out of range [0, n)")
        # Canonicalize u < v, keep first weight among duplicates.
        lo = np.minimum(earr[:, 0], earr[:, 1])
        hi = np.maximum(earr[:, 0], earr[:, 1])
        order = np.lexsort((hi, lo))
        lo, hi, warr = lo[order], hi[order], warr[order]
        if lo.size:
            uniq = np.ones(lo.size, dtype=bool)
            uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            lo, hi, warr = lo[uniq], hi[uniq], warr[uniq]
        edge_list = np.column_stack([lo, hi]) if lo.size else np.zeros((0, 2), np.int64)
        m = edge_list.shape[0]
        eids = np.arange(m, dtype=np.int64)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        w2 = np.concatenate([warr, warr])
        id2 = np.concatenate([eids, eids])
        o = np.lexsort((dst, src)) if src.size else np.array([], dtype=np.int64)
        src, dst, w2, id2 = src[o], dst[o], w2[o], id2[o]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if src.size:
            np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, dst.copy(), w2.copy(), id2.copy(), edge_list, warr.copy())

    # -- accessors ----------------------------------------------------------

    def edge_list(self) -> np.ndarray:
        """(m, 2) canonical edge array (u < v); row index = edge id."""
        return self._edge_list

    def edge_weights(self) -> np.ndarray:
        """Weight per canonical edge id."""
        return self._edge_weights

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` of v (a view)."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_edge_ids(self, v: int) -> np.ndarray:
        """Canonical edge ids aligned with :meth:`neighbors` of v (a view)."""
        return self.edge_ids[self.indptr[v]:self.indptr[v + 1]]

    def weights_distinct(self) -> bool:
        return np.unique(self._edge_weights).size == self._edge_weights.size

    def total_weight(self, edge_ids: np.ndarray) -> float:
        return float(self._edge_weights[edge_ids].sum())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def canonical_edges(arr: np.ndarray) -> np.ndarray:
    """Normalize an edge array: u < v per row, deduplicated, lex-sorted."""
    if arr.size == 0:
        return arr.reshape(0, 2).astype(np.int64)
    return unique_pairs(
        np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    )


def unique_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Distinct ``(first[i], second[i])`` pairs, lex-sorted, as (k, 2) int64.

    Equal to ``np.unique(np.column_stack([first, second]), axis=0)``, which
    sorts 16-byte void rows; whenever the value ranges allow it this sorts
    the scalar key ``first * base + second`` instead (several times
    faster) and splits it back. The range check is done in Python ints:
    the row-wise path stays as the fallback for pairs whose key would not
    fit in int64. Needs at least one pair.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    first_lo, second_lo = int(first.min()), int(second.min())
    base = int(second.max()) - second_lo + 1
    if (int(first.max()) - first_lo + 1) * base > 2**63:
        return np.unique(np.column_stack([first, second]), axis=0)
    keys = sort_unique((first - first_lo) * base + (second - second_lo))
    high, low = np.divmod(keys, base)
    return np.column_stack([high + first_lo, low + second_lo])


def sort_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer arrays: a sorted flat copy with
    each element kept only where it differs from its predecessor.

    Plain ``np.unique`` of integers takes a hash-table path in recent
    numpy that is many times slower than this sort on large inputs.
    """
    return unique_sorted(np.sort(np.asarray(values), axis=None))


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct elements of a sorted 1-D array: each one that differs
    from its predecessor (the adjacent-compare half of
    :func:`sort_unique`, for callers that sorted in place)."""
    if values.size <= 1:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def edge_set_difference(edges: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Rows of ``edges`` not present in ``drop`` (both canonical u<v)."""
    if edges.size == 0 or drop.size == 0:
        return edges
    n = int(max(edges.max(), drop.max())) + 1
    key_e = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    key_d = drop[:, 0].astype(np.int64) * n + drop[:, 1]
    return edges[~np.isin(key_e, key_d)]


def total_order_key(weight: float, u: int, v: int) -> tuple[float, int, int]:
    """Strict total order on edges: weight, tie-broken by endpoint ids.

    The paper assumes distinct weights "for simplicity" and notes ties can
    be broken by endpoint ids; this is that tie-break.
    """
    return (weight, min(u, v), max(u, v))
