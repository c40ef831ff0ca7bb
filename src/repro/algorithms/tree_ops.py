"""Rooted-tree computations via Euler tours and list ranking (paper §8.1).

Rooting (Theorem 7): the Euler tour turns each tree into a circuit of arcs;
breaking the circuit at the root's first outgoing arc gives a list, and
list ranking assigns each arc its position (the *Euler sequence*). The
parent of v is the tail of whichever of v's two parent-edge arcs comes
first.

From the Euler sequence:

* subtree sizes (Lemma 8.7): subtree(v) occupies the position interval
  between v's entering and leaving arcs; half the interval length counts
  its vertices;
* preorder numbers (Lemma 8.8): prefix sums of forward-arc indicators;
* subtree min/max of arbitrary per-vertex values (Lemma 8.9): a range
  min/max query over the Euler sequence with an RMQ sparse table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.graph import Graph
from repro.graph.validation import is_forest
from repro.primitives.euler import EulerTour, build_euler_tour
from repro.primitives.prefix_sum import charged_prefix_sum
from repro.primitives.rmq import SparseTableRMQ

from .list_ranking import multi_list_ranking

TAIL = -1


@dataclass
class RootedForest:
    """A rooted forest with its Euler sequence and derived tables.

    Attributes:
        graph: the underlying forest.
        parent: parent[v] = v's parent (roots point to themselves).
        roots: the root of every tree (isolated vertices included).
        root_of: root_of[v] = the root of v's tree.
        position: position[arc] = the arc's global Euler-sequence index
            (per-tree sequences concatenated in root order; -1 never occurs
            for forests with edges).
        enter / leave: per-vertex interval [enter[v], leave[v]] of
            positions covered by subtree(v) (for roots: the whole tree's
            segment; for isolated vertices: an empty sentinel interval
            enter > leave).
        subtree_size: vertices in subtree(v), v included.
        preorder: global preorder number, unique across the forest, with
            subtree(v) = the preorder interval
            [preorder[v], preorder[v] + subtree_size[v] - 1].
        tour: the underlying Euler tour (arc arrays).
        report: cost ledger of the construction.
        config: deployment used.
    """

    graph: Graph
    parent: np.ndarray
    roots: np.ndarray
    root_of: np.ndarray
    position: np.ndarray
    enter: np.ndarray
    leave: np.ndarray
    subtree_size: np.ndarray
    preorder: np.ndarray
    tour: EulerTour
    report: RunReport
    config: AMPCConfig

    def subtree_values_rmq(
        self, values: np.ndarray, runtime: AMPCRuntime | None = None
    ) -> "SubtreeExtrema":
        """Prepare O(1)-query subtree min/max over per-vertex values
        (Lemma 8.9). ``values[v]`` is the value at vertex v."""
        return SubtreeExtrema(self, np.asarray(values, dtype=np.float64),
                              runtime)


class SubtreeExtrema:
    """Subtree min/max queries backed by an RMQ over the Euler sequence.

    The sequence entry at an arc's position carries the value of the arc's
    *head* vertex; every vertex of subtree(v) heads at least one arc inside
    v's interval, and no vertex outside does, so a range min/max over
    [enter[v], leave[v]] is exactly the subtree min/max. Root intervals
    cover their whole tree; vertices of edgeless trees are answered
    directly.
    """

    def __init__(
        self,
        forest: RootedForest,
        values: np.ndarray,
        runtime: AMPCRuntime | None = None,
    ) -> None:
        self.forest = forest
        self.values = values
        tour = forest.tour
        n_arcs = tour.n_arcs
        sequence = np.zeros(max(n_arcs, 1), dtype=np.float64)
        if n_arcs:
            sequence[forest.position] = values[tour.arc_dst]
        self._rmq = SparseTableRMQ(sequence, runtime)
        # Query interval per vertex: a non-root's leaving arc (the last
        # position of its [enter, leave] window) heads at its *parent*, so
        # it is excluded; root windows cover their whole tree and keep the
        # last position. Isolated vertices get an empty window (lo > hi).
        non_root = forest.parent != np.arange(forest.graph.n)
        self._lo = forest.enter.copy()
        self._hi = np.where(non_root, forest.leave - 1, forest.leave)

    def subtree_min(self, v: int) -> float:
        lo, hi = int(self._lo[v]), int(self._hi[v])
        if lo > hi:  # isolated vertex
            return float(self.values[v])
        return min(float(self.values[v]), self._rmq.range_min(lo, hi))

    def subtree_max(self, v: int) -> float:
        lo, hi = int(self._lo[v]), int(self._hi[v])
        if lo > hi:
            return float(self.values[v])
        return max(float(self.values[v]), self._rmq.range_max(lo, hi))

    def all_subtree_min(self) -> np.ndarray:
        """Vectorized subtree minima for every vertex (one query round)."""
        lo, hi = self._lo, self._hi
        out = self.values.copy()
        mask = lo <= hi
        if mask.any():
            mins = self._rmq.batch_range_min(lo[mask], hi[mask])
            out[mask] = np.minimum(out[mask], mins)
        return out

    def all_subtree_max(self) -> np.ndarray:
        lo, hi = self._lo, self._hi
        out = self.values.copy()
        mask = lo <= hi
        if mask.any():
            maxs = self._rmq.batch_range_max(lo[mask], hi[mask])
            out[mask] = np.maximum(out[mask], maxs)
        return out


def root_forest(
    graph: Graph,
    *,
    roots: np.ndarray | None = None,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    runtime: AMPCRuntime | None = None,
) -> RootedForest:
    """Root every tree of a forest and build its Euler tables (Theorem 7).

    Args:
        graph: a forest (validated).
        roots: one chosen root per tree (default: each tree's minimum
            vertex id). Isolated vertices are roots regardless.
        epsilon / seed / config: deployment, when ``runtime`` is None.
        runtime: existing runtime to share the ledger with.
    """
    if not is_forest(graph):
        raise ValueError("root_forest requires a forest")
    n = graph.n
    if config is None:
        config = (
            runtime.config if runtime is not None
            else AMPCConfig.for_input(max(n + graph.m, 1),
                                      epsilon=epsilon, seed=seed)
        )
    if runtime is None:
        runtime = new_runtime(config)

    tour = build_euler_tour(graph, runtime)
    degs = graph.degrees

    roots = _validate_roots(graph, roots)

    # Break each tree's circuit at the root's first out-arc: the arc whose
    # next is that start arc becomes a tail (one primitive round of
    # pointer edits).
    n_arcs = tour.n_arcs
    succ = tour.next_arc.copy()
    heads = []
    if n_arcs:
        prev = np.empty(n_arcs, dtype=np.int64)
        prev[tour.next_arc] = np.arange(n_arcs, dtype=np.int64)
        for r in roots.tolist():
            if degs[r] == 0:
                continue
            start = int(graph.indptr[r])
            succ[prev[start]] = TAIL
            heads.append(start)
    runtime.charge("break-circuits", rounds=1,
                   reads=len(heads), writes=len(heads))

    # Euler positions via multi-list ranking (O(1/eps) rounds).
    if heads:
        ranking = multi_list_ranking(
            succ, np.array(heads, dtype=np.int64), runtime=runtime
        )
        rank = ranking.ranks
        head_of = ranking.head_of
        # Per-tree segments concatenated in ascending head order.
        head_arr = np.array(sorted(heads), dtype=np.int64)
        tree_sizes = np.bincount(
            np.searchsorted(head_arr, head_of), minlength=head_arr.size
        )
        offsets = np.zeros(head_arr.size, dtype=np.int64)
        np.cumsum(tree_sizes[:-1], out=offsets[1:])
        position = offsets[np.searchsorted(head_arr, head_of)] + rank
    else:
        position = np.zeros(0, dtype=np.int64)

    # Parent: for each tree edge, the direction ranked earlier goes
    # parent -> child (one primitive round over arcs).
    parent = np.arange(n, dtype=np.int64)
    if n_arcs:
        forward = position < position[tour.twin]
        parent[tour.arc_dst[forward]] = tour.arc_src[forward]
    runtime.charge("derive-parents", rounds=1, reads=n_arcs, writes=n)

    enter = np.full(n, 0, dtype=np.int64)
    leave = np.full(n, -1, dtype=np.int64)
    if n_arcs:
        # Non-roots: [position of entering arc, position of leaving arc].
        fwd_idx = np.flatnonzero(forward)
        child = tour.arc_dst[fwd_idx]
        enter[child] = position[fwd_idx]
        leave[child] = position[tour.twin[fwd_idx]]
        # Roots of trees with edges span their whole tree segment.
        for r in roots.tolist():
            if degs[r] == 0:
                continue
            start = int(graph.indptr[r])
            h = int(np.searchsorted(head_arr, start))
            enter[r] = int(offsets[h])
            leave[r] = int(offsets[h] + tree_sizes[h] - 1)

    subtree_size = np.ones(n, dtype=np.int64)
    has_interval = leave >= enter
    # Arcs in the interval = 2 * (subtree vertices - 1) for roots and
    # 2 * subtree vertices - 2 ... both reduce to the same closed form:
    # non-root: interval length = 2*size - 1 arcs? See tests; derived:
    # for non-root v, [enter, leave] holds exactly 2*size(v) - 1 arcs
    # counting both parent-edge arcs minus... we use the standard
    # (leave - enter + 1 + 2) // 2 for non-roots below.
    non_root = parent != np.arange(n)
    nr = non_root & has_interval
    subtree_size[nr] = (leave[nr] - enter[nr] + 1 + 1) // 2
    root_edge = (~non_root) & has_interval
    subtree_size[root_edge] = (leave[root_edge] - enter[root_edge] + 1) // 2 + 1
    charged_prefix_sum(np.ones(max(n_arcs, 1)), runtime, tag="subtree-sizes")

    # Preorder: prefix-count of forward arcs along the global sequence,
    # then per-tree renumbering so numbers are globally unique and each
    # subtree owns the interval [preorder[v], preorder[v] + size(v) - 1].
    preorder = np.zeros(n, dtype=np.int64)
    if n_arcs:
        fwd_at_pos = np.zeros(n_arcs, dtype=np.int64)
        fwd_at_pos[position[forward]] = 1
        cum = charged_prefix_sum(fwd_at_pos, runtime, tag="preorder")
        # Per-tree bookkeeping: forward arcs before each segment, and the
        # global vertex offset of each tree (earlier trees' vertex counts).
        tree_vertices = tree_sizes // 2 + 1
        vertex_offset = np.zeros(head_arr.size, dtype=np.int64)
        np.cumsum(tree_vertices[:-1], out=vertex_offset[1:])
        pre_tree_fwd = np.zeros(head_arr.size, dtype=np.int64)
        pre_tree_fwd[1:] = cum[offsets[1:] - 1]
        fwd_idx2 = np.flatnonzero(forward)
        child2 = tour.arc_dst[fwd_idx2]
        tree_of = np.searchsorted(offsets, position[fwd_idx2], side="right") - 1
        preorder[child2] = (
            vertex_offset[tree_of]
            + cum[position[fwd_idx2]]
            - pre_tree_fwd[tree_of]
        )
        for r in roots.tolist():
            if degs[r]:
                t = int(np.searchsorted(head_arr, int(graph.indptr[r])))
                preorder[r] = int(vertex_offset[t])
    # Isolated vertices get fresh numbers after all tree vertices.
    n_tree_vertices = int(np.count_nonzero(degs > 0))
    isolated = np.flatnonzero(degs == 0)
    preorder[isolated] = n_tree_vertices + np.arange(isolated.size)

    root_of = _resolve_roots(parent)
    return RootedForest(
        graph=graph,
        parent=parent,
        roots=roots,
        root_of=root_of,
        position=position,
        enter=enter,
        leave=leave,
        subtree_size=subtree_size,
        preorder=preorder,
        tour=tour,
        report=runtime.report,
        config=config,
    )


def _validate_roots(graph: Graph, roots: np.ndarray | None) -> np.ndarray:
    """Default/validated root set: one per component (min id by default)."""
    from repro.graph.validation import components_reference

    labels = components_reference(graph)
    if roots is None:
        return np.unique(labels)
    roots = np.asarray(roots, dtype=np.int64)
    seen_components = labels[roots]
    if np.unique(seen_components).size != roots.size:
        raise ValueError("roots must name each tree at most once")
    chosen = set(seen_components.tolist())
    missing = [int(c) for c in np.unique(labels) if int(c) not in chosen]
    if missing:
        return np.sort(np.concatenate([roots, np.array(missing, np.int64)]))
    return np.sort(roots)


def _resolve_roots(parent: np.ndarray) -> np.ndarray:
    """root_of[v] via pointer doubling over the parent forest."""
    root = parent.copy()
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def depths(forest: RootedForest, runtime: AMPCRuntime | None = None) -> np.ndarray:
    """Depth of every vertex (roots at 0).

    Model cost: one signed prefix sum over the Euler sequence (+1 on
    forward arcs, −1 on reverse arcs) — the depth of v is the running sum
    at its entering arc. Charged as one scan; computed here from the
    parent array, which yields identical values.
    """
    parent = forest.parent
    n = parent.size
    depth = np.zeros(n, dtype=np.int64)
    ptr = parent.copy()
    hops = np.where(ptr != np.arange(n), 1, 0).astype(np.int64)
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        hops = hops + np.where(ptr != nxt, hops[ptr], 0)
        ptr = nxt
    depth = hops
    charged_prefix_sum(np.ones(max(forest.tour.n_arcs, 1)), runtime,
                       tag="depths")
    return depth


class LCAIndex:
    """O(1)-query lowest common ancestors via Euler positions + RMQ.

    The classic reduction (an application of the paper's §8.1 toolkit):
    between the first visits of u and v on the Euler tour, the
    minimum-depth vertex is LCA(u, v). The RMQ stores
    ``depth · (n+1) + vertex`` so the argmin vertex rides along with the
    minimum.

    Build: O(1/ε) rounds on top of an existing :class:`RootedForest`
    (one RMQ construction); each query: O(1) reads.
    """

    def __init__(
        self,
        forest: RootedForest,
        runtime: AMPCRuntime | None = None,
    ) -> None:
        self.forest = forest
        n = forest.graph.n
        self._depth = depths(forest, runtime)
        tour = forest.tour
        n_arcs = tour.n_arcs
        encoded = np.zeros(max(n_arcs, 1), dtype=np.float64)
        if n_arcs:
            heads = tour.arc_dst
            encoded[forest.position] = (
                self._depth[heads].astype(np.float64) * (n + 1) + heads
            )
        self._rmq = SparseTableRMQ(encoded, runtime, tag="lca-build")
        self._n = n

    @property
    def depth(self) -> np.ndarray:
        """Depth table (roots at 0)."""
        return self._depth

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of u and v (same tree required)."""
        forest = self.forest
        if forest.root_of[u] != forest.root_of[v]:
            raise ValueError(
                f"{u} and {v} are in different trees; no common ancestor"
            )
        if u == v:
            return int(u)
        root = int(forest.root_of[u])
        if u == root or v == root:
            return root
        lo = int(min(forest.enter[u], forest.enter[v]))
        hi = int(max(forest.enter[u], forest.enter[v]))
        encoded = self._rmq.range_min(lo, hi)
        return int(round(encoded)) % (self._n + 1)

    def distance(self, u: int, v: int) -> int:
        """Tree distance (number of edges) between u and v."""
        a = self.lca(u, v)
        return int(self._depth[u] + self._depth[v] - 2 * self._depth[a])


def sequential_rooted_reference(
    graph: Graph, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DFS reference: (parent, subtree_size, preorder-compatible depth).

    Returns parents and subtree sizes from an explicit DFS; preorder
    numbers are implementation-defined (they depend on child visit order),
    so tests check *interval consistency* rather than exact equality.
    """
    n = graph.n
    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    for r in roots.tolist():
        if visited[r]:
            continue
        stack = [int(r)]
        visited[r] = True
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for u in graph.neighbors(v).tolist():
                if not visited[u]:
                    visited[u] = True
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    stack.append(u)
        for v in reversed(order):
            if parent[v] != v:
                size[parent[v]] += size[v]
    return parent, size, depth
