"""Minimum spanning forest in O(log log_{T/n} n) AMPC rounds (paper §7).

Same phase skeleton as connectivity, with Prim's algorithm in place of BFS:
each vertex grows a local spanning tree F_v of size d by repeatedly taking
the lightest edge leaving F_v (Algorithm 8) — every such edge is an MSF
edge by the cut rule, so it is committed immediately. Vertices then
contract onto leaders sampled inside their F_v, parallel edges collapse to
their lightest representative (only that one can be in the MSF), and the
budget grows d → d^1.4 (Algorithm 9, Theorem 4).

Edge identity is preserved through contractions with an explicit
original-edge-id mapping (the paper's map M), so the output is a set of
*input* edge ids whose weight sum tests verify against the sequential MSF.

Each Prim round is one fused round: the phase graph is published
columnarly (``setup_arrays``, the flat key scheme of
:func:`repro.graph.io.encode_weighted_graph_arrays`), and one program
call grows every vertex's F_v in lockstep against CSR rows presorted by
(weight, edge id) — each numpy step advances every walk by one edge (a
segmented minimum over per-member row cursors). Reads are replayed
locally and charged at the end with ``charge_replayed_reads``, which
bills each machine for each distinct key once, as its read cache would;
MSF edges and F_v members are published with one ``write_array`` per
namespace. Leader election is a minimum.at pass over the published
member rows. The per-vertex transcription of Algorithm 8 the fused
program is checked against is ``repro.verify.specs.prim``.

The phase loop itself — budget schedule, leader coins, pointer
resolution, contraction charge and the one-machine endgame — is
:func:`repro.algorithms.phases.run_phases`, shared with connectivity.
This module supplies the Prim round, its leader rule and the edge map M
a contraction keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.graph import WeightedGraph, sort_unique
from repro.graph.io import encode_weighted_graph_arrays
from repro.primitives.contraction import contract_weighted

from .phases import run_phases, union_find


@dataclass
class MSFResult:
    """Output and cost of one MSF run.

    Attributes:
        edge_ids: canonical edge ids (rows of ``graph.edge_list()``) of the
            minimum spanning forest, sorted.
        total_weight: sum of the MSF edge weights.
        phases: contraction phases executed.
        budgets: per-phase budgets (the d -> d^1.4 trajectory).
        report: cost ledger.
        config: deployment used.
    """

    edge_ids: np.ndarray
    total_weight: float
    phases: int
    budgets: list[float] = field(default_factory=list)
    report: RunReport | None = None
    config: AMPCConfig | None = None


def minimum_spanning_forest(
    graph: WeightedGraph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    runtime: AMPCRuntime | None = None,
    vectorized: bool = False,
) -> MSFResult:
    """Minimum spanning forest (paper Algorithm 9).

    Edge weights must be distinct (paper §7); ties are rejected — break
    them upstream with :func:`repro.graph.graph.total_order_key` semantics
    (e.g. via ``generators.with_random_weights``).

    Args:
        graph: weighted input graph (distinct weights).
        epsilon: space exponent ε.
        seed: reproducibility seed.
        config: explicit deployment.
        runtime: run on an existing runtime (shares its ledger).
        vectorized: accepted and ignored (one machine program per
            round on every runtime; kept for existing callers).
    """
    n = graph.n
    if config is None:
        config = (
            runtime.config
            if runtime is not None
            else AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon,
                                      seed=seed)
        )
    if not graph.weights_distinct():
        raise ValueError("MSF requires distinct edge weights (paper §7)")
    if runtime is None:
        runtime = new_runtime(config)
    if n == 0 or graph.m == 0:
        return MSFResult(
            edge_ids=np.zeros(0, np.int64), total_weight=0.0, phases=0,
            report=runtime.report, config=config,
        )

    forest = _Forest(graph.m)

    def grow(current: WeightedGraph, d: int, phase: int):
        # Step 3a: MSFIncreaseDegree — one adaptive local-Prim round.
        msf_ids, *fv = _msf_increase_degree(current, d, runtime,
                                            tag=f"prim:{phase}")
        # Step 3b: commit the discovered MSF edges through the map M.
        # Every vertex that found an edge reports it, hence the unique.
        forest.commit(sort_unique(msf_ids))
        # Step 3d: each vertex contracts to a leader inside its F_v.
        return current, lambda is_leader: _choose_leaders(
            current.n, *fv, is_leader)

    budgets = run_phases("MSF", graph, n, config, runtime,
                         config.rng(salt=0x35F), grow=grow, keep=forest)
    edge_ids = sort_unique(np.concatenate(forest.committed))
    return MSFResult(
        edge_ids=edge_ids,
        total_weight=graph.total_weight(edge_ids),
        phases=len(budgets),
        budgets=budgets,
        report=runtime.report,
        config=config,
    )


class _Forest:
    """What an MSF contraction keeps: Algorithm 9's map M from each
    current edge to its input edge id, and the input edges committed so
    far (one array per phase)."""

    def __init__(self, m: int) -> None:
        self.orig_eid = np.arange(m, dtype=np.int64)
        self.committed: list[np.ndarray] = []

    def commit(self, ids: np.ndarray) -> None:
        self.committed.append(self.orig_eid[ids])

    def contract(
        self, graph: WeightedGraph, root: np.ndarray
    ) -> WeightedGraph:
        contracted, _new_of, _rep, kept = contract_weighted(graph, root)
        self.orig_eid = self.orig_eid[kept]
        return contracted

    def solve(self, graph: WeightedGraph) -> None:
        self.commit(_local_msf(graph))


def _msf_increase_degree(
    graph: WeightedGraph, d: int, runtime: AMPCRuntime, *, tag: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 8: local Prim from every vertex, one adaptive round.

    The round runs the fused program :func:`_prim_all`, which grows
    every vertex's F_v in lockstep, one edge per numpy step.

    Returns ``(msf_ids, fv_src, fv_dst, exhausted)``: the current-graph
    edge ids committed by the cut rule (one row per vertex that found the
    edge, so with duplicates), the F_v member rows ``fv_src[k] ->
    fv_dst[k]`` (v itself excluded; restricted to one source they are in
    the order Prim added them), and per vertex whether Prim's edge heap
    ran empty with read budget left — which implies that F_v is v's whole
    component (the converse fails: the heap can still hold edges into
    F_v when F_v reaches d vertices).
    """
    result = runtime.round_batch(
        np.arange(graph.n, dtype=np.int64), _prim_all(graph, d),
        setup_arrays=encode_weighted_graph_arrays(graph), fused=True,
        tag=tag,
    )
    _sizes, exhausted = result.results
    msf_ids, _ones = result.store.read_namespace("msf")
    fv_src, fv_dst = result.store.read_namespace("fv")
    return msf_ids, fv_src, fv_dst, exhausted


#: Sources grown together: bounds the lockstep state to about
#: ``_CHUNK * d`` entries per table whatever the round's size.
_CHUNK = 1024


def _prim_all(graph: WeightedGraph, d: int):
    """The fused machine program of :func:`_msf_increase_degree`
    (per-vertex spec: ``repro.verify.specs.prim``).

    Every CSR row is presorted once by Algorithm 8's heap order, (weight,
    edge id), into ``nbr`` / ``key`` / ``eid`` tables (``key`` is the dense
    rank of (weight, edge id)). Then :func:`_grow` advances the F_v of
    up to :data:`_CHUNK` sources at a time by one edge per step, replaying
    reads against those tables. At the end the machines settle accounts
    with one replayed-read charge per namespace — each machine pays for
    each distinct ``deg`` row and ``adjw`` slot it visited once, as its
    read cache would — and one ``write_array`` per output namespace, rows
    in the order Prim committed them.
    """
    n = graph.n
    itype = np.int32 if max(n, graph.indices.size) < 2**31 - 1 else np.int64
    indptr = graph.indptr.astype(np.int64)
    by_key = np.lexsort((graph.edge_ids, graph.weights))
    w, e = graph.weights[by_key], graph.edge_ids[by_key]
    fresh = np.ones(by_key.size, dtype=bool)
    fresh[1:] = (w[1:] != w[:-1]) | (e[1:] != e[:-1])
    rank = np.empty(by_key.size, dtype=itype)
    rank[by_key] = np.cumsum(fresh) - 1
    rows = np.repeat(np.arange(n, dtype=itype), np.diff(indptr))
    order = by_key[np.argsort(rows[by_key], kind="stable")]
    nbr = graph.indices[order].astype(itype)
    key = rank[order]
    eid = graph.edge_ids[order].astype(np.int64)
    read_cap = 4 * d * d

    def prim_all(gctx):
        items, machines = gctx.items, gctx.machines
        sizes = np.empty(items.size, dtype=np.int64)
        exhausted = np.empty(items.size, dtype=bool)
        members, visited, taken = [], [], []
        for lo in range(0, items.size, _CHUNK):
            hi = min(lo + _CHUNK, items.size)
            tree, vis, edge, sizes[lo:hi], exhausted[lo:hi] = _grow(
                items[lo:hi], d, read_cap, indptr, nbr, key
            )
            # Row-major: each source's members in the order Prim added
            # them, the source first.
            member = np.arange(d) < sizes[lo:hi, None]
            members.append(tree[member])
            visited.append(vis[member])
            taken.append(edge[member])
        tree = np.concatenate(members)
        vis = np.concatenate(visited)
        taken = np.concatenate(taken)
        del members, visited
        own = np.repeat(machines, sizes)
        gctx.charge_replayed_reads(
            "deg", tree, np.ones(tree.size, dtype=np.int8), owner=own
        )
        gctx.charge_replayed_reads("adjw", indptr[tree], vis, owner=own)
        del vis
        added = np.ones(tree.size, dtype=bool)
        added[np.cumsum(sizes) - sizes] = False
        own = own[added]
        # Read-only outputs: the store keeps them instead of a copy.
        ids = _frozen(eid[taken[added]])
        del taken
        gctx.write_array("msf", ids, _frozen(np.ones(ids.size, np.int64)),
                         owner=own)
        del ids
        fv_dst = _frozen(tree[added].astype(np.int64))
        del tree, added
        gctx.write_array("fv", _frozen(np.repeat(items, sizes - 1)), fv_dst,
                         owner=own)
        return sizes, exhausted

    return prim_all


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _grow(
    src: np.ndarray, d: int, read_cap: int, indptr: np.ndarray,
    nbr: np.ndarray, key: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Algorithm 8 from every vertex of ``src`` at once (rows of the
    sorted CSR tables of :func:`_prim_all`).

    Row ``s`` of the state is source ``s``'s walk, column ``i`` its
    ``i``-th F_v member (column 0 the source). Each member's row has a
    cursor into its sorted slots whose head is the lightest slot not yet
    known to lead back into F_v — so Prim's next edge is the minimum head
    key over the source's columns (one ``argmin`` per step for every
    source). Adding member x only stales heads that point at x, and only
    those, plus x's own fresh row, are re-settled.

    Returns ``(tree, vis, taken, size, exhausted)``: members (``-1`` past
    ``size``), each member row's charged prefix length, the sorted slot of
    the edge that added each member, F_v sizes and the spec's exhausted
    flag (heap empty and reads below the cap).
    """
    n_src = src.size
    itype = nbr.dtype
    inf = np.iinfo(key.dtype).max
    tree = np.full((n_src, d), -1, dtype=itype)
    tree[:, 0] = src
    vis = np.zeros((n_src, d), dtype=itype)
    taken = np.zeros((n_src, d), dtype=itype)
    head_key = np.full((n_src, d), inf, dtype=key.dtype)
    head_nbr = np.full((n_src, d), -1, dtype=itype)
    # Cursors by flat id s * d + i (1-D gathers are the cheap ones).
    cur = np.zeros(n_src * d, dtype=np.int64)
    stop = np.zeros(n_src * d, dtype=np.int64)
    head_key_f, head_nbr_f = head_key.reshape(-1), head_nbr.reshape(-1)
    size = np.ones(n_src, dtype=np.int64)
    reads = np.zeros(n_src, dtype=np.int64)

    def expand(s: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Charge member u's deg key, then its slots up to the read cap; a
        # row cut by the cap ends the walk before any of its edges is
        # popped. Returns the flat cursor ids of the rows left open.
        col = size[s] - 1
        begin, end = indptr[u], indptr[u + 1]
        r = reads[s] + 1
        v = np.minimum(end - begin, np.maximum(read_cap - r, 0))
        reads[s] = r + v
        vis[s, col] = v
        live = reads[s] < read_cap
        f = (s * d + col)[live]
        cur[f] = begin[live]
        stop[f] = end[live]
        return f

    def settle(f: np.ndarray) -> None:
        # Advance each cursor past slots whose neighbour is in F_v.
        while f.size:
            p = cur[f]
            more = p < stop[f]
            if not more.all():
                head_key_f[f[~more]] = inf
                f, p = f[more], p[more]
            y = nbr[p]
            inside = (tree[f // d] == y[:, None]).any(axis=1)
            out = f[~inside]
            head_key_f[out] = key[p[~inside]]
            head_nbr_f[out] = y[~inside]
            f = f[inside]
            cur[f] += 1

    settle(expand(np.arange(n_src), src))
    active = np.flatnonzero((reads < read_cap) & (size < d))
    while active.size:
        heads = head_key[active]
        j = heads.argmin(axis=1)
        f = active * d + j
        found = head_key_f[f] != inf
        if not found.all():
            active, f = active[found], f[found]
        x = head_nbr_f[f]
        col = size[active]
        tree[active, col] = x
        taken[active, col] = cur[f]
        size[active] += 1
        # Heads pointing at x are stale now, x's own row is new.
        s_st, c_st = np.nonzero(head_nbr[active] == x[:, None])
        fresh = expand(active, x)
        settle(np.concatenate((active[s_st] * d + c_st, fresh)))
        active = active[(reads[active] < read_cap) & (size[active] < d)]

    capped = reads >= read_cap
    outgoing = (head_key != inf).any(axis=1) & ~capped
    exhausted = ~capped & ~outgoing
    full = np.flatnonzero(exhausted & (size >= d))
    if full.size:
        exhausted[full] = ~_unpopped(
            tree[full], taken[full], read_cap, indptr, nbr, key
        )
    return tree, vis, taken, size, exhausted


def _unpopped(
    tree: np.ndarray, taken: np.ndarray, read_cap: int, indptr: np.ndarray,
    nbr: np.ndarray, key: np.ndarray,
) -> np.ndarray:
    """Whether each closed, full F_v (every member row read whole, every
    neighbour a member) leaves an edge in the spec's heap.

    Member i's row was pushed when i joined; a slot was pushed iff its
    neighbour joined later, and a pushed slot was popped iff some edge
    taken after i is at least as heavy (the heap pops lighter keys
    first). So an unpopped heap entry is a slot of member i to a later
    member, heavier than every edge taken after i.
    """
    n_src, d = tree.shape
    # later_max[:, i]: the heaviest key taken after member i (-1: none).
    taken_key = key[taken].astype(np.int64)
    taken_key[:, 0] = -1
    later_max = np.full((n_src, d), -1, dtype=np.int64)
    later_max[:, :-1] = np.maximum.accumulate(
        taken_key[:, :0:-1], axis=1
    )[:, ::-1]
    out = np.zeros(n_src, dtype=bool)
    # A source read fewer than read_cap slots: groups of sources bound
    # the expansion below to about 2**16 slots.
    group = max(1, (1 << 16) // read_cap)
    for lo in range(0, n_src, group):
        s, i = np.nonzero(tree[lo:lo + group] >= 0)
        s += lo
        u = tree[s, i]
        lengths = indptr[u + 1] - indptr[u]
        member = np.repeat(np.arange(s.size), lengths)
        stops = np.cumsum(lengths)
        pos = np.repeat(indptr[u] - (stops - lengths), lengths)
        pos += np.arange(pos.size)
        s, i = s[member], i[member]
        later = (tree[s] == nbr[pos][:, None]).argmax(axis=1) > i
        out[s[later & (key[pos] > later_max[s, i])]] = True
    return out


def _choose_leaders(
    n: int,
    fv_src: np.ndarray,
    fv_dst: np.ndarray,
    exhausted: np.ndarray,
    is_leader: np.ndarray,
) -> np.ndarray:
    """Contraction targets (Algorithm 9 step 3d): the first leader inside
    F_v if any, else — when F_v is v's whole component — the minimum of v
    and its members.

    ``fv_src[k] -> fv_dst[k]`` rows restricted to one source vertex are
    in Prim's member order, so "first leader member" is the minimum row
    position among a vertex's leader members.
    """
    leader = np.arange(n, dtype=np.int64)
    if fv_src.size == 0:
        return leader
    npos = fv_src.size
    lmask = is_leader[fv_dst]
    first_pos = np.full(n, npos, dtype=np.int64)
    np.minimum.at(first_pos, fv_src[lmask], np.flatnonzero(lmask))
    min_member = np.full(n, n, dtype=np.int64)
    np.minimum.at(min_member, fv_src, fv_dst)
    has_members = np.zeros(n, dtype=bool)
    has_members[fv_src] = True
    eligible = ~is_leader & has_members
    by_leader = eligible & (first_pos < npos)
    leader[by_leader] = fv_dst[first_pos[by_leader]]
    by_min = eligible & (first_pos == npos) & exhausted
    leader[by_min] = np.minimum(min_member[by_min], leader[by_min])
    return leader


def _local_msf(graph: WeightedGraph) -> np.ndarray:
    """Kruskal on one machine for the endgame; returns current edge ids."""
    order = np.argsort(graph.edge_weights(), kind="stable")
    return order[union_find(graph.n, graph.edge_list()[order])[1]]


def sequential_msf_ids(graph: WeightedGraph) -> np.ndarray:
    """Kruskal reference over the input graph: canonical edge ids."""
    return np.sort(_local_msf(graph))


def spanning_forest(
    graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> tuple[np.ndarray, MSFResult]:
    """Spanning forest in O(log log_{T/n} n) rounds (paper Corollary 7.2).

    Assigns arbitrary distinct weights and runs the MSF algorithm; returns
    (edges, msf_result) where ``edges`` is the (k, 2) array of spanning
    forest edges of the *input* graph.
    """
    from repro.graph.generators import with_distinct_integer_weights

    if config is None:
        config = AMPCConfig.for_input(
            max(graph.n + graph.m, 1), epsilon=epsilon, seed=seed
        )
    weighted = with_distinct_integer_weights(graph, rng=config.rng(salt=0x5F))
    result = minimum_spanning_forest(weighted, config=config)
    return weighted.edge_list()[result.edge_ids], result
