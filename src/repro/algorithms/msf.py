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

Each Prim round is one per-block round: the phase graph is published
columnarly (``setup_arrays``, the flat key scheme of
:func:`repro.graph.io.encode_weighted_graph_arrays`), machines replay
their blocks' heap-Prim walks against local CSR views (charging each
distinct key once, as a machine's read cache would), and MSF edges and
F_v members are published with one ``write_array`` per namespace.
Leader election is a minimum.at pass over the published member rows.
The per-vertex transcription of Algorithm 8 the block program is checked
against is ``repro.verify.specs.prim``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime
from repro.graph.graph import WeightedGraph
from repro.graph.io import encode_weighted_graph_arrays
from repro.primitives.contraction import contract_weighted, resolve_pointers
from repro.primitives.sampling import leader_probability


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
    max_phases: int | None = None,
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
        max_phases: safety cap on contraction phases.
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
        runtime = AMPCRuntime(config)
    if n == 0 or graph.m == 0:
        return MSFResult(
            edge_ids=np.zeros(0, np.int64), total_weight=0.0, phases=0,
            report=runtime.report, config=config,
        )
    if max_phases is None:
        max_phases = 4 * int(math.ceil(math.log2(math.log2(max(n, 4)) + 1) + 1)) \
            + 4 * int(math.ceil(1.0 / config.epsilon)) + 8

    current = graph
    # orig_eid[j]: input-graph edge id behind current edge j (the map M).
    orig_eid = np.arange(graph.m, dtype=np.int64)
    # Input-graph edge ids committed so far, one array per phase.
    committed: list[np.ndarray] = []
    rng = config.rng(salt=0x35F)

    d = max(2.0, math.sqrt(config.total_space / max(current.n, 1)),
            math.log2(max(n, 4)))
    d_cap = max(
        float(n) ** (config.epsilon / 3.0),
        math.sqrt(config.read_budget / 4.0),
        d,
    )
    phases = 0
    budgets: list[float] = []

    while current.m > 0:
        phases += 1
        if phases > max_phases:
            raise RuntimeError(
                f"MSF did not converge in {max_phases} phases "
                f"(n'={current.n}, m'={current.m}, d={d})"
            )
        budgets.append(d)

        if current.n + current.m <= config.space:
            runtime.charge("local-solve", rounds=1,
                           reads=current.n + 2 * current.m)
            committed.append(orig_eid[_local_msf(current)])
            break

        # Step 3a: MSFIncreaseDegree — one adaptive local-Prim round.
        msf_ids, fv_src, fv_dst, exhausted = _msf_increase_degree(
            current, int(round(d)), runtime, tag=f"prim:{phases}",
        )
        # Step 3b: commit the discovered MSF edges through the map M.
        # Every vertex that found an edge reports it, hence the unique.
        committed.append(orig_eid[np.unique(msf_ids)])

        # Steps 3c/3d: leader sampling and contraction along F_v.
        p = leader_probability(current.n, d)
        is_leader = rng.random(current.n) < p
        leader = _choose_leaders(
            current.n, fv_src, fv_dst, exhausted, is_leader
        )
        root = resolve_pointers(leader, runtime, tag=f"resolve:{phases}")
        contracted, _new_of, _rep, kept = contract_weighted(
            current, root, runtime=None
        )
        runtime.charge(f"contract:{phases}", rounds=1,
                       reads=2 * current.m, writes=2 * contracted.m)
        orig_eid = orig_eid[kept]
        current = contracted

        # Step 3e: budget growth.
        d = min(d**1.4, d_cap)

    edge_ids = np.unique(np.concatenate(committed))
    return MSFResult(
        edge_ids=edge_ids,
        total_weight=graph.total_weight(edge_ids),
        phases=phases,
        budgets=budgets,
        report=runtime.report,
        config=config,
    )


def _msf_increase_degree(
    graph: WeightedGraph, d: int, runtime: AMPCRuntime, *, tag: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 8: local Prim from every vertex, one adaptive round.

    Returns ``(msf_ids, fv_src, fv_dst, exhausted)``: the current-graph
    edge ids committed by the cut rule (one row per vertex that found the
    edge, so with duplicates), the F_v member rows ``fv_src[k] ->
    fv_dst[k]`` (v itself excluded; restricted to one source they are in
    the order Prim added them), and per vertex whether F_v is its whole
    component.
    """
    result = runtime.round_batch(
        np.arange(graph.n, dtype=np.int64), _prim_block_worker(graph, d),
        setup_arrays=encode_weighted_graph_arrays(graph), tag=tag,
    )
    _sizes, exhausted = result.results
    msf_ids, _ones = result.store.read_namespace("msf")
    fv_src, fv_dst = result.store.read_namespace("fv")
    return msf_ids, fv_src, fv_dst, exhausted


def _prim_block_worker(graph: WeightedGraph, d: int):
    """The machine program of :func:`_msf_increase_degree`, one call per
    machine.

    Machines replay their blocks' heap-Prim walks against local CSR
    views, tracking exactly the distinct keys a machine running the
    per-vertex program through its read cache would have charged, then
    settle accounts with one ``charge_read_array`` per namespace and one
    ``write_array`` per output namespace (rows in the order Prim
    committed them).
    """
    read_cap = 4 * d * d
    indptr, indices = graph.indptr, graph.indices
    weights, eids = graph.weights, graph.edge_ids
    deg = np.diff(indptr)
    base = indptr[:-1]
    # Pre-sort every CSR row by (weight, edge id) once per phase: the
    # cursor-merge below then needs one heap entry per *row* instead of
    # one per visited slot, while popping edges in exactly the (w, eid)
    # order of Algorithm 8's edge heap (the spec's). sorted_pos[indptr[u]:indptr[u+1]] lists row
    # u's slot positions cheapest-first.
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), deg)
    sorted_pos = np.lexsort((eids, weights, rows))

    deg_l = deg.tolist()
    base_l = base.tolist()
    indices_l = indices.tolist()
    weights_l = weights.tolist()
    eids_l = eids.tolist()
    sorted_l = sorted_pos.tolist()

    def batch_worker(ctx, block):
        # Charged keys are reconstructed vectorially at machine end from
        # the expansion log (exp_rows / visited ranges): np.unique's
        # return_index gives each key's first touch, so the charged key
        # order is a caching machine's charge order without any
        # per-slot bookkeeping in the walk itself.
        exp_rows: list[int] = []
        vis_b: list[int] = []
        vis_e: list[int] = []
        tree_mask = np.zeros(graph.n, dtype=bool)
        # elig[pos]: was slot pos's endpoint outside F_v when its row was
        # expanded — i.e. would the spec's edge heap have received it.
        # Rows expand at most once per item, so per-expansion overwrites
        # cannot leak across items.
        elig = bytearray(indices.size)
        elig_np = np.frombuffer(elig, dtype=np.uint8)
        msf_out: list[int] = []
        fv_src_out: list[int] = []
        fv_dst_out: list[int] = []
        sizes = np.empty(block.size, dtype=np.int64)
        exh = np.empty(block.size, dtype=bool)

        for j, v in enumerate(block.tolist()):
            touched = [v]
            tree_set = {v}
            tree_mask[v] = True
            tree_size = 1
            # Cursor heap: (w, eid, nbr, row, cursor, pos) — compared on
            # (w, eid) like the spec's edge heap (eids are unique).
            # ``live`` tracks that heap's size: entries it would have
            # been pushed and not yet popped.
            heap: list = []
            live = 0
            reads = 0

            def expand(u: int) -> None:
                nonlocal reads, live
                exp_rows.append(u)
                du = deg_l[u]
                reads += 1
                if reads >= read_cap:
                    return
                visited = du if du <= read_cap - reads else read_cap - reads
                if not visited:
                    return
                b = base_l[u]
                end = b + visited
                vis_b.append(b)
                vis_e.append(end)
                reads += visited
                if visited <= 48:
                    ec = 0
                    pos = b
                    for x in indices_l[b:end]:
                        e = x not in tree_set
                        elig[pos] = e
                        ec += e
                        pos += 1
                else:
                    es = ~tree_mask[indices[b:end]]
                    elig_np[b:end] = es
                    ec = int(es.sum())
                # A row that hits the read cap ends the walk before any
                # of its edges can be popped: charge/count it (the
                # spec pushed those edges) but skip its cursor.
                if reads >= read_cap:
                    return
                live += ec
                p = sorted_l[b]
                heapq.heappush(
                    heap, (weights_l[p], eids_l[p], indices_l[p], u, 0, p)
                )

            expand(v)
            while live > 0 and tree_size < d and reads < read_cap:
                _w, eid, nbr, u, k, pos = heapq.heappop(heap)
                k += 1
                if k < deg_l[u]:
                    p = sorted_l[base_l[u] + k]
                    heapq.heappush(
                        heap,
                        (weights_l[p], eids_l[p], indices_l[p], u, k, p),
                    )
                if elig[pos]:
                    live -= 1
                if nbr in tree_set:
                    continue
                tree_set.add(nbr)
                tree_mask[nbr] = True
                touched.append(nbr)
                tree_size += 1
                msf_out.append(eid)
                fv_src_out.append(v)
                fv_dst_out.append(nbr)
                expand(nbr)
            exh[j] = bool(live == 0 and reads < read_cap)
            sizes[j] = tree_size
            for t in touched:
                tree_mask[t] = False

        rows_arr = np.asarray(exp_rows, dtype=np.int64)
        _, first = np.unique(rows_arr, return_index=True)
        ctx.charge_read_array("deg", rows_arr[np.sort(first)])
        if vis_b:
            starts = np.asarray(vis_b, dtype=np.int64)
            lengths = np.asarray(vis_e, dtype=np.int64) - starts
            ends_cum = np.cumsum(lengths)
            stream = (np.repeat(starts - (ends_cum - lengths), lengths)
                      + np.arange(int(ends_cum[-1]), dtype=np.int64))
            _, first = np.unique(stream, return_index=True)
            adj_arr = stream[np.sort(first)]
        else:
            adj_arr = np.empty(0, dtype=np.int64)
        ctx.charge_read_array("adjw", adj_arr)
        if msf_out:
            ids = np.asarray(msf_out, dtype=np.int64)
            ctx.write_array("msf", ids, np.ones(ids.size, dtype=np.int64))
        if fv_src_out:
            ctx.write_array(
                "fv",
                np.asarray(fv_src_out, dtype=np.int64),
                np.asarray(fv_dst_out, dtype=np.int64),
            )
        return (sizes, exh)

    return batch_worker


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
    edges = graph.edge_list()
    weights = graph.edge_weights()
    order = np.argsort(weights, kind="stable")
    parent = np.arange(graph.n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    chosen: list[int] = []
    for j in order.tolist():
        u, v = int(edges[j, 0]), int(edges[j, 1])
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            chosen.append(j)
    return np.array(chosen, dtype=np.int64)


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
