"""Undirected connectivity in O(log log_{T/n} n) AMPC rounds (paper §6).

AMPC implementation of the Andoni et al. [2] connectivity framework with
the paper's key acceleration: each *phase* increases every vertex's degree
to the current budget d in **one adaptive round** of per-vertex BFS over
the DDS (Algorithm 6), instead of O(log D) squaring rounds. Vertices then
contract onto Θ(log n / d)-sampled leaders, the vertex count drops by a
factor ~d/log n, and the budget grows to d^1.4 — doubly exponential, so
O(log log n) phases suffice (Theorem 3).

Sparse inputs (m = o(n log² n)) are pre-shrunk by a factor Ω(log² n) in
O(log log n) rounds; the paper cites an unpublished manuscript [11] for
this step (Lemma 6.2), so we substitute min-id hooking + pointer-jumping
contraction rounds with the same interface and round budget (documented in
DESIGN.md §2).

Each BFS round is one fused round: the phase graph is published
columnarly (``setup_arrays``, the slotted ``("adj", u, i)`` keys of
:func:`repro.graph.io.encode_graph_arrays`), and one program call grows
every vertex's ball in lockstep — each numpy step reads one window of
every search's current row. Reads are replayed locally and charged at
the end with the slotted form of ``charge_replayed_reads``, which bills
each machine for each distinct key once, as its read cache would; the
found edges are published with one ``write_array``. The per-vertex
transcription of Algorithm 6 the fused program is checked against is
``repro.verify.specs.bfs``.

The phase loop itself — budget schedule, leader coins, pointer
resolution, contraction charge and the one-machine endgame — is
:func:`repro.algorithms.phases.run_phases`, shared with MSF. This module
supplies the BFS round, its leader rule and the vertex map M a
contraction keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.graph import Graph, sort_unique, unique_sorted
from repro.graph.io import encode_graph_arrays
from repro.primitives.contraction import contract_graph, resolve_pointers

from .phases import run_phases, union_find


@dataclass
class ConnectivityResult:
    """Component labeling and cost of one connectivity run.

    Attributes:
        labels: labels[v] identifies v's component (equal label iff same
            component; values are arbitrary but canonicalized to the
            minimum original vertex id in the component).
        n_components: number of connected components.
        phases: contraction phases executed (the O(log log n) quantity).
        budgets: the budget d used in each phase (shows the d -> d^1.4
            growth the analysis relies on).
        report: cost ledger.
        config: deployment used.
    """

    labels: np.ndarray
    n_components: int
    phases: int
    budgets: list[float] = field(default_factory=list)
    report: RunReport | None = None
    config: AMPCConfig | None = None


def connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    use_sparse_reduction: bool = False,
    runtime: AMPCRuntime | None = None,
    vectorized: bool = False,
) -> ConnectivityResult:
    """Connected components (paper Algorithm 7).

    Args:
        graph: input graph.
        epsilon: space exponent ε.
        seed: reproducibility seed.
        config: explicit deployment.
        use_sparse_reduction: apply the Lemma 6.2 vertex reduction when
            m = o(n log² n). Off by default: at simulatable scales the
            reduction target n/log² n is below one machine's space, so it
            would subsume the algorithm; instead the initial budget d is
            floored at log n (same phase structure, with the extra query
            cost recorded honestly in the ledger rather than avoided).
        runtime: run on an existing runtime (shares its ledger) — e.g. a
            :class:`repro.core.chaos.ChaosRuntime` armed with a fault
            plan; the result must be identical to a fault-free run.
        vectorized: accepted and ignored. There is one machine program
            per round (the fused one) on every runtime; the keyword
            remains so existing callers keep working.
    """
    n = graph.n
    if config is None:
        config = (
            runtime.config
            if runtime is not None
            else AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon,
                                      seed=seed)
        )
    if runtime is None:
        runtime = new_runtime(config)
    if n == 0:
        return ConnectivityResult(
            labels=np.zeros(0, np.int64), n_components=0, phases=0,
            report=runtime.report, config=config,
        )

    def grow(current: Graph, d: int, phase: int):
        # Step 2a: IncreaseDegrees(G, d); step 2c's rule on the result.
        augmented = _increase_degrees(current, d, runtime,
                                      tag=f"increase-deg:{phase}")
        return augmented, lambda is_leader: _choose_leaders(
            augmented, is_leader, d)

    # M: original vertex -> current contracted vertex (Algorithm 7 step 1).
    vertex_map = _VertexMap(n)
    rng = config.rng(salt=0xC0)
    # Sparse case m = o(n log^2 n): shrink vertices by ~log^2 n first
    # (Lemma 6.2 substitute; see module docstring).
    sparse = use_sparse_reduction and graph.m < n * math.log2(max(n, 4))**2
    budgets = run_phases(
        "connectivity",
        _sparse_reduce(graph, vertex_map, runtime, rng) if sparse else graph,
        n, config, runtime, rng, grow=grow, keep=vertex_map,
    )
    labels = _canonical_labels(vertex_map.mapping)
    return ConnectivityResult(
        labels=labels,
        n_components=int(sort_unique(labels).size),
        phases=len(budgets),
        budgets=budgets,
        report=runtime.report,
        config=config,
    )


class _VertexMap:
    """What a connectivity contraction keeps: Algorithm 7's map M from
    each input vertex to its current vertex."""

    def __init__(self, n: int) -> None:
        self.mapping = np.arange(n, dtype=np.int64)

    def contract(self, graph: Graph, root: np.ndarray) -> Graph:
        contracted, new_of, _rep = contract_graph(graph, root)
        self.mapping = new_of[root[self.mapping]]
        return contracted

    def solve(self, graph: Graph) -> None:
        self.mapping = union_find(graph.n, graph.edges())[0][self.mapping]


def _increase_degrees(
    graph: Graph, d: int, runtime: AMPCRuntime, *, tag: str
) -> Graph:
    """Algorithm 6: BFS from every vertex until d vertices are seen.

    One adaptive round, run by the fused program :func:`_bfs_all`, which
    grows every vertex's ball in lockstep; every vertex makes at most
    4d² reads (the paper's query budget: d is the square root of
    per-vertex space). Returns the graph augmented with the (v, x)
    edges found, built straight from arrays: the current CSR's arcs and
    both directions of every found pair, as scalar keys ``row·n +
    column``, sorted and deduplicated once — the CSR
    :meth:`Graph.from_edges` would build from the combined edge list.
    """
    # Array-native setup, written in bounded chunks: mmap-backed graphs
    # (MmapGraph) enter the store without materializing.
    result = runtime.round_batch(
        np.arange(graph.n, dtype=np.int64), _bfs_all(graph, d),
        setup_arrays=encode_graph_arrays(graph), fused=True, tag=tag,
    )
    vs, xs = result.store.read_namespace("fedge")
    if vs.size == 0:
        return graph
    # Found edges are deduplicated into the edge set as part of the same
    # round's writes (the BFS round already charged them); no extra round.
    n, arcs, found = graph.n, graph.indices.size, vs.size
    indptr = np.asarray(graph.indptr)
    keys = np.empty(arcs + 2 * found, dtype=np.int64)
    keys[:arcs] = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    keys[:arcs] += graph.indices
    for row, column, part in ((vs, xs, keys[arcs:arcs + found]),
                              (xs, vs, keys[arcs + found:])):
        np.multiply(row, n, out=part, dtype=np.int64)
        part += column
    keys.sort()
    return Graph.from_arc_keys(n, unique_sorted(keys))


#: Sources searched together: bounds the lockstep state to a few
#: ``_CHUNK * d`` tables whatever the round's size.
_CHUNK = 1024

#: Most (slot, ball column) pairs one membership compare materializes; a
#: step's window slots are tested in pieces of this size, so late phases'
#: wide balls do not make the compare ``_CHUNK * d²`` cells.
_CELLS = 1 << 21


def _bfs_all(graph: Graph, d: int):
    """The fused machine program of :func:`_increase_degrees`
    (per-vertex spec: ``repro.verify.specs.bfs``).

    :func:`_search` runs the BFS of up to :data:`_CHUNK` sources at a
    time against the CSR, replaying reads locally. At the end the
    machines settle accounts with one replayed-read charge per
    namespace — each machine pays for each distinct ``deg`` row and
    ``adj`` slot it visited once, as its read cache would — and one
    ``write_array`` of the found ``(v, x)`` edges, x ascending per v
    (the spec's store order).
    """
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = graph.indices
    # Compact ball tables: the membership test streams them every step.
    itype = np.int32 if graph.n < 2**31 else np.int64

    def bfs_all(gctx):
        items, machines = gctx.items, gctx.machines
        # A source with an empty row reads its degree and stops (if it
        # starts at all: d > 1); only the others are searched.
        alone = (indptr[items + 1] == indptr[items]) & (d > 1)
        live = np.flatnonzero(~alone)
        sizes = np.ones(items.size, dtype=np.int64)
        heads = np.ones(items.size, dtype=np.int64)
        empty = np.empty(0, dtype=itype)
        rows, lengths, found = [empty], [empty], [empty]
        for lo in range(0, live.size, _CHUNK):
            part = live[lo:lo + _CHUNK]
            ball, prefix, sizes[part], heads[part] = _search(
                items[part].astype(itype), d, indptr, indices
            )
            # Row-major: each source's dequeued members in queue order.
            dequeued = np.arange(d) < heads[part, None]
            rows.append(ball[dequeued])
            lengths.append(prefix[dequeued])
            # The ball past its source, ascending: sorted in place as
            # unsigned, the -1 padding goes last.
            ball = ball[:, 1:]
            ball.view(f"u{ball.itemsize}").sort(axis=1)
            found.append(ball[np.arange(d - 1) < sizes[part, None] - 1])
        rows = np.concatenate(rows)
        lengths = np.concatenate(lengths)
        own = np.repeat(machines[live], heads[live])
        gctx.charge_replayed_reads(
            "deg", np.concatenate((items[alone], rows)),
            np.ones(items.size - live.size + rows.size, dtype=np.int8),
            owner=np.concatenate((machines[alone], own)),
        )
        gctx.charge_replayed_reads(
            "adj", np.zeros(rows.size, dtype=np.int8), lengths, owner=own,
            rows=rows,
        )
        del rows, lengths, own
        sizes -= 1
        ids = np.repeat(items, sizes)
        found = np.concatenate(found)
        # Read-only outputs: the store keeps them instead of a copy.
        ids.flags.writeable = found.flags.writeable = False
        gctx.write_array(
            "fedge", ids, found, owner=np.repeat(machines, sizes)
        )
        return sizes

    return bfs_all


def _search(
    src: np.ndarray, d: int, indptr: np.ndarray, indices: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Algorithm 6 from every vertex of ``src`` at once (the ball
    tables take ``src``'s dtype).

    Row ``s`` of the state is source ``s``'s ball in discovery order —
    which in BFS is also its queue, so ``ball[s, k]`` is the k-th vertex
    it dequeues. Each step every active source reads one window of its
    current row: at most ``d - size`` slots, so the whole window is read
    before the ball can fill, and at most what is left of the row. A
    slot's neighbour joins the ball unless it is in already (a row holds
    distinct neighbours, so a window cannot meet a vertex twice); the
    test compares the slot with the ball's filled columns, O(d) work per
    slot. A row ends with its slots or a full ball; the source then
    dequeues its next member (one ``deg`` read) or stops.

    The spec's 4d² read cap cannot bind here, so it is not tracked: a
    search dequeues at most d − 1 rows, reads at most d − 1 fresh slots
    in all, and at most d − 1 in-ball slots per row — fewer than d²
    reads.

    Returns ``(ball, prefix, size, heads)``: members (``-1`` past
    ``size``), each member row's read prefix length, ball sizes and the
    number of rows each source dequeued.
    """
    n_src = src.size
    ball = np.full((n_src, d), -1, dtype=src.dtype)
    ball[:, 0] = src
    prefix = np.zeros((n_src, d), dtype=src.dtype)
    size = np.ones(n_src, dtype=np.int64)
    heads = np.zeros(n_src, dtype=np.int64)
    cur = np.zeros(n_src, dtype=np.int64)
    end = np.zeros(n_src, dtype=np.int64)
    active = np.empty(0, dtype=np.int64)
    ready = np.arange(n_src)
    while True:
        # Sources between rows dequeue their next member (one deg read)
        # while the search goes on.
        ready = ready[(heads[ready] < size[ready]) & (size[ready] < d)]
        u = ball[ready, heads[ready]]
        heads[ready] += 1
        cur[ready] = indptr[u]
        end[ready] = indptr[u + 1]
        active = np.concatenate((active, ready))
        if not active.size:
            return ball, prefix, size, heads
        w = np.minimum(d - size[active], end[active] - cur[active])
        total = int(w.sum())
        if total:
            stops = np.cumsum(w)
            owner = np.repeat(np.arange(active.size), w)
            pos = np.repeat(cur[active] - (stops - w), w)
            pos += np.arange(total)
            y = indices[pos].astype(ball.dtype)
            s = active[owner]
            # Only the filled columns can hold y: a source's first, widest
            # window is checked against one column.
            width = int(size[active].max())
            seen = np.empty(total, dtype=bool)
            piece = max(1, _CELLS // width)
            for lo in range(0, total, piece):
                hi = lo + piece
                np.any(ball[s[lo:hi], :width] == y[lo:hi, None], axis=1,
                       out=seen[lo:hi])
            fresh = ~seen
            owner, s, y = owner[fresh], s[fresh], y[fresh]
            # The j-th fresh neighbour of a source's window lands at
            # size + j.
            gained = np.bincount(owner, minlength=active.size)
            slot = np.arange(owner.size) - (np.cumsum(gained) - gained)[owner]
            ball[s, size[s] + slot] = y
            size[active] += gained
            prefix[active, heads[active] - 1] += w
            cur[active] += w
        # A row ends with its slots or a full ball.
        open_ = (cur[active] < end[active]) & (size[active] < d)
        ready = active[~open_]
        active = active[open_]


def _choose_leaders(
    graph: Graph, is_leader: np.ndarray, d: int
) -> np.ndarray:
    """Per-vertex contraction target (Algorithm 7 step 2c).

    Leaders stay; a non-leader contracts to the first leader in its
    neighborhood (CSR order) if one exists, else (its component is a
    small clique after IncreaseDegrees) to the minimum of itself and its
    first neighbor; an isolated failure keeps the vertex in place — it
    simply waits for the next phase. Purely machine-local work in the
    model, so nothing is charged.
    """
    n = graph.n
    leader = np.arange(n, dtype=np.int64)
    if graph.indices.size == 0:
        return leader
    indptr, indices = graph.indptr, graph.indices
    degs = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degs)
    # First leader neighbor per vertex = min CSR position whose target is
    # a leader.
    pos = np.arange(indices.size, dtype=np.int64)
    lmask = is_leader[indices]
    first_leader_pos = np.full(n, indices.size, dtype=np.int64)
    np.minimum.at(first_leader_pos, src[lmask], pos[lmask])
    has_leader_nbr = first_leader_pos < indices.size
    nonleader = ~np.asarray(is_leader, dtype=bool)
    use = nonleader & has_leader_nbr
    leader[use] = indices[first_leader_pos[use]]
    # Else: small neighborhoods contract to min(first neighbor, self).
    has_nbr = degs > 0
    first_nbr = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    first_nbr[has_nbr] = indices[indptr[:-1][has_nbr]]
    small = nonleader & has_nbr & ~has_leader_nbr & (degs < d)
    leader[small] = np.minimum(first_nbr[small], leader[small])
    return leader


def _canonical_labels(mapping: np.ndarray) -> np.ndarray:
    """Rewrite contracted-id labels as the min original id per component."""
    # return_index is each distinct contracted id's first occurrence: the
    # smallest original vertex carrying it.
    contracted, first = np.unique(mapping, return_index=True)
    return first[np.searchsorted(contracted, mapping)].astype(np.int64)


# ---------------------------------------------------------------------------
# Lemma 6.2 substitute (sparse case)
# ---------------------------------------------------------------------------

def _sparse_reduce(
    graph: Graph,
    vertex_map: _VertexMap,
    runtime: AMPCRuntime,
    rng: np.random.Generator,
) -> Graph:
    """Shrink the number of non-isolated vertices by Ω(log² n) in
    O(log log n) charged rounds (stand-in for the paper's [11]); returns
    the reduced graph, ``vertex_map`` following each contraction.

    Each iteration draws fresh random priorities σ and hooks every
    non-isolated vertex to the minimum-σ member of its closed
    neighborhood, then contracts the resulting pointer forest — a standard
    MPC-implementable contraction. Non-local-minima always merge, and the
    expected number of local minima is Σ_v 1/(deg(v)+1) ≤ n'/2 over
    non-isolated vertices, so the non-isolated count halves in expectation
    per iteration; 2·ceil(log2 log2 n) + 2 iterations shrink by ≥ log² n
    w.h.p. (or finish small components outright).

    Charged as a single primitive with the *cited routine's* cost —
    O(log log n) rounds and O(m + n) communication per internal iteration —
    so the ledger reflects Lemma 6.2's interface, not the stand-in's
    simpler structure (see DESIGN.md §2, substitution 3).
    """
    n0 = max(graph.n, 4)
    log2n = math.log2(n0)
    target_nonisolated = max(4, int(n0 / log2n**2))
    max_iters = 4 * int(math.ceil(math.log2(log2n + 1))) + 4
    current = graph
    communication = 0
    for _ in range(max_iters):
        non_isolated = int(np.count_nonzero(current.degrees))
        if current.m == 0 or non_isolated <= target_nonisolated:
            break
        nc = current.n
        sigma = rng.permutation(nc).astype(np.int64)
        inv_sigma = np.argsort(sigma).astype(np.int64)
        degs = current.degrees
        src = np.repeat(np.arange(nc, dtype=np.int64), degs)
        nbr_min_sigma = np.full(nc, nc, dtype=np.int64)
        if src.size:
            np.minimum.at(nbr_min_sigma, src, sigma[current.indices])
        leader = np.arange(nc, dtype=np.int64)
        better = nbr_min_sigma < sigma
        leader[better] = inv_sigma[nbr_min_sigma[better]]
        communication += current.n + 4 * current.m
        current = vertex_map.contract(current, resolve_pointers(leader))
    runtime.charge(
        "sparse-reduce",
        rounds=int(math.ceil(math.log2(math.log2(n0) + 1))) + 2,
        reads=communication,
        writes=communication,
    )
    return current
