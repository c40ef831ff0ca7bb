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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime
from repro.graph.graph import Graph
from repro.graph.io import encode_graph_arrays
from repro.primitives.contraction import contract_graph, resolve_pointers
from repro.primitives.sampling import leader_probability
from repro.primitives.sorting import SORT_ROUNDS


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
    max_phases: int | None = None,
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
        max_phases: safety cap on contraction phases.
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
            per round (the per-block one) on every runtime; the keyword
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
        runtime = AMPCRuntime(config)
    if n == 0:
        return ConnectivityResult(
            labels=np.zeros(0, np.int64), n_components=0, phases=0,
            report=runtime.report, config=config,
        )
    if max_phases is None:
        max_phases = 4 * int(math.ceil(math.log2(math.log2(max(n, 4)) + 1) + 1)) \
            + 4 * int(math.ceil(1.0 / config.epsilon)) + 8

    # M: original vertex -> current contracted vertex (Algorithm 7 step 1).
    mapping = np.arange(n, dtype=np.int64)
    current = graph
    rng = config.rng(salt=0xC0)

    # Sparse case m = o(n log^2 n): shrink vertices by ~log^2 n first
    # (Lemma 6.2 substitute; see module docstring).
    log2n = math.log2(max(n, 4))
    if use_sparse_reduction and current.m < current.n * log2n**2:
        current, mapping = _sparse_reduce(current, mapping, runtime, rng)

    d = _initial_budget(config, current)
    # The paper caps d at n^{eps/3}. At simulated scales that is often
    # below even the initial budget, which would freeze d and degrade the
    # phase count from log log n to log n; the binding constraint that
    # actually matters is that a vertex's O(d²) BFS reads fit the O(S)
    # per-machine budget, so cap there instead (and never below start).
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
                f"connectivity did not converge in {max_phases} phases "
                f"(n'={current.n}, m'={current.m}, d={d})"
            )
        budgets.append(d)

        # Small remainder fits on one machine: finish locally (one round).
        if current.n + current.m <= config.space:
            runtime.charge("local-solve", rounds=1,
                           reads=current.n + 2 * current.m)
            roots = _local_components(current)
            mapping = roots[mapping]
            current = Graph.from_edges(current.n, np.zeros((0, 2), np.int64))
            break

        # Step 2a: IncreaseDegrees(G, d) — one adaptive BFS round.
        augmented = _increase_degrees(
            current, int(round(d)), runtime, tag=f"increase-deg:{phases}",
        )

        # Step 2b: leader sampling with probability Θ(log n / d) — local
        # coin flips, folded into the contraction round below.
        p = leader_probability(current.n, d)
        is_leader = rng.random(current.n) < p

        # Step 2c: contract to a leader neighbor, else to the min
        # neighbor. One adaptive round: every vertex walks its leader
        # chain with adaptive reads (resolve_pointers charges it), and the
        # relabel/dedup of the edge set is one more primitive round.
        leader = _choose_leaders(augmented, is_leader, int(round(d)))
        root = resolve_pointers(leader, runtime, tag=f"resolve:{phases}")
        contracted, new_of, _rep = contract_graph(augmented, root, runtime=None)
        runtime.charge(f"contract:{phases}", rounds=1,
                       reads=2 * augmented.m, writes=2 * contracted.m)
        mapping = new_of[root[mapping]]
        current = contracted

        # Step 2d: budget growth d -> d^1.4 capped at n^{eps/3}.
        d = min(d**1.4, d_cap)

    labels = _canonical_labels(mapping)
    return ConnectivityResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        phases=phases,
        budgets=budgets,
        report=runtime.report,
        config=config,
    )


def _initial_budget(config: AMPCConfig, graph: Graph) -> float:
    """d = sqrt(T / n) (Algorithm 7 step 1), floored at 2 and at log n so
    leader sampling contracts from the first phase (the paper guarantees
    d = Ω(log n) via the m = Ω(n log² n) assumption)."""
    t = float(config.total_space)
    n = max(graph.n, 1)
    return max(2.0, math.sqrt(t / n), math.log2(max(n, 4)))


def _increase_degrees(
    graph: Graph, d: int, runtime: AMPCRuntime, *, tag: str
) -> Graph:
    """Algorithm 6: BFS from every vertex until d vertices are seen.

    One adaptive round; every vertex issues at most O(d²) reads (the
    paper's query budget: d is the square root of per-vertex space).
    Returns the graph augmented with the (v, x) edges found.
    """
    # Array-native setup, written in bounded chunks: mmap-backed graphs
    # (MmapGraph) enter the store without materializing.
    result = runtime.round_batch(
        np.arange(graph.n, dtype=np.int64), _bfs_block_worker(graph, d),
        setup_arrays=encode_graph_arrays(graph), tag=tag,
    )
    vs, xs = result.store.read_namespace("fedge")
    if vs.size == 0:
        return graph
    # Found edges are deduplicated into the edge set as part of the same
    # round's writes (the BFS round already charged them); no extra round.
    found = np.column_stack((vs, xs.astype(np.int64)))
    combined = np.concatenate([graph.edges(), found])
    return Graph.from_edges(graph.n, combined)


def _bfs_block_worker(graph: Graph, d: int):
    """The machine program of :func:`_increase_degrees`, one call per
    machine: the per-vertex BFS of Algorithm 6 (spec:
    ``repro.verify.specs.bfs``) replayed over a local CSR copy.

    The walk's attempt counter ``reads`` increments whether or not a key
    was touched before, so the control flow is that of a machine reading
    every key through its cache; the keys are charged once each, on
    first touch (model assumption 4), in one
    :meth:`~repro.core.machine.MachineContext.charge_read_array` call
    per namespace.
    """
    read_cap = 4 * d * d
    indptr, indices = graph.indptr, graph.indices

    def batch_worker(ctx, block: np.ndarray) -> np.ndarray:
        seen_deg: set[int] = set()
        seen_adj: set[tuple[int, int]] = set()
        deg_keys: list[int] = []
        adj_u: list[int] = []
        adj_i: list[int] = []
        fedge_v: list[int] = []
        fedge_x: list[int] = []
        counts = np.empty(block.size, dtype=np.int64)
        for j, v in enumerate(block.tolist()):
            visited = {v}
            queue = [v]
            head = 0
            reads = 0
            while head < len(queue) and len(visited) < d and reads < read_cap:
                u = queue[head]
                head += 1
                if u not in seen_deg:
                    seen_deg.add(u)
                    deg_keys.append(u)
                base = int(indptr[u])
                deg_u = int(indptr[u + 1]) - base
                reads += 1
                for i in range(deg_u):
                    if len(visited) >= d or reads >= read_cap:
                        break
                    if (u, i) not in seen_adj:
                        seen_adj.add((u, i))
                        adj_u.append(u)
                        adj_i.append(i)
                    x = int(indices[base + i])
                    reads += 1
                    if x not in visited:
                        visited.add(x)
                        queue.append(x)
            visited.discard(v)
            counts[j] = len(visited)
            for x in sorted(visited):
                fedge_v.append(v)
                fedge_x.append(x)
        if deg_keys:
            ctx.charge_read_array("deg", np.asarray(deg_keys, np.int64))
        if adj_u:
            ctx.charge_read_array(
                "adj", np.asarray(adj_u, np.int64), np.asarray(adj_i, np.int64)
            )
        if fedge_v:
            ctx.write_array(
                "fedge",
                np.asarray(fedge_v, np.int64),
                np.asarray(fedge_x, np.int64),
            )
        return counts

    return batch_worker


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


def _local_components(graph: Graph) -> np.ndarray:
    """Union-find labeling used for the fits-on-one-machine endgame."""
    parent = np.arange(graph.n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    for u, v in graph.edges():
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    out = np.empty(graph.n, dtype=np.int64)
    for v in range(graph.n):
        out[v] = find(v)
    return out


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
    mapping: np.ndarray,
    runtime: AMPCRuntime,
    rng: np.random.Generator,
) -> tuple[Graph, np.ndarray]:
    """Shrink the number of non-isolated vertices by Ω(log² n) in
    O(log log n) charged rounds (stand-in for the paper's [11]).

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
    current, current_map = graph, mapping
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
        root = resolve_pointers(leader, runtime=None)
        contracted, new_of, _rep = contract_graph(current, root, runtime=None)
        current_map = new_of[root[current_map]]
        current = contracted
    runtime.charge(
        "sparse-reduce",
        rounds=int(math.ceil(math.log2(math.log2(n0) + 1))) + 2,
        reads=communication,
        writes=communication,
    )
    return current, current_map
