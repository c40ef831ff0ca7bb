"""Maximal independent set in O(1/ε) AMPC rounds (paper §5, Theorem 2).

The algorithm computes the lexicographically-first MIS over a random
permutation π — LFMIS(G, π) — by running, for every vertex, the Yoshida et
al. query process (Algorithm 3) in its *truncated* form (Algorithm 5): a
recursive exploration of lower-π neighborhoods capped at n^ε recursive
calls per vertex per iteration. Each iteration is one adaptive AMPC round;
by Lemma 5.2, after iteration i every vertex whose untruncated query cost
is at most n^{iε/2} is settled, so O(1/ε) iterations settle everything.

Because f(v, π) is a deterministic function of G and π, the output is
*exactly* LFMIS(G, π) — tests verify equality with the sequential greedy,
not merely maximality.

Each iteration is one per-block round
(:meth:`repro.core.runtime.AMPCRuntime.round_batch`): the alive-subgraph
CSR is published columnarly (``setup_arrays``) under the flat keys
``("deg", v) -> (deg, base)`` and ``("nb", flat_pos) -> (u, pi_u)``, each
machine replays its block's truncated queries against local numpy arrays
(charging each distinct key once, as a machine's read cache would), and
newly settled statuses are published with one ``write_array`` per
machine. :func:`_truncated_query` is the same query process over
``ctx.read`` — the serving engine's ``mis_member`` program, and the spec
(``repro.verify.specs.truncated_query``) the block program is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime
from repro.graph.graph import Graph
from repro.primitives.sampling import random_priorities
from repro.primitives.sorting import SORT_ROUNDS

_UNKNOWN, _IN, _OUT = -1, 1, 0


@dataclass
class MISResult:
    """Output and cost of one MIS run.

    Attributes:
        in_mis: boolean array, in_mis[v] iff v ∈ LFMIS(G, π).
        pi: the permutation rank used (pi[v] = priority; lower = earlier).
        iterations: truncated-query iterations executed (the paper's
            Line-4 loop count; each is one adaptive round).
        settled_at: settled_at[v] = the iteration (1-based) in which v's
            status became known — the quantity Lemma 5.2 bounds by the
            growth of per-vertex query costs.
        total_query_calls: total recursive-call count across all
            iterations — the quantity Proposition 5.1 bounds by m + n in
            expectation for the untruncated process.
        report: cost ledger.
        config: deployment used.
    """

    in_mis: np.ndarray
    pi: np.ndarray
    iterations: int
    total_query_calls: int
    report: RunReport
    config: AMPCConfig
    settled_at: np.ndarray | None = None

    @property
    def vertices(self) -> np.ndarray:
        """Sorted ids of the MIS members."""
        return np.flatnonzero(self.in_mis).astype(np.int64)


def maximal_independent_set(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    query_cap: int | None = None,
    max_iterations: int | None = None,
    runtime: AMPCRuntime | None = None,
    vectorized: bool = False,
) -> MISResult:
    """LFMIS over a random permutation in O(1/ε) rounds (Algorithm 4).

    Args:
        graph: input graph.
        epsilon: space exponent ε.
        seed: reproducibility seed (fixes π and machine placement).
        config: explicit deployment.
        query_cap: per-vertex recursive-call capacity per iteration
            (default n^ε, the paper's choice).
        max_iterations: safety cap (default well above the O(1/ε) bound).
        runtime: run on an existing runtime (shares its ledger) — e.g. a
            :class:`repro.core.chaos.ChaosRuntime` armed with a fault
            plan; the result must be identical to a fault-free run.
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
    if runtime is None:
        runtime = AMPCRuntime(config)
    if n == 0:
        return MISResult(
            in_mis=np.zeros(0, bool), pi=np.zeros(0, np.int64), iterations=0,
            total_query_calls=0, report=runtime.report, config=config,
            settled_at=np.zeros(0, np.int64),
        )
    if query_cap is None:
        query_cap = max(8, int(math.ceil(float(n) ** config.epsilon)))
    if max_iterations is None:
        max_iterations = 8 * int(math.ceil(1.0 / config.epsilon)) + 8

    pi = random_priorities(n, config.rng(salt=0x315))
    # Pre-sort every adjacency list by neighbor priority (Algorithm 3
    # step 1) — a standard sort, charged once.
    sorted_csr = _pi_sorted_csr(graph, pi)
    runtime.charge("sort-adjacency", rounds=SORT_ROUNDS,
                   reads=2 * graph.m, writes=2 * graph.m)

    status = np.full(n, _UNKNOWN, dtype=np.int8)
    settled_at = np.zeros(n, dtype=np.int64)
    total_calls = 0
    iterations = 0

    while True:
        alive = np.flatnonzero(status == _UNKNOWN).astype(np.int64)
        if alive.size == 0:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"MIS did not settle within {max_iterations} iterations "
                f"({alive.size} vertices remain); query_cap={query_cap}"
            )
        indptr, indices = _filter_alive(sorted_csr, status)
        calls = _iteration(
            runtime, alive, indptr, indices, pi, status, query_cap,
            tag=f"mis:{iterations}",
        )
        total_calls += calls
        settled_at[(status != _UNKNOWN) & (settled_at == 0)] = iterations

    in_mis = status == _IN
    return MISResult(
        in_mis=in_mis,
        pi=pi,
        iterations=iterations,
        total_query_calls=total_calls,
        report=runtime.report,
        config=config,
        settled_at=settled_at,
    )


def _iteration(
    runtime: AMPCRuntime,
    alive: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    pi: np.ndarray,
    status: np.ndarray,
    cap: int,
    *,
    tag: str,
) -> int:
    """One Line-4 iteration: truncated queries for every unknown vertex.

    The alive-subgraph adjacency, π-sorted, is addressed by flat keys —
    ``("deg", v) -> (deg, base)`` where ``base`` is v's row start in the
    alive CSR, and ``("nb", base + i) -> (u, pi_u)`` with the neighbor's
    priority inlined so the walk needs one read per scanned neighbor.
    """
    setup_arrays = [
        ("deg", alive, np.stack([np.diff(indptr), indptr[:-1]], axis=1)),
        (
            "nb",
            np.arange(indices.size, dtype=np.int64),
            np.stack([indices, pi[indices]], axis=1),
        ),
    ]
    result = runtime.round_batch(
        alive, _query_block_worker(alive, indptr, indices, pi, cap),
        setup_arrays=setup_arrays, tag=tag,
    )
    ids, vals = result.store.read_namespace("settled")
    status[ids] = np.where(vals != 0, _IN, _OUT).astype(np.int8)

    # A vertex adjacent to an in-MIS vertex is out even if no query touched
    # it (Algorithm 4 step 4a's neighbor removal): prune via the CSR.
    src = np.repeat(np.arange(alive.size, dtype=np.int64), np.diff(indptr))
    touched = indices[(status[alive] == _IN)[src]]
    touched = touched[status[touched] == _UNKNOWN]
    status[touched] = _OUT
    return int(result.results[0].sum())


def _query_block_worker(
    alive: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    pi: np.ndarray,
    cap: int,
):
    """The machine program of :func:`_iteration`, one call per machine.

    Replays its block's truncated queries against local numpy views of
    the alive CSR, tracking exactly the distinct keys a machine running
    :func:`_truncated_query` per vertex would have charged through its
    read cache, then settles accounts with one ``charge_read_array`` per
    namespace and one ``write_array`` for the statuses it determined, in
    the order it determined them.
    """
    deg = np.diff(indptr)
    base = indptr[:-1]
    nb_pi = pi[indices]
    row_of = np.full(pi.size, -1, dtype=np.int64)
    row_of[alive] = np.arange(alive.size, dtype=np.int64)

    def batch_worker(ctx, block):
        settled: dict[int, bool] = {}
        seen_deg: set[int] = set()
        seen_nb: set[int] = set()
        deg_keys: list[int] = []
        nb_keys: list[int] = []
        pub_ids: list[int] = []
        pub_vals: list[int] = []
        out_calls = np.empty(block.size, dtype=np.int64)
        out_res = np.empty(block.size, dtype=np.int64)

        def settle(v: int, val: bool) -> None:
            # The machine-local status table is shared across the block's
            # vertices; every entry is published once.
            settled[v] = val
            pub_ids.append(v)
            pub_vals.append(int(val))

        def walk(root: int, pi_root: int, calls: _Counter) -> int:
            # _truncated_query against local arrays; reads become
            # seen-set bookkeeping with identical call/budget counting.
            if root in settled:
                return _IN if settled[root] else _OUT
            stack: list[list[int]] = [[root, pi_root, 0, -1, -1]]
            budget = cap
            ret: bool | None = None
            while stack:
                frame = stack[-1]
                v, pi_v, i, dg, b = frame
                if dg == -1:
                    budget -= 1
                    calls.value += 1
                    if budget < 0:
                        return _UNKNOWN
                    r = int(row_of[v])
                    if r not in seen_deg:
                        seen_deg.add(r)
                        deg_keys.append(v)
                    frame[3] = dg = int(deg[r])
                    frame[4] = b = int(base[r])
                    ret = None
                if ret is not None:
                    if ret is True:
                        settle(v, False)
                        stack.pop()
                        ret = False
                        continue
                    ret = None
                advanced = False
                while i < dg:
                    pos = b + i
                    if pos not in seen_nb:
                        seen_nb.add(pos)
                        nb_keys.append(pos)
                    u = int(indices[pos])
                    pi_u = int(nb_pi[pos])
                    if pi_u > pi_v:
                        break
                    frame[2] = i = i + 1
                    known = settled.get(u)
                    if known is True:
                        settle(v, False)
                        stack.pop()
                        ret = False
                        advanced = True
                        break
                    if known is False:
                        continue
                    stack.append([u, pi_u, 0, -1, -1])
                    advanced = True
                    break
                if advanced:
                    continue
                settle(v, True)
                stack.pop()
                ret = True
            return _IN if settled[root] else _OUT

        for j, v in enumerate(block.tolist()):
            calls = _Counter()
            out_res[j] = walk(v, int(pi[v]), calls)
            out_calls[j] = calls.value

        ctx.charge_read_array("deg", np.asarray(deg_keys, dtype=np.int64))
        ctx.charge_read_array("nb", np.asarray(nb_keys, dtype=np.int64))
        if pub_ids:
            ctx.write_array(
                "settled",
                np.asarray(pub_ids, dtype=np.int64),
                np.asarray(pub_vals, dtype=np.int64),
            )
        return (out_calls, out_res)

    return batch_worker


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _truncated_query(
    ctx,
    root: int,
    pi_root: int,
    cap: int,
    settled: dict[int, bool],
    calls: _Counter,
) -> int:
    """Iterative TruncatedQuery (Algorithm 5). Returns _IN/_OUT/_UNKNOWN.

    ``settled`` is the machine-local status table shared across the
    vertices this machine processes in the round; completed (untruncated)
    sub-queries land there because f(·, π) values are exact.
    """
    if root in settled:
        return _IN if settled[root] else _OUT

    # Explicit stack to avoid Python recursion limits: frames are
    # [vertex, pi_v, next_neighbor_index, degree, row_base];
    # degree = -1 until the ("deg", v) -> (degree, base) pair is read.
    stack: list[list[int]] = [[root, pi_root, 0, -1, -1]]
    budget = cap
    ret: bool | None = None  # child return value being propagated

    while stack:
        frame = stack[-1]
        v, pi_v, i, deg, b = frame
        if deg == -1:
            budget -= 1
            calls.value += 1
            if budget < 0:
                return _UNKNOWN  # capacity exhausted (step 1 / 4d)
            deg, b = ctx.read(("deg", v))
            frame[3] = deg
            frame[4] = b
            ret = None
        if ret is not None:
            # Returning from the recursive call on neighbor i-1 (step 4b).
            if ret is True:
                settled[v] = False  # an earlier-π neighbor is in (4c)
                stack.pop()
                ret = False
                continue
            ret = None
        advanced = False
        while i < deg:
            entry = ctx.read(("nb", b + i))
            u, pi_u = entry
            if pi_u > pi_v:
                break  # π-sorted: no earlier neighbors remain (4a)
            frame[2] = i = i + 1
            known = settled.get(u)
            if known is True:
                settled[v] = False
                stack.pop()
                ret = False
                advanced = True
                break
            if known is False:
                continue  # u is out; it cannot block v
            stack.append([u, pi_u, 0, -1, -1])
            advanced = True
            break
        if advanced:
            continue
        # All earlier-π neighbors are out: v joins the MIS (step 4a / 3).
        settled[v] = True
        stack.pop()
        ret = True

    return _IN if settled[root] else _OUT


def _pi_sorted_csr(graph: Graph, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR copy with each row sorted by neighbor priority."""
    indptr = graph.indptr.copy()
    indices = graph.indices.copy()
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((pi[indices], src))
    return indptr, indices[order]


def _filter_alive(
    csr: tuple[np.ndarray, np.ndarray], status: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remaining-subgraph CSR: rows of unknown vertices, unknown neighbors,
    reindexed so row i corresponds to the i-th unknown vertex."""
    indptr, indices = csr
    alive_mask = status == _UNKNOWN
    alive = np.flatnonzero(alive_mask)
    n = status.size
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = alive_mask[src] & alive_mask[indices]
    kept_src = src[keep]
    kept_dst = indices[keep]
    counts = np.bincount(kept_src, minlength=n)[alive]
    new_indptr = np.zeros(alive.size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, kept_dst


def query_costs(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """q_pi(v) for every vertex: the exact recursive-call count of the
    *untruncated* query process (Algorithm 3), computed sequentially.

    This is the quantity Proposition 5.1 bounds in expectation and
    Lemma 5.2 compares against the per-iteration cap. No memoization, no
    truncation: every recursive call counts, as in [46].
    """
    n = graph.n
    indptr, indices = _pi_sorted_csr(graph, pi)
    costs = np.zeros(n, dtype=np.int64)
    for root in range(n):
        calls = 0
        # Frame: [vertex, next neighbor index]; ret carries the child's
        # return value while unwinding.
        stack = [[root, 0]]
        calls += 1
        ret: bool | None = None
        while stack:
            frame = stack[-1]
            v, i = frame[0], frame[1]
            if ret is not None:
                if ret is True:
                    stack.pop()
                    ret = False  # an earlier neighbor is in the MIS
                    continue
                ret = None
            start, end = int(indptr[v]), int(indptr[v + 1])
            pushed = False
            while i < end - start:
                u = int(indices[start + i])
                if pi[u] > pi[v]:
                    break
                frame[1] = i = i + 1
                stack.append([u, 0])
                calls += 1
                pushed = True
                break
            if pushed:
                continue
            stack.pop()
            ret = True
        costs[root] = calls
    return costs


def sequential_lfmis(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Greedy LFMIS(G, π) reference: boolean membership array."""
    order = np.argsort(pi, kind="stable")
    in_mis = np.zeros(graph.n, dtype=bool)
    blocked = np.zeros(graph.n, dtype=bool)
    for v in order.tolist():
        if not blocked[v]:
            in_mis[v] = True
            blocked[graph.neighbors(v)] = True
    return in_mis
