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
machine replays its block's truncated queries against local copies of
the rows (charging each distinct key once, as a machine's read cache would), and
newly settled statuses are published with one ``write_array`` per
machine. The query process itself is
:func:`repro.algorithms.greedy.truncated_query` with the MIS rule, the
one implementation matching, the colorings and the serving engine's
``mis_member`` program run too; ``repro.verify.specs.truncated_query``
is the per-item spec the block program is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.graph import Graph
from repro.primitives.sampling import random_priorities
from repro.primitives.sorting import SORT_ROUNDS

from .greedy import (IN, OUT, UNKNOWN, Calls, CsrReplay, MisRule,
                     query_capacity, settle, truncated_query)


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
    query_cap = query_capacity(query_cap, n, config.epsilon)
    if runtime is None:
        runtime = new_runtime(config)
    if n == 0:
        return MISResult(
            in_mis=np.zeros(0, bool), pi=np.zeros(0, np.int64), iterations=0,
            total_query_calls=0, report=runtime.report, config=config,
            settled_at=np.zeros(0, np.int64),
        )
    if max_iterations is None:
        max_iterations = 8 * int(math.ceil(1.0 / config.epsilon)) + 8

    pi = random_priorities(n, config.rng(salt=0x315))
    # Pre-sort every adjacency list by neighbor priority (Algorithm 3
    # step 1) — a standard sort, charged once.
    sorted_csr = _pi_sorted_csr(graph, pi)
    runtime.charge("sort-adjacency", rounds=SORT_ROUNDS,
                   reads=2 * graph.m, writes=2 * graph.m)

    status = np.full(n, UNKNOWN, dtype=np.int8)
    settled_at = np.zeros(n, dtype=np.int64)
    total_calls = 0

    def step(alive: np.ndarray, iteration: int) -> None:
        nonlocal total_calls
        indptr, indices = _filter_alive(sorted_csr, status)
        total_calls += _iteration(
            runtime, alive, indptr, indices, pi, status, query_cap,
            tag=f"mis:{iteration}",
        )
        settled_at[(status != UNKNOWN) & (settled_at == 0)] = iteration

    iterations = settle("MIS", status, step, query_cap, max_iterations)
    in_mis = status == IN
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
    status[ids] = np.where(vals != 0, IN, OUT).astype(np.int8)

    # A vertex adjacent to an in-MIS vertex is out even if no query touched
    # it (Algorithm 4 step 4a's neighbor removal): prune via the CSR.
    src = np.repeat(np.arange(alive.size, dtype=np.int64), np.diff(indptr))
    touched = indices[(status[alive] == IN)[src]]
    touched = touched[status[touched] == UNKNOWN]
    status[touched] = OUT
    return int(result.results[0].sum())


def _query_block_worker(
    alive: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    pi: np.ndarray,
    cap: int,
):
    """The machine program of :func:`_iteration`, one call per machine.

    Runs its block's truncated queries over a :class:`CsrReplay` of the
    alive CSR, on one status table shared by the block, then settles
    accounts with one ``charge_read_array`` per namespace (the distinct
    keys the queries touched, as the machine's read cache would have
    charged them) and one ``write_array`` of the statuses it determined,
    in the order it determined them.
    """
    row_of = np.full(pi.size, -1, dtype=np.int64)
    row_of[alive] = np.arange(alive.size, dtype=np.int64)
    rows = (
        np.diff(indptr).tolist(), indptr[:-1].tolist(), row_of.tolist(),
        indices.tolist(), pi[indices].tolist(), pi.tolist(),
    )

    def batch_worker(ctx, block):
        stream = CsrReplay(*rows)
        settled: dict[int, int] = {}
        out_calls = np.empty(block.size, dtype=np.int64)
        out_res = np.empty(block.size, dtype=np.int64)
        for j, v in enumerate(block.tolist()):
            calls = Calls()
            out_res[j] = truncated_query(v, cap, settled, stream, MisRule,
                                         calls)
            out_calls[j] = calls.value
        for ns, keys in (("deg", stream.deg_keys), ("nb", stream.nb_keys)):
            ctx.charge_read_array(
                ns, np.fromiter(keys, dtype=np.int64, count=len(keys))
            )
        if settled:
            ctx.write_array(
                "settled",
                np.fromiter(settled, dtype=np.int64, count=len(settled)),
                np.fromiter(settled.values(), dtype=np.int64,
                            count=len(settled)),
            )
        return (out_calls, out_res)

    return batch_worker


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
    alive_mask = status == UNKNOWN
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
