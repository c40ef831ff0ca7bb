"""Maximal matching in O(1/ε) AMPC rounds (extension; paper §10).

The paper leaves maximal matching "in the AMPC model" as future work. It
falls to the same technique as §5's MIS: maximal matching is MIS on the
line graph, and the Yoshida et al. query process was originally stated
for matchings. We compute the lexicographically-first maximal matching
LFMM(G, π) over a random permutation π of the *edges*: an edge joins iff
no earlier adjacent edge joined; per-edge queries are truncated at n^ε
recursive calls per iteration, exactly like Algorithm 4/5.

The only new ingredient is neighbor enumeration: the adjacent edges of
e = {u, v} in increasing π order are the merge of u's and v's π-sorted
incidence lists, which the machine walks lazily with adaptive reads
(two-pointer merge, one read per step) — no line graph is materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime
from repro.graph.graph import Graph
from repro.primitives.sorting import SORT_ROUNDS

_UNKNOWN, _IN, _OUT = -1, 1, 0
_SENTINEL = 1 << 60


@dataclass
class MatchingResult:
    """Output and cost of one maximal-matching run.

    Attributes:
        edge_ids: canonical edge ids of the matching, sorted.
        pi: permutation rank per edge (lower = earlier).
        iterations: truncated-query iterations.
        report: cost ledger.
        config: deployment used.
    """

    edge_ids: np.ndarray
    pi: np.ndarray
    iterations: int
    report: RunReport
    config: AMPCConfig


def maximal_matching(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    query_cap: int | None = None,
    max_iterations: int | None = None,
) -> MatchingResult:
    """LFMM over a random edge permutation in O(1/ε) rounds."""
    m = graph.m
    if config is None:
        config = AMPCConfig.for_input(max(graph.n + m, 1), epsilon=epsilon, seed=seed)
    runtime = AMPCRuntime(config)
    if m == 0:
        return MatchingResult(
            edge_ids=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            iterations=0, report=runtime.report, config=config,
        )
    if query_cap is None:
        query_cap = max(8, int(math.ceil(float(m) ** config.epsilon)))
    if max_iterations is None:
        max_iterations = 8 * int(math.ceil(1.0 / config.epsilon)) + 8

    rng = config.rng(salt=0x3A7)
    pi = rng.permutation(m).astype(np.int64)
    edges = graph.edges()
    runtime.charge("sort-incidence", rounds=SORT_ROUNDS,
                   reads=2 * m, writes=2 * m)

    status = np.full(m, _UNKNOWN, dtype=np.int8)
    vertex_matched = np.zeros(graph.n, dtype=bool)
    iterations = 0

    while True:
        alive = np.flatnonzero(status == _UNKNOWN).astype(np.int64)
        if alive.size == 0:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"matching did not settle in {max_iterations} iterations"
            )
        incidence = _alive_incidence(graph, edges, pi, status, vertex_matched)
        _iteration(runtime, alive, edges, pi, incidence, status, query_cap,
                   tag=f"matching:{iterations}")
        # Prune: endpoints of matched edges kill their incident edges.
        newly_in = np.flatnonzero(status == _IN)
        vertex_matched[edges[newly_in, 0]] = True
        vertex_matched[edges[newly_in, 1]] = True
        unknown = status == _UNKNOWN
        dead = unknown & (
            vertex_matched[edges[:, 0]] | vertex_matched[edges[:, 1]]
        )
        status[dead] = _OUT

    edge_ids = np.flatnonzero(status == _IN).astype(np.int64)
    return MatchingResult(
        edge_ids=edge_ids,
        pi=pi,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def _alive_incidence(
    graph: Graph,
    edges: np.ndarray,
    pi: np.ndarray,
    status: np.ndarray,
    vertex_matched: np.ndarray,
) -> dict[int, list[tuple[int, int]]]:
    """Per-vertex π-sorted lists of alive incident edges: v -> [(pi, eid)]."""
    incidence: dict[int, list[tuple[int, int]]] = {}
    alive = status == _UNKNOWN
    for eid in np.flatnonzero(alive).tolist():
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        entry = (int(pi[eid]), eid)
        incidence.setdefault(u, []).append(entry)
        incidence.setdefault(v, []).append(entry)
    for lst in incidence.values():
        lst.sort()
    return incidence


def _iteration(
    runtime: AMPCRuntime,
    alive: np.ndarray,
    edges: np.ndarray,
    pi: np.ndarray,
    incidence: dict[int, list[tuple[int, int]]],
    status: np.ndarray,
    cap: int,
    *,
    tag: str,
) -> None:
    def setup():
        for v, lst in incidence.items():
            yield ("ideg", v), len(lst)
            for i, (p, eid) in enumerate(lst):
                yield ("inc", v, i), (p, eid)

    def worker(ctx, item):
        eid, pi_e, u, v = item
        settled = ctx.scratch.setdefault("settled", {})
        _query(ctx, eid, pi_e, u, v, cap, settled, edges, pi)
        fresh = ctx.scratch.setdefault("published", set())
        for e2, val in settled.items():
            if e2 not in fresh:
                fresh.add(e2)
                ctx.write(("settled", e2), int(val))
        return None

    items = [
        (int(e), int(pi[e]), int(edges[e, 0]), int(edges[e, 1]))
        for e in alive.tolist()
    ]
    result = runtime.round(items, worker, setup=setup(), tag=tag,
                           item_key=lambda t: t[0])
    ids, vals = result.store.read_namespace("settled")
    status[ids] = np.where(vals != 0, _IN, _OUT)


def _query(ctx, root, pi_root, root_u, root_v, cap, settled, edges, pi):
    """Iterative truncated LFMM query; returns via ``settled``.

    Enumerates earlier adjacent edges in π order by lazily merging the
    two endpoints' sorted incidence streams with adaptive reads.
    """
    if root in settled:
        return _IN if settled[root] else _OUT

    # Frame: [eid, pi_e, u, v, iu, iv, du, dv]; du/dv = -1 until read.
    stack = [[root, pi_root, root_u, root_v, 0, 0, -1, -1]]
    budget = cap
    ret: bool | None = None

    while stack:
        frame = stack[-1]
        eid, pi_e, u, v, iu, iv, du, dv = frame
        if du == -1:
            budget -= 1
            if budget < 0:
                return _UNKNOWN
            frame[6] = du = ctx.read(("ideg", u)) or 0
            frame[7] = dv = ctx.read(("ideg", v)) or 0
            ret = None
        if ret is not None:
            if ret is True:
                settled[eid] = False
                stack.pop()
                ret = False
                continue
            ret = None
        advanced = False
        while frame[4] < du or frame[5] < dv:
            iu, iv = frame[4], frame[5]
            head_u = ctx.read(("inc", u, iu)) if iu < du else (_SENTINEL, -1)
            head_v = ctx.read(("inc", v, iv)) if iv < dv else (_SENTINEL, -1)
            if head_u[1] == eid:
                frame[4] += 1
                continue
            if head_v[1] == eid:
                frame[5] += 1
                continue
            if head_u[0] <= head_v[0]:
                cand_pi, cand = head_u
                frame[4] += 1
            else:
                cand_pi, cand = head_v
                frame[5] += 1
            if cand_pi > pi_e:
                break  # sorted streams: no earlier neighbors remain
            known = settled.get(cand)
            if known is True:
                settled[eid] = False
                stack.pop()
                ret = False
                advanced = True
                break
            if known is False:
                continue
            cu, cv = int(edges[cand, 0]), int(edges[cand, 1])
            stack.append([cand, cand_pi, cu, cv, 0, 0, -1, -1])
            advanced = True
            break
        if advanced:
            continue
        settled[eid] = True
        stack.pop()
        ret = True

    return _IN if settled[root] else _OUT


def sequential_lfmm(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Greedy LFMM(G, π) reference: sorted matched edge ids."""
    edges = graph.edges()
    order = np.argsort(pi, kind="stable")
    matched_vertex = np.zeros(graph.n, dtype=bool)
    chosen = []
    for eid in order.tolist():
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        if not matched_vertex[u] and not matched_vertex[v]:
            matched_vertex[u] = matched_vertex[v] = True
            chosen.append(eid)
    return np.array(sorted(chosen), dtype=np.int64)
