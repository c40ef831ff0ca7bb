"""Greedy (Δ+1)-vertex-coloring in O(1/ε)-style AMPC rounds (extension).

Vertex coloring is the first problem the paper names as future work
(§10). The §5 technique extends directly: compute the *lexicographically
first greedy coloring* LFC(G, π) — process vertices in random π order,
give each the smallest color unused by earlier neighbors — via a
truncated, iterated query process. The recursion is heavier than MIS
(deciding color(v) needs the colors of *all* earlier neighbors, not just
the first one in the MIS), so per-iteration caps bind more often, but
the same argument applies: every vertex whose query tree fits the cap
settles, and iterations shrink the frontier geometrically.

Outputs are exact: tests assert equality with the sequential greedy
coloring for the same π, properness, and the Δ+1 bound.
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

_UNKNOWN = -1


@dataclass
class ColoringResult:
    """Output and cost of one greedy-coloring run.

    Attributes:
        colors: colors[v] ∈ [0, Δ] — the LF greedy coloring for π.
        pi: the permutation rank used.
        n_colors: number of distinct colors used.
        iterations: truncated-query iterations executed.
        report: cost ledger.
        config: deployment used.
    """

    colors: np.ndarray
    pi: np.ndarray
    n_colors: int
    iterations: int
    report: RunReport
    config: AMPCConfig


def greedy_coloring(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    query_cap: int | None = None,
    max_iterations: int | None = None,
) -> ColoringResult:
    """LF greedy coloring over a random permutation (extension of §5)."""
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    runtime = AMPCRuntime(config)
    if n == 0:
        return ColoringResult(
            colors=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            n_colors=0, iterations=0, report=runtime.report, config=config,
        )
    if query_cap is None:
        query_cap = max(8, int(math.ceil(float(n) ** config.epsilon)))
    if max_iterations is None:
        # Coloring frontiers shrink more slowly than MIS when the cap
        # binds hard; the bound is still O(1/eps) with a larger constant.
        max_iterations = 32 * int(math.ceil(1.0 / config.epsilon)) + 32

    pi = random_priorities(n, config.rng(salt=0xC01))
    sorted_csr = _pi_sorted_earlier_csr(graph, pi)
    runtime.charge("sort-adjacency", rounds=SORT_ROUNDS,
                   reads=2 * graph.m, writes=2 * graph.m)

    colors = np.full(n, _UNKNOWN, dtype=np.int64)
    iterations = 0

    while True:
        unknown = np.flatnonzero(colors == _UNKNOWN).astype(np.int64)
        if unknown.size == 0:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"coloring did not settle in {max_iterations} iterations "
                f"({unknown.size} vertices remain)"
            )
        _iteration(runtime, unknown, sorted_csr, pi, colors, query_cap,
                   tag=f"coloring:{iterations}")

    return ColoringResult(
        colors=colors,
        pi=pi,
        n_colors=int(colors.max()) + 1 if n else 0,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def _pi_sorted_earlier_csr(
    graph: Graph, pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR keeping only *earlier-π* neighbors per row, π-sorted.

    Greedy color(v) depends only on neighbors u with π(u) < π(v); later
    neighbors never matter, so they are dropped once up front.
    """
    n = graph.n
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dst = graph.indices
    keep = pi[dst] < pi[src]
    ksrc, kdst = src[keep], dst[keep]
    order = np.lexsort((pi[kdst], ksrc))
    ksrc, kdst = ksrc[order], kdst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, ksrc + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, kdst


def _iteration(
    runtime: AMPCRuntime,
    unknown: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray],
    pi: np.ndarray,
    colors: np.ndarray,
    cap: int,
    *,
    tag: str,
) -> None:
    indptr, indices = csr
    colored = np.flatnonzero(colors != _UNKNOWN)

    def setup():
        for v in unknown.tolist():
            start, end = int(indptr[v]), int(indptr[v + 1])
            yield ("edeg", v), end - start
            for i in range(end - start):
                u = int(indices[start + i])
                yield ("enb", v, i), (u, int(pi[u]))
        for u in colored.tolist():
            yield ("color", u), int(colors[u])

    def worker(ctx, item):
        v, _pi_v = item
        settled = ctx.scratch.setdefault("colors", {})
        _color_query(ctx, v, cap, settled)
        fresh = ctx.scratch.setdefault("published", set())
        for u, c in settled.items():
            if u not in fresh:
                fresh.add(u)
                ctx.write(("newcolor", u), int(c))
        return None

    items = [(int(v), int(pi[v])) for v in unknown.tolist()]
    result = runtime.round(items, worker, setup=setup(), tag=tag,
                           item_key=lambda t: t[0])
    ids, vals = result.store.read_namespace("newcolor")
    colors[ids] = vals


def _color_query(ctx, root: int, cap: int, settled: dict[int, int]) -> int:
    """Iterative truncated greedy-color query.

    Returns the color, or _UNKNOWN on truncation. ``settled`` caches the
    machine's completed sub-queries for the round.
    """
    if root in settled:
        return settled[root]
    known = ctx.read(("color", root))
    if known is not None:
        settled[root] = known
        return known

    # Frame: [v, next_index, degree, forbidden-colors set].
    stack: list[list] = [[root, 0, -1, set()]]
    budget = cap
    ret: int | None = None  # child color being propagated (or _UNKNOWN)

    while stack:
        frame = stack[-1]
        v, i, deg, forbidden = frame
        if deg == -1:
            budget -= 1
            if budget < 0:
                return _UNKNOWN
            frame[2] = deg = ctx.read(("edeg", v)) or 0
            ret = None
        if ret is not None:
            forbidden.add(ret)
            ret = None
        advanced = False
        while i < deg:
            u, _pi_u = ctx.read(("enb", v, i))
            frame[1] = i = i + 1
            cached = settled.get(u)
            if cached is None:
                prev = ctx.read(("color", u))
                if prev is not None:
                    settled[u] = prev
                    cached = prev
            if cached is not None:
                forbidden.add(cached)
                continue
            stack.append([u, 0, -1, set()])
            advanced = True
            break
        if advanced:
            continue
        # All earlier neighbors colored: take the smallest free color.
        color = 0
        while color in forbidden:
            color += 1
        settled[v] = color
        stack.pop()
        ret = color

    return settled[root]


def sequential_greedy_coloring(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Sequential LF greedy coloring reference."""
    order = np.argsort(pi, kind="stable")
    colors = np.full(graph.n, _UNKNOWN, dtype=np.int64)
    for v in order.tolist():
        forbidden = {
            int(colors[u]) for u in graph.neighbors(v) if colors[u] != _UNKNOWN
        }
        c = 0
        while c in forbidden:
            c += 1
        colors[v] = c
    return colors


# ---------------------------------------------------------------------------
# edge coloring (the second §10 future-work item)
# ---------------------------------------------------------------------------

def greedy_edge_coloring(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    query_cap: int | None = None,
    max_iterations: int | None = None,
) -> ColoringResult:
    """Greedy edge coloring (≤ 2Δ−1 colors) over a random edge order.

    Edge coloring is vertex coloring of the line graph; like
    :func:`repro.algorithms.matching.maximal_matching`, the line graph is
    never materialized — the earlier adjacent edges of e = {u, v} are the
    union of u's and v's earlier incident edges, enumerated lazily from
    π-sorted incidence lists with adaptive reads.

    Returns a :class:`ColoringResult` whose ``colors`` array is indexed by
    canonical edge id.
    """
    m = graph.m
    if config is None:
        config = AMPCConfig.for_input(max(graph.n + m, 1), epsilon=epsilon, seed=seed)
    runtime = AMPCRuntime(config)
    if m == 0:
        return ColoringResult(
            colors=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            n_colors=0, iterations=0, report=runtime.report, config=config,
        )
    if query_cap is None:
        query_cap = max(8, int(math.ceil(float(m) ** config.epsilon)))
    if max_iterations is None:
        max_iterations = 32 * int(math.ceil(1.0 / config.epsilon)) + 32

    rng = config.rng(salt=0xEC01)
    pi = rng.permutation(m).astype(np.int64)
    edges = graph.edges()
    runtime.charge("sort-incidence", rounds=SORT_ROUNDS,
                   reads=2 * m, writes=2 * m)

    # Per-vertex incidence lists of *earlier* edges never change (colors
    # only get filled in), so build them once: v -> [(pi, eid)] sorted.
    incidence: dict[int, list[tuple[int, int]]] = {}
    for eid in range(m):
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        entry = (int(pi[eid]), eid)
        incidence.setdefault(u, []).append(entry)
        incidence.setdefault(v, []).append(entry)
    for lst in incidence.values():
        lst.sort()

    colors = np.full(m, _UNKNOWN, dtype=np.int64)
    iterations = 0

    while True:
        unknown = np.flatnonzero(colors == _UNKNOWN).astype(np.int64)
        if unknown.size == 0:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"edge coloring did not settle in {max_iterations} iterations"
            )
        _edge_iteration(runtime, unknown, edges, pi, incidence, colors,
                        query_cap, tag=f"edgecoloring:{iterations}")

    return ColoringResult(
        colors=colors,
        pi=pi,
        n_colors=int(colors.max()) + 1,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def _edge_iteration(
    runtime: AMPCRuntime,
    unknown: np.ndarray,
    edges: np.ndarray,
    pi: np.ndarray,
    incidence: dict[int, list[tuple[int, int]]],
    colors: np.ndarray,
    cap: int,
    *,
    tag: str,
) -> None:
    colored = np.flatnonzero(colors != _UNKNOWN)

    def setup():
        for v, lst in incidence.items():
            yield ("ideg", v), len(lst)
            for i, (p, eid) in enumerate(lst):
                yield ("inc", v, i), (p, eid)
        for e in colored.tolist():
            yield ("ecolor", e), int(colors[e])

    def worker(ctx, item):
        eid, _pi_e, u, v = item
        settled = ctx.scratch.setdefault("ecolors", {})
        _edge_color_query(ctx, eid, int(pi[eid]), u, v, cap, settled, edges, pi)
        fresh = ctx.scratch.setdefault("published", set())
        for e2, c in settled.items():
            if e2 not in fresh:
                fresh.add(e2)
                ctx.write(("newecolor", e2), int(c))
        return None

    items = [
        (int(e), int(pi[e]), int(edges[e, 0]), int(edges[e, 1]))
        for e in unknown.tolist()
    ]
    result = runtime.round(items, worker, setup=setup(), tag=tag,
                           item_key=lambda t: t[0])
    ids, vals = result.store.read_namespace("newecolor")
    colors[ids] = vals


_SENTINEL = 1 << 60


def _edge_color_query(ctx, root, pi_root, root_u, root_v, cap, settled,
                      edges, pi) -> int:
    """Iterative truncated greedy edge-color query (two-stream merge)."""
    if root in settled:
        return settled[root]
    prev = ctx.read(("ecolor", root))
    if prev is not None:
        settled[root] = prev
        return prev

    # Frame: [eid, pi_e, u, v, iu, iv, du, dv, forbidden-set].
    stack = [[root, pi_root, root_u, root_v, 0, 0, -1, -1, set()]]
    budget = cap
    ret: int | None = None

    while stack:
        frame = stack[-1]
        eid, pi_e, u, v = frame[0], frame[1], frame[2], frame[3]
        if frame[6] == -1:
            budget -= 1
            if budget < 0:
                return _UNKNOWN
            frame[6] = ctx.read(("ideg", u)) or 0
            frame[7] = ctx.read(("ideg", v)) or 0
            ret = None
        du, dv = frame[6], frame[7]
        if ret is not None:
            frame[8].add(ret)
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
                break
            cached = settled.get(cand)
            if cached is None:
                known = ctx.read(("ecolor", cand))
                if known is not None:
                    settled[cand] = known
                    cached = known
            if cached is not None:
                frame[8].add(cached)
                continue
            cu, cv = int(edges[cand, 0]), int(edges[cand, 1])
            stack.append([cand, cand_pi, cu, cv, 0, 0, -1, -1, set()])
            advanced = True
            break
        if advanced:
            continue
        color = 0
        while color in frame[8]:
            color += 1
        settled[eid] = color
        stack.pop()
        ret = color

    return settled[root]


def sequential_greedy_edge_coloring(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Sequential LF greedy edge-coloring reference (by edge id)."""
    edges = graph.edges()
    m = edges.shape[0]
    order = np.argsort(pi, kind="stable")
    colors = np.full(m, _UNKNOWN, dtype=np.int64)
    incident: dict[int, list[int]] = {}
    for eid in range(m):
        incident.setdefault(int(edges[eid, 0]), []).append(eid)
        incident.setdefault(int(edges[eid, 1]), []).append(eid)
    for eid in order.tolist():
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        forbidden = {
            int(colors[e2])
            for e2 in incident[u] + incident[v]
            if e2 != eid and colors[e2] != _UNKNOWN
        }
        c = 0
        while c in forbidden:
            c += 1
        colors[eid] = c
    return colors
