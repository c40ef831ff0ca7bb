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

Both colorings run :func:`repro.algorithms.greedy.truncated_query` with
the color rule — vertex coloring over earlier-only rows
(:class:`~repro.algorithms.greedy.EarlierStream`), edge coloring over
the endpoints' merged incidence rows
(:class:`~repro.algorithms.greedy.IncidenceStream`), as matching does.

Outputs are exact: tests assert equality with the sequential greedy
coloring for the same π, properness, and the Δ+1 bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import new_runtime
from repro.graph.graph import Graph
from repro.primitives.sampling import random_priorities
from repro.primitives.sorting import SORT_ROUNDS

from .greedy import (UNKNOWN, ColorRule, EarlierStream, IncidenceStream,
                     incidence_pairs, query_capacity, query_round, settle)


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
    query_cap = query_capacity(query_cap, n, config.epsilon)
    runtime = new_runtime(config)
    if n == 0:
        return ColoringResult(
            colors=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            n_colors=0, iterations=0, report=runtime.report, config=config,
        )
    if max_iterations is None:
        # Coloring frontiers shrink more slowly than MIS when the cap
        # binds hard; the bound is still O(1/eps) with a larger constant.
        max_iterations = 32 * int(math.ceil(1.0 / config.epsilon)) + 32

    pi = random_priorities(n, config.rng(salt=0xC01))
    indptr, indices = _pi_sorted_earlier_csr(graph, pi)
    runtime.charge("sort-adjacency", rounds=SORT_ROUNDS,
                   reads=2 * graph.m, writes=2 * graph.m)

    colors = np.full(n, UNKNOWN, dtype=np.int64)

    def setup(unknown: np.ndarray, colored: np.ndarray):
        for v in unknown.tolist():
            start, end = int(indptr[v]), int(indptr[v + 1])
            yield ("edeg", v), end - start
            for i in range(end - start):
                u = int(indices[start + i])
                yield ("enb", v, i), (u, int(pi[u]))
        for u in colored.tolist():
            yield ("color", u), int(colors[u])

    def step(unknown: np.ndarray, iteration: int) -> None:
        colored = np.flatnonzero(colors != UNKNOWN)
        ids, vals = query_round(
            runtime, unknown, setup(unknown, colored), EarlierStream,
            ColorRule, query_cap, "newcolor", tag=f"coloring:{iteration}",
        )
        colors[ids] = vals

    iterations = settle("coloring", colors, step, query_cap, max_iterations)
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


def sequential_greedy_coloring(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Sequential LF greedy coloring reference."""
    order = np.argsort(pi, kind="stable")
    colors = np.full(graph.n, UNKNOWN, dtype=np.int64)
    for v in order.tolist():
        forbidden = {
            int(colors[u]) for u in graph.neighbors(v) if colors[u] != UNKNOWN
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
    query_cap = query_capacity(query_cap, m, config.epsilon)
    runtime = new_runtime(config)
    if m == 0:
        return ColoringResult(
            colors=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            n_colors=0, iterations=0, report=runtime.report, config=config,
        )
    if max_iterations is None:
        max_iterations = 32 * int(math.ceil(1.0 / config.epsilon)) + 32

    rng = config.rng(salt=0xEC01)
    pi = rng.permutation(m).astype(np.int64)
    edges = graph.edges()
    runtime.charge("sort-incidence", rounds=SORT_ROUNDS,
                   reads=2 * m, writes=2 * m)

    # Every edge's incidence rows stay: colors only get filled in, and
    # the colors of edges settled earlier are read as ("ecolor", e).
    rows = incidence_pairs(edges, pi, np.ones(m, dtype=bool))
    stream = partial(IncidenceStream, edges=edges, pi=pi, prior="ecolor")
    colors = np.full(m, UNKNOWN, dtype=np.int64)

    def step(unknown: np.ndarray, iteration: int) -> None:
        colored = np.flatnonzero(colors != UNKNOWN)
        setup = chain(rows, (
            (("ecolor", e), c)
            for e, c in zip(colored.tolist(), colors[colored].tolist())
        ))
        ids, vals = query_round(
            runtime, unknown, setup, stream, ColorRule, query_cap,
            "newecolor", tag=f"edgecoloring:{iteration}",
        )
        colors[ids] = vals

    iterations = settle("edge coloring", colors, step, query_cap,
                        max_iterations)
    return ColoringResult(
        colors=colors,
        pi=pi,
        n_colors=int(colors.max()) + 1,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def sequential_greedy_edge_coloring(graph: Graph, pi: np.ndarray) -> np.ndarray:
    """Sequential LF greedy edge-coloring reference (by edge id)."""
    edges = graph.edges()
    m = edges.shape[0]
    order = np.argsort(pi, kind="stable")
    colors = np.full(m, UNKNOWN, dtype=np.int64)
    incident: dict[int, list[int]] = {}
    for eid in range(m):
        incident.setdefault(int(edges[eid, 0]), []).append(eid)
        incident.setdefault(int(edges[eid, 1]), []).append(eid)
    for eid in order.tolist():
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        forbidden = {
            int(colors[e2])
            for e2 in incident[u] + incident[v]
            if e2 != eid and colors[e2] != UNKNOWN
        }
        c = 0
        while c in forbidden:
            c += 1
        colors[eid] = c
    return colors
