"""Cycle connectivity and forest connectivity in O(1/ε) rounds (paper §8).

Cycle connectivity (Algorithm 10): Shrink the cycles to O(n^{ε/2}) length,
then let every surviving vertex walk its cycle until it meets a vertex of
higher priority (lower π-rank) — expected O(log k) adaptive reads per
vertex (Lemma 8.2), O(k log k) per cycle w.h.p. (Lemma 8.3). Following the
"first lower-rank vertex ahead" pointers leads every vertex to its cycle's
minimum-rank representative; a fill-back pass labels the absorbed vertices.

Forest connectivity (Theorem 5): Euler-tour each tree into a cycle of arcs
(Lemma 8.6 / Tarjan–Vishkin), run cycle connectivity on the arcs, and
project arc labels back to vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.graph import Graph
from repro.graph.io import orient_cycles
from repro.primitives.contraction import resolve_pointers
from repro.primitives.euler import build_euler_tour

from .shrink import fill_back, filled_ints, shrink


@dataclass
class CycleConnectivityResult:
    """Labels and cost for a union of cycles.

    Attributes:
        labels: labels[v] = representative element of v's cycle (the
            minimum-π surviving vertex, canonicalized to an element id).
        n_cycles: number of cycles.
        shrink_rounds: adaptive shrink rounds used.
        report: cost ledger.
        config: deployment used.
    """

    labels: np.ndarray
    n_cycles: int
    shrink_rounds: int
    report: RunReport
    config: AMPCConfig


def cycle_connectivity_pointers(
    succ: np.ndarray,
    *,
    runtime: AMPCRuntime,
    tag: str = "cyclecc",
) -> tuple[np.ndarray, int]:
    """Algorithm 10 over a successor array; returns (labels, shrink_rounds).

    Exposed separately from :func:`cycle_connectivity` so forest
    connectivity can run it over Euler-tour arcs on a shared runtime.
    """
    n = int(succ.size)
    config = runtime.config
    if n == 0:
        return np.zeros(0, np.int64), 0

    # Step 1: Shrink with delta = eps/2 until cycles have O(n^{eps/2})
    # survivors (Corollary 8.1).
    target = max(4, int(math.ceil(2.0 * float(n) ** (config.epsilon / 2.0))))
    outcome = shrink(
        succ, runtime, delta=config.epsilon / 2.0, target_size=target,
        tag=f"{tag}-shrink",
    )
    alive = outcome.alive

    # Step 2: random permutation over survivors; step 3: walk forward to
    # the first higher-priority (lower-rank) vertex.
    rng = config.rng(salt=0xCC)
    rank = np.full(n, -1, dtype=np.int64)
    rank[alive] = rng.permutation(alive.size).astype(np.int64)
    succ_alive = outcome.succ

    def setup():
        for i, v in enumerate(alive.tolist()):
            yield ("succ", v), int(succ_alive[i])
            yield ("rank", v), int(rank[v])

    def walk(ctx, v: int):
        my_rank = ctx.read(("rank", v))
        cur = ctx.read(("succ", v))
        while cur != v and ctx.read(("rank", cur)) > my_rank:
            cur = ctx.read(("succ", cur))
        # Either we met a strictly lower-rank vertex (our pointer) or we
        # came all the way around (we are the cycle minimum).
        return int(cur) if cur != v else int(v)

    result = runtime.round(alive.tolist(), walk, setup=setup(),
                           tag=f"{tag}-walk")
    pointer = np.arange(n, dtype=np.int64)
    pointer[alive] = result.results

    # Rank strictly decreases along pointers, so they form a forest rooted
    # at cycle minima; one adaptive resolution round yields survivor labels.
    root = resolve_pointers(pointer, runtime, tag=f"{tag}-resolve")
    survivor_labels = np.full(n, np.nan)
    survivor_labels[alive] = root[alive]
    labels = filled_ints(fill_back(
        runtime, outcome.history, survivor_labels, additive=False,
        tag=f"{tag}-fill",
    ))
    return labels, outcome.n_rounds


def cycle_connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> CycleConnectivityResult:
    """Connected components of a union of simple cycles (Algorithm 10)."""
    if config is None:
        config = AMPCConfig.for_input(max(graph.n, 1), epsilon=epsilon, seed=seed)
    runtime = new_runtime(config)
    succ, _ = orient_cycles(graph)
    runtime.charge("orient-cycles", rounds=1, reads=graph.n, writes=graph.n)
    labels, rounds = cycle_connectivity_pointers(succ, runtime=runtime)
    return CycleConnectivityResult(
        labels=labels,
        n_cycles=int(np.unique(labels).size) if graph.n else 0,
        shrink_rounds=rounds,
        report=runtime.report,
        config=config,
    )


@dataclass
class ForestConnectivityResult:
    """Labels and cost for a forest.

    Attributes:
        labels: labels[v] = representative vertex of v's tree.
        n_trees: number of trees (counting isolated vertices).
        report: cost ledger.
        config: deployment used.
    """

    labels: np.ndarray
    n_trees: int
    report: RunReport
    config: AMPCConfig


def forest_connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> ForestConnectivityResult:
    """Connected components of a forest in O(1/ε) rounds (Theorem 5).

    The forest's trees become arc cycles via the Euler tour; cycle
    connectivity labels the arcs; each vertex takes the label of its first
    outgoing arc (isolated vertices label themselves).
    """
    if config is None:
        config = AMPCConfig.for_input(max(graph.n + graph.m, 1),
                                      epsilon=epsilon, seed=seed)
    runtime = new_runtime(config)
    n = graph.n
    if graph.m == 0:
        labels = np.arange(n, dtype=np.int64)
        return ForestConnectivityResult(
            labels=labels, n_trees=n, report=runtime.report, config=config,
        )
    from repro.graph.validation import is_forest

    if not is_forest(graph):
        raise ValueError("input has a cycle; forest connectivity needs a forest")

    tour = build_euler_tour(graph, runtime)
    arc_labels, _ = cycle_connectivity_pointers(
        tour.next_arc, runtime=runtime, tag="forestcc"
    )
    # Project: vertex label = label of its first out-arc, canonicalized to
    # the arc's source vertex (one primitive relabeling round).
    runtime.charge("project-labels", rounds=1, reads=n, writes=n)
    labels = np.arange(n, dtype=np.int64)
    degs = graph.degrees
    non_isolated = np.flatnonzero(degs > 0)
    first_arc = graph.indptr[non_isolated]
    rep_arc = arc_labels[first_arc]
    labels[non_isolated] = tour.arc_src[rep_arc]
    return ForestConnectivityResult(
        labels=labels,
        n_trees=int(np.unique(labels).size),
        report=runtime.report,
        config=config,
    )
