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
The query is :func:`repro.algorithms.greedy.truncated_query` with the
MIS rule over an :class:`~repro.algorithms.greedy.IncidenceStream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import new_runtime
from repro.graph.graph import Graph
from repro.primitives.sorting import SORT_ROUNDS

from .greedy import (IN, OUT, UNKNOWN, IncidenceStream, MisRule,
                     incidence_pairs, query_capacity, query_round, settle)


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
    query_cap = query_capacity(query_cap, m, config.epsilon)
    runtime = new_runtime(config)
    if m == 0:
        return MatchingResult(
            edge_ids=np.zeros(0, np.int64), pi=np.zeros(0, np.int64),
            iterations=0, report=runtime.report, config=config,
        )
    if max_iterations is None:
        max_iterations = 8 * int(math.ceil(1.0 / config.epsilon)) + 8

    rng = config.rng(salt=0x3A7)
    pi = rng.permutation(m).astype(np.int64)
    edges = graph.edges()
    runtime.charge("sort-incidence", rounds=SORT_ROUNDS,
                   reads=2 * m, writes=2 * m)

    status = np.full(m, UNKNOWN, dtype=np.int8)
    vertex_matched = np.zeros(graph.n, dtype=bool)
    # The incidence rows hold alive edges only, so no edge settled by an
    # earlier iteration is ever met.
    stream = partial(IncidenceStream, edges=edges, pi=pi)

    def step(alive: np.ndarray, iteration: int) -> None:
        ids, vals = query_round(
            runtime, alive, incidence_pairs(edges, pi, status == UNKNOWN),
            stream, MisRule, query_cap, "settled",
            tag=f"matching:{iteration}",
        )
        status[ids] = np.where(vals != 0, IN, OUT)
        # Prune: endpoints of matched edges kill their incident edges.
        newly_in = np.flatnonzero(status == IN)
        vertex_matched[edges[newly_in, 0]] = True
        vertex_matched[edges[newly_in, 1]] = True
        dead = (status == UNKNOWN) & (
            vertex_matched[edges[:, 0]] | vertex_matched[edges[:, 1]]
        )
        status[dead] = OUT

    iterations = settle("matching", status, step, query_cap, max_iterations)
    return MatchingResult(
        edge_ids=np.flatnonzero(status == IN).astype(np.int64),
        pi=pi,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


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
