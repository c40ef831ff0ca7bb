"""Borůvka's MSF: the Θ(log n)-round MPC baseline (Figure 1, MST row).

Each Borůvka step: every component picks its minimum-weight incident edge
(an MSF edge by the cut rule), components hook along the chosen edges, and
the graph contracts — at least halving the component count, so Θ(log n)
iterations. Each iteration is charged as a constant number of MPC rounds
plus the pointer-jumping rounds needed to flatten hooking chains (the cost
AMPC's adaptive walks remove).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import MPCRuntime
from repro.graph.graph import WeightedGraph
from repro.primitives.contraction import contract_weighted, resolve_pointers

from .label_propagation import _max_chain_length


@dataclass
class BoruvkaResult:
    """Baseline MSF and cost."""

    edge_ids: np.ndarray
    total_weight: float
    iterations: int
    report: RunReport
    config: AMPCConfig


def boruvka_msf(
    graph: WeightedGraph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    max_iterations: int | None = None,
) -> BoruvkaResult:
    """Borůvka's algorithm with per-iteration MPC round charges."""
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    if not graph.weights_distinct():
        raise ValueError("MSF requires distinct edge weights")
    runtime = MPCRuntime(config)
    if max_iterations is None:
        max_iterations = 4 * int(math.ceil(math.log2(max(n, 4)))) + 8

    current = graph
    orig_eid = np.arange(graph.m, dtype=np.int64)
    committed: set[int] = set()
    iterations = 0

    while current.m > 0:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("Boruvka failed to converge")
        nc = current.n
        # Minimum incident edge per vertex (one exchange round).
        src = np.repeat(np.arange(nc, dtype=np.int64), current.degrees)
        order = np.lexsort((current.weights, src))
        first = np.ones(src.size, dtype=bool)
        first[1:] = src[order][1:] != src[order][:-1]
        min_pos = order[first]
        pick_src = src[min_pos]
        pick_dst = current.indices[min_pos]
        pick_eid = current.edge_ids[min_pos]
        for e in np.unique(pick_eid).tolist():
            committed.add(int(orig_eid[e]))
        # Hook each vertex to the other endpoint of its chosen edge. With
        # distinct weights the pick digraph's only cycles are mutual picks
        # (both endpoints of a component-minimum edge); break those by
        # letting the smaller id become the root.
        leader = np.arange(nc, dtype=np.int64)
        leader[pick_src] = pick_dst
        ids = np.arange(nc, dtype=np.int64)
        mutual = (leader[leader] == ids) & (leader != ids)
        brk = mutual & (ids < leader)
        leader[brk] = ids[brk]
        root = resolve_pointers(leader, runtime=None)
        max_chain = _max_chain_length(leader, root)
        jump_rounds = max(1, int(math.ceil(math.log2(max(max_chain, 2)))))
        runtime.charge(f"pick-min:{iterations}", rounds=1,
                       reads=2 * current.m, writes=nc, kind="mpc")
        runtime.charge(f"jump:{iterations}", rounds=jump_rounds,
                       reads=jump_rounds * nc, writes=jump_rounds * nc,
                       kind="mpc")
        contracted, _new_of, _rep, kept = contract_weighted(current, root)
        runtime.charge(f"contract:{iterations}", rounds=1,
                       reads=2 * current.m, writes=2 * contracted.m,
                       kind="mpc")
        orig_eid = orig_eid[kept]
        current = contracted

    edge_ids = np.array(sorted(committed), dtype=np.int64)
    return BoruvkaResult(
        edge_ids=edge_ids,
        total_weight=graph.total_weight(edge_ids),
        iterations=iterations,
        report=runtime.report,
        config=config,
    )
