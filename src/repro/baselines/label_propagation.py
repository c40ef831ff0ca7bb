"""MPC connectivity baselines: label propagation (Θ(D)) and Borůvka-style
hooking (Θ(log n)).

Figure 1's MPC column for connectivity is Andoni et al.'s
O(log D · log log_{m/n} n); its machinery *without adaptive reads* is the
graph-exponentiation framework whose inner loop costs O(log D) squaring
rounds per phase. The two baselines here bracket MPC practice:

* :func:`label_propagation` — each round every vertex adopts the minimum
  label in its closed neighborhood; converges in Θ(D) rounds. This is the
  diameter dependence the AMPC algorithm removes.
* :func:`hooking_connectivity` — min-id hooking + pointer jumping per
  iteration (Borůvka-style), Θ(log n) iterations independent of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import MPCRuntime
from repro.graph.graph import Graph
from repro.primitives.contraction import contract_graph, resolve_pointers


@dataclass
class MPCConnectivityResult:
    """Baseline component labels and cost."""

    labels: np.ndarray
    n_components: int
    iterations: int
    report: RunReport
    config: AMPCConfig


def label_propagation(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    max_iterations: int | None = None,
) -> MPCConnectivityResult:
    """Min-label propagation: Θ(D) MPC rounds (one per iteration)."""
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    runtime = MPCRuntime(config)
    if max_iterations is None:
        max_iterations = 2 * n + 8
    labels = np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    indices = graph.indices
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("label propagation failed to converge")
        new_labels = labels.copy()
        if src.size:
            np.minimum.at(new_labels, src, labels[indices])
        runtime.charge(f"propagate:{iterations}", rounds=1,
                       reads=2 * graph.m, writes=n, kind="mpc")
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return MPCConnectivityResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def hooking_connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    max_iterations: int | None = None,
) -> MPCConnectivityResult:
    """Hooking + pointer-jumping connectivity: Θ(log n) MPC iterations.

    Each iteration hooks every non-isolated vertex to the minimum id in
    its closed neighborhood, flattens the pointer forest with O(log n)
    jumping rounds (charged ⌈log₂ chain⌉ + 1), and contracts. The vertex
    count at least halves per iteration on regular structures, giving the
    Θ(log n) total of Figure 1's "Minimum spanning tree / O(log n)" row
    applied to connectivity.
    """
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    runtime = MPCRuntime(config)
    if max_iterations is None:
        max_iterations = 4 * int(math.ceil(math.log2(max(n, 4)))) + 8
    mapping = np.arange(n, dtype=np.int64)
    current = graph
    iterations = 0
    while current.m > 0:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("hooking connectivity failed to converge")
        nc = current.n
        degs = current.degrees
        src = np.repeat(np.arange(nc, dtype=np.int64), degs)
        leader = np.arange(nc, dtype=np.int64)
        if src.size:
            np.minimum.at(leader, src, current.indices)
        # Hook (1 round) + pointer jumping to flatten chains (log rounds
        # in MPC — this is where MPC pays and AMPC does not).
        root = resolve_pointers(leader, runtime=None)
        max_chain = _max_chain_length(leader, root)
        jump_rounds = max(1, int(math.ceil(math.log2(max(max_chain, 2)))))
        runtime.charge(f"hook:{iterations}", rounds=1,
                       reads=2 * current.m, writes=nc, kind="mpc")
        runtime.charge(f"jump:{iterations}", rounds=jump_rounds,
                       reads=jump_rounds * nc, writes=jump_rounds * nc,
                       kind="mpc")
        contracted, new_of, _rep = contract_graph(current, root)
        runtime.charge(f"contract:{iterations}", rounds=1,
                       reads=2 * current.m, writes=2 * contracted.m,
                       kind="mpc")
        mapping = new_of[root[mapping]]
        current = contracted
    labels = mapping
    return MPCConnectivityResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        iterations=iterations,
        report=runtime.report,
        config=config,
    )


def _max_chain_length(leader: np.ndarray, root: np.ndarray) -> int:
    """Longest pointer chain (for the jumping-round charge)."""
    n = leader.size
    depth = np.zeros(n, dtype=np.int64)
    ptr = leader.copy()
    hops = np.where(ptr != np.arange(n), 1, 0).astype(np.int64)
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        hops = hops + np.where(ptr != nxt, hops[ptr], 0)
        ptr = nxt
    depth = hops
    return int(depth.max()) if n else 0
