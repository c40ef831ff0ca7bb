"""Affinity (hierarchical nearest-neighbor) clustering in AMPC.

The AMPC model was inspired by two Google systems papers; the second
([9], Bateni et al., NeurIPS 2017) scales *affinity clustering* — Borůvka
-style hierarchical clustering — to trillion-edge graphs using MapReduce
plus a DHT. This module is that algorithm on our AMPC runtime:

each **level**, every cluster hooks to its nearest neighbor (its
minimum-weight incident edge), the hooking forest is collapsed — one
*adaptive* round in AMPC, versus Θ(log chain) pointer-jumping rounds in
plain MPC — and the graph contracts, keeping the lightest parallel edge.
Levels form a dendrogram: level ℓ's clusters refine level ℓ+1's, and the
final level is the connected components.

Distinct edge weights make the dendrogram unique, so tests compare
against a sequential reference level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import new_runtime
from repro.graph.graph import WeightedGraph
from repro.primitives.contraction import contract_weighted, resolve_pointers


@dataclass
class AffinityClusteringResult:
    """Dendrogram levels and cost.

    Attributes:
        levels: levels[ℓ] is an n-array mapping each input vertex to its
            cluster id after ℓ+1 rounds of nearest-neighbor merging
            (cluster ids are arbitrary but consistent within a level).
        merge_weights: per level, the largest edge weight used by any
            merge in that level (the dendrogram height profile).
        report: cost ledger.
        config: deployment used.
    """

    levels: list[np.ndarray] = field(default_factory=list)
    merge_weights: list[float] = field(default_factory=list)
    report: RunReport | None = None
    config: AMPCConfig | None = None

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def clusters_at(self, level: int) -> list[np.ndarray]:
        """Vertex sets of the clusters at a level, sorted by minimum id."""
        labels = self.levels[level]
        groups: dict[int, list[int]] = {}
        for v, lab in enumerate(labels.tolist()):
            groups.setdefault(lab, []).append(v)
        return [np.array(sorted(g), dtype=np.int64)
                for g in sorted(groups.values(), key=min)]


def affinity_clustering(
    graph: WeightedGraph,
    *,
    n_levels: int | None = None,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> AffinityClusteringResult:
    """Affinity clustering (Borůvka dendrogram) on the AMPC runtime.

    Args:
        graph: weighted graph with distinct weights (lower = closer).
        n_levels: stop after this many levels (default: run until no
            edges remain — at most ⌈log₂ n⌉ levels).
        epsilon / seed / config: deployment parameters.
    """
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    if not graph.weights_distinct():
        raise ValueError("affinity clustering requires distinct weights")
    runtime = new_runtime(config)
    result = AffinityClusteringResult(report=runtime.report, config=config)
    if n == 0:
        return result
    if n_levels is None:
        n_levels = int(math.ceil(math.log2(max(n, 2)))) + 1

    current = graph
    mapping = np.arange(n, dtype=np.int64)

    for level in range(n_levels):
        if current.m == 0:
            break
        leader, level_max_w = _nearest_neighbor_hooks(current)
        runtime.charge(f"pick-nearest:{level}", rounds=1,
                       reads=2 * current.m, writes=current.n)
        # Chain collapse: one adaptive round (the AMPC advantage; plain
        # MPC pays Θ(log chain) jumping rounds here).
        root = resolve_pointers(leader, runtime, tag=f"collapse:{level}")
        contracted, new_of, _rep, _kept = contract_weighted(current, root)
        runtime.charge(f"contract:{level}", rounds=1,
                       reads=2 * current.m, writes=2 * contracted.m)
        mapping = new_of[root[mapping]]
        current = contracted
        result.levels.append(mapping.copy())
        result.merge_weights.append(level_max_w)
    return result


def _nearest_neighbor_hooks(graph: WeightedGraph) -> tuple[np.ndarray, float]:
    """Every vertex points at the other end of its lightest edge.

    Mutual picks (both endpoints of a locally-minimum edge) would form
    2-cycles; the smaller id becomes the root. Returns (leader array,
    heaviest weight among picked edges).
    """
    nc = graph.n
    src = np.repeat(np.arange(nc, dtype=np.int64), graph.degrees)
    order = np.lexsort((graph.weights, src))
    first = np.ones(src.size, dtype=bool)
    first[1:] = src[order][1:] != src[order][:-1]
    min_pos = order[first]
    pick_src = src[min_pos]
    pick_dst = graph.indices[min_pos]
    max_w = float(graph.weights[min_pos].max()) if min_pos.size else 0.0
    leader = np.arange(nc, dtype=np.int64)
    leader[pick_src] = pick_dst
    ids = np.arange(nc, dtype=np.int64)
    mutual = (leader[leader] == ids) & (leader != ids)
    brk = mutual & (ids < leader)
    leader[brk] = ids[brk]
    return leader, max_w


def sequential_affinity_levels(
    graph: WeightedGraph, n_levels: int | None = None
) -> list[np.ndarray]:
    """Sequential reference: the same dendrogram, computed directly."""
    n = graph.n
    if n_levels is None:
        n_levels = int(math.ceil(math.log2(max(n, 2)))) + 1
    current = graph
    mapping = np.arange(n, dtype=np.int64)
    levels: list[np.ndarray] = []
    for _ in range(n_levels):
        if current.m == 0:
            break
        leader, _ = _nearest_neighbor_hooks(current)
        root = resolve_pointers(leader)
        contracted, new_of, _rep, _kept = contract_weighted(current, root)
        mapping = new_of[root[mapping]]
        current = contracted
        levels.append(mapping.copy())
    return levels
