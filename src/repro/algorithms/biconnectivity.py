"""BC-labeling, bridges, articulation points, 2-edge connectivity (paper §9).

AMPC implementation of the Tarjan–Vishkin [42] / Ben-David et al. [12]
pipeline (Algorithm 12):

1. spanning forest (MSF with arbitrary distinct weights, Corollary 7.2);
2. root the forest, compute preorder numbers PN and subtree sizes
   (Theorems 7, Lemmas 8.7/8.8);
3. per-vertex Low/High = subtree min/max of non-tree-neighbor preorder
   numbers, via the Euler-sequence RMQ (Lemma 8.9);
4. *critical* tree edges (u, p(u)): every non-tree edge out of subtree(u)
   stays inside subtree(p(u)), i.e.

       Low(u) >= PN(p(u))  and  High(u) <= PN(p(u)) + Size(p(u)) - 1,

   cutting (u, p(u)) can then only be bridged through p(u) itself;
5. L = connectivity of the spanning *forest* minus critical edges.

Interpretation note: the paper's Eq. (1) mixes PN(p(v)) and Size(v) and its
step 5 says "E \\ critical"; taken literally those two choices break the
bridge/articulation rules stated two paragraphs later (worked examples in
DESIGN.md). We use the closed form above and remove critical edges from the
*forest*, which makes every stated rule hold; correctness is validated
against networkx on randomized graphs.

From the BC-labeling (L, F):
* tree edge (u, p(u)) is a **bridge** iff u's component in L is {u};
* the **head** of a component C (root-free) is p(shallowest vertex of C);
  a non-root vertex is an **articulation point** iff it heads ≥ 1
  component; a root iff it heads ≥ 2 components besides its own;
* each head h with component C yields the **biconnected component**
  vertex set C ∪ {h};
* **2-edge-connected components** = connectivity of G minus bridges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport, merge_reports
from repro.core.runtime import new_runtime
from repro.graph.graph import Graph
from repro.graph.generators import with_distinct_integer_weights

from .connectivity import connectivity
from .msf import minimum_spanning_forest
from .tree_ops import RootedForest, root_forest


@dataclass
class BCLabeling:
    """The paper's (L, F) labeling plus everything derived from it.

    Attributes:
        forest: the rooted spanning forest F.
        labels: L — component label per vertex in the forest-minus-critical
            graph (canonical min vertex id).
        critical: boolean per vertex; critical[u] marks tree edge
            (u, p(u)) as critical (False for roots).
        low / high: the subtree Low/High values over preorder numbers.
        bridges: (b, 2) array of bridge edges (u < v rows).
        articulation_points: sorted vertex ids.
        bcc_vertex_sets: list of biconnected components as sorted vertex
            arrays (components with at least one edge).
        two_edge_labels: component label per vertex after bridge removal
            (the 2-edge-connected components).
        report: merged cost ledger of every stage.
        config: deployment used.
    """

    forest: RootedForest
    labels: np.ndarray
    critical: np.ndarray
    low: np.ndarray
    high: np.ndarray
    bridges: np.ndarray
    articulation_points: np.ndarray
    bcc_vertex_sets: list[np.ndarray]
    two_edge_labels: np.ndarray
    report: RunReport
    config: AMPCConfig


def bc_labeling(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> BCLabeling:
    """Compute the BC-labeling and its derived structures (Algorithm 12)."""
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    reports: list[RunReport] = []

    # Step 1: spanning forest via MSF on arbitrary distinct weights.
    weighted = with_distinct_integer_weights(graph, rng=config.rng(salt=0xB1))
    msf = minimum_spanning_forest(weighted, config=config)
    reports.append(msf.report)
    tree_edges = weighted.edge_list()[msf.edge_ids]
    forest_graph = Graph.from_edges(n, tree_edges)

    # Step 2: root the forest; preorder numbers and subtree sizes.
    runtime = new_runtime(config)
    forest = root_forest(forest_graph, config=config, runtime=runtime)
    pn = forest.preorder
    size = forest.subtree_size
    parent = forest.parent

    # Step 3: Low/High — first per-vertex over direct non-tree neighbors,
    # then subtree-aggregated with the Euler RMQ (Lemma 8.9).
    low0, high0 = _nontree_extents(graph, forest)
    extrema_lo = forest.subtree_values_rmq(low0, runtime)
    extrema_hi = forest.subtree_values_rmq(high0, runtime)
    low = extrema_lo.all_subtree_min().astype(np.int64)
    high = extrema_hi.all_subtree_max().astype(np.int64)

    # Step 4: critical edges.
    is_root = parent == np.arange(n)
    ppn = pn[parent]
    psize = size[parent]
    critical = (~is_root) & (low >= ppn) & (high <= ppn + psize - 1)
    runtime.charge("critical-edges", rounds=1, reads=n, writes=n)
    reports.append(runtime.report)

    # Step 5: L = connectivity of the auxiliary graph: non-critical tree
    # edges (each identified by its child endpoint) plus — Tarjan–Vishkin's
    # second rule — every non-tree edge between *unrelated* vertices
    # (neither an ancestor of the other): such a cross edge certifies that
    # the two tree edges above its endpoints share a biconnected component.
    # (Back edges need no rule of their own: a back edge from subtree(u)
    # above p(x) makes every intermediate (x, p(x)) non-critical already.)
    if tree_edges.size:
        child_is = np.where(
            parent[tree_edges[:, 0]] == tree_edges[:, 1],
            tree_edges[:, 0],
            tree_edges[:, 1],
        )
        keep = ~critical[child_is]
    else:
        keep = np.zeros(0, bool)
    cross = _unrelated_nontree_edges(graph, forest)
    runtime.charge("aux-graph", rounds=1, reads=2 * graph.m,
                   writes=int(keep.sum()) + cross.shape[0])
    aux_edges = (
        np.concatenate([tree_edges[keep], cross])
        if cross.size else tree_edges[keep]
    )
    decomposed = Graph.from_edges(n, aux_edges)
    conn = connectivity(decomposed, config=config)
    reports.append(conn.report)
    labels = conn.labels

    bridges, articulation, bccs = _derive(graph, forest, labels, critical)

    # 2-edge-connected components: connectivity after bridge removal.
    without_bridges = graph.subgraph_without_edges(bridges)
    conn2 = connectivity(without_bridges, config=config)
    reports.append(conn2.report)

    return BCLabeling(
        forest=forest,
        labels=labels,
        critical=critical,
        low=low,
        high=high,
        bridges=bridges,
        articulation_points=articulation,
        bcc_vertex_sets=bccs,
        two_edge_labels=conn2.labels,
        report=merge_reports(reports),
        config=config,
    )


def _nontree_extents(
    graph: Graph, forest: RootedForest
) -> tuple[np.ndarray, np.ndarray]:
    """low0/high0: each vertex's min/max non-tree-neighbor preorder,
    seeded with its own preorder number."""
    n = graph.n
    pn = forest.preorder
    parent = forest.parent
    low0 = pn.astype(np.float64).copy()
    high0 = pn.astype(np.float64).copy()
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dst = graph.indices
    non_tree = (parent[src] != dst) & (parent[dst] != src)
    if non_tree.any():
        s, t = src[non_tree], dst[non_tree]
        np.minimum.at(low0, s, pn[t])
        np.maximum.at(high0, s, pn[t])
    return low0, high0


def _unrelated_nontree_edges(graph: Graph, forest: RootedForest) -> np.ndarray:
    """Non-tree edges whose endpoints are unrelated in the forest
    (ancestorhood tested with the preorder intervals)."""
    edges = graph.edges()
    if edges.size == 0:
        return edges
    parent = forest.parent
    pn = forest.preorder
    size = forest.subtree_size
    u, w = edges[:, 0], edges[:, 1]
    non_tree = (parent[u] != w) & (parent[w] != u)
    u_anc_w = (pn[u] <= pn[w]) & (pn[w] <= pn[u] + size[u] - 1)
    w_anc_u = (pn[w] <= pn[u]) & (pn[u] <= pn[w] + size[w] - 1)
    return edges[non_tree & ~u_anc_w & ~w_anc_u]


def _derive(
    graph: Graph,
    forest: RootedForest,
    labels: np.ndarray,
    critical: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Bridges, articulation points, and BCC vertex sets from (L, F)."""
    n = graph.n
    parent = forest.parent
    pn = forest.preorder
    is_root = parent == np.arange(n)

    # Component membership and sizes.
    comp_members: dict[int, list[int]] = {}
    for v in range(n):
        comp_members.setdefault(int(labels[v]), []).append(v)

    # Bridges: critical (u, p(u)) whose component is the singleton {u}.
    bridge_children = [
        v for v in range(n)
        if critical[v] and len(comp_members[int(labels[v])]) == 1
    ]
    bridges = np.array(
        sorted(
            (min(int(v), int(parent[v])), max(int(v), int(parent[v])))
            for v in bridge_children
        ),
        dtype=np.int64,
    ).reshape(-1, 2)

    # Heads: parent of each component's shallowest vertex; the root heads
    # its own component.
    head_of_comp: dict[int, int] = {}
    for comp, members in comp_members.items():
        if not members:
            continue
        shallowest = min(members, key=lambda v: int(pn[v]))
        if is_root[shallowest]:
            head_of_comp[comp] = int(shallowest)
        else:
            head_of_comp[comp] = int(parent[shallowest])

    heads_count: dict[int, int] = {}
    for comp, head in head_of_comp.items():
        members = comp_members[comp]
        if head in members:
            continue  # the root heading its own component
        heads_count[head] = heads_count.get(head, 0) + 1
    articulation = np.array(
        sorted(
            h for h, count in heads_count.items()
            if (count >= 1 and not is_root[h]) or (count >= 2 and is_root[h])
        ),
        dtype=np.int64,
    )

    # Biconnected components: head ∪ component, skipping edgeless pieces.
    degs = graph.degrees
    bccs: list[np.ndarray] = []
    for comp, members in comp_members.items():
        head = head_of_comp[comp]
        vertex_set = set(members)
        vertex_set.add(head)
        if len(vertex_set) < 2:
            continue
        if len(vertex_set) == 1 or all(degs[v] == 0 for v in vertex_set):
            continue
        bccs.append(np.array(sorted(vertex_set), dtype=np.int64))
    return bridges, articulation, bccs


def two_edge_connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> BCLabeling:
    """2-edge connectivity (Theorem 8): :func:`bc_labeling`, whose
    ``two_edge_labels`` partition the vertices into 2-edge-connected
    components and whose ``bridges`` are the cut edges."""
    return bc_labeling(graph, epsilon=epsilon, seed=seed, config=config)
