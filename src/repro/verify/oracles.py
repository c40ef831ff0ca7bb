"""Differential oracles: every AMPC algorithm against a ground truth.

Each registered :class:`AlgorithmCase` binds one algorithm in
:mod:`repro.algorithms` to

* a **sequential oracle** — the single-threaded classic from
  :mod:`repro.baselines.seq` (union-find, Kruskal, Hopcroft–Tarjan, LF
  greedy sweeps, O(n) list walk) the distributed output must agree with;
* optionally a **cross-model check** — the MPC baseline
  (:mod:`repro.baselines`) whose answer the AMPC run must match, keeping
  the Figure 1 comparison apples-to-apples;
* a **digest** of the output, used by the seed-determinism matrix (two
  runs of the same cell must be bit-identical);
* the set of **generator families** (named in
  :data:`repro.verify.runner.FAMILIES`) the case accepts as workloads.

Every case also runs under faults: the runner arms the runtimes the
solve builds (:func:`repro.core.runtime.use_runtime`) and demands the
fault-free digest. A case no machine fault can reach says why in
``chaos_exempt``; a case no real-process fault can reach, in
``process_exempt``.

Oracle callables return a list of human-readable discrepancy strings —
empty means agreement. The conformance runner
(:mod:`repro.verify.runner`) sweeps the registry; tests reuse individual
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import algorithms
from repro.baselines import seq
from repro.baselines.boruvka import boruvka_msf
from repro.baselines.label_propagation import label_propagation
from repro.baselines.pointer_doubling import mpc_list_ranking, mpc_two_cycle
from repro.core.cost import RunReport
from repro.graph import validation
from repro.graph.graph import Graph, WeightedGraph


@dataclass(frozen=True)
class Workload:
    """One generated input instance.

    Attributes:
        family: generator family name (see ``runner.FAMILIES``).
        kind: payload kind — "graph", "weighted", "succ", or "two_cycle".
        payload: the input object (Graph / WeightedGraph / successor array /
            ``(Graph, bool)`` for 2-Cycle instances).
        seed: the seed the instance was generated from.
        meta: extra ground-truth data the generator knows (e.g. the planted
            2-Cycle answer).
    """

    family: str
    kind: str
    payload: Any
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> tuple[int, int]:
        """(n, m) of the instance (m = 0 for successor arrays)."""
        obj = self.payload[0] if self.kind == "two_cycle" else self.payload
        if isinstance(obj, np.ndarray):
            return int(obj.size), 0
        return obj.n, obj.m


@dataclass(frozen=True)
class AlgorithmCase:
    """One algorithm's conformance contract.

    Attributes:
        name: registry key (also the CLI name).
        kind: workload kind the case consumes.
        families: compatible generator family names, in sweep order.
        run: ``run(workload, seed)`` → algorithm result.
        oracle: ``oracle(workload, result, seed)`` → discrepancy strings.
        digest: ``digest(result)`` → stable bytes identifying the output.
        report_of: extracts the :class:`RunReport` from a result.
        cross_model: optional ``(workload, result, seed)`` → discrepancies
            against the MPC baseline.
        chaos_exempt: why no machine fault can reach the case (its
            chaos cells are skipped); empty for every case they reach.
        process_exempt: why no real-process fault can reach the case
            (its cells run unarmed under ``--process-faults`` and fail if
            a round ships after all); empty for every case they reach.
    """

    name: str
    kind: str
    families: tuple[str, ...]
    run: Callable[[Workload, int], Any]
    oracle: Callable[[Workload, Any, int], list[str]]
    digest: Callable[[Any], bytes]
    report_of: Callable[[Any], RunReport | None]
    cross_model: Callable[[Workload, Any, int], list[str]] | None = None
    chaos_exempt: str = ""
    process_exempt: str = ""


# Solves whose every round is fused: the parent runs each one whole, so
# nothing ships to a pool worker.
_FUSED_ONLY = "fused-only: every round runs in the parent, none in a worker"


CASES: dict[str, AlgorithmCase] = {}


def register(case: AlgorithmCase) -> AlgorithmCase:
    if case.name in CASES:
        raise ValueError(f"duplicate oracle case {case.name!r}")
    CASES[case.name] = case
    return case


def case_names() -> list[str]:
    """Registered algorithm names in registration order."""
    return list(CASES)


# ---------------------------------------------------------------------------
# validity helpers (shared with the metamorphic tests)
# ---------------------------------------------------------------------------


def mis_discrepancies(graph: Graph, in_mis: np.ndarray) -> list[str]:
    """Independence and maximality of a claimed MIS."""
    problems = []
    edges = graph.edges()
    if edges.size:
        both = in_mis[edges[:, 0]] & in_mis[edges[:, 1]]
        if both.any():
            problems.append(
                f"{int(both.sum())} edges have both endpoints in the MIS"
            )
    # Maximality: a vertex outside the set must have a neighbor inside.
    covered = in_mis.copy()
    if edges.size:
        np.logical_or.at(covered, edges[:, 0], in_mis[edges[:, 1]])
        np.logical_or.at(covered, edges[:, 1], in_mis[edges[:, 0]])
    missed = int((~covered).sum())
    if missed:
        problems.append(f"{missed} vertices are neither in the MIS nor "
                        f"adjacent to it")
    return problems


def matching_discrepancies(graph: Graph, edge_ids: np.ndarray) -> list[str]:
    """Disjointness and maximality of a claimed maximal matching."""
    problems = []
    edges = graph.edges()
    chosen = edges[edge_ids] if edge_ids.size else np.zeros((0, 2), np.int64)
    matched = np.zeros(graph.n, dtype=bool)
    endpoints, counts = np.unique(chosen, return_counts=True)
    if (counts > 1).any():
        problems.append("matching edges share endpoints")
    matched[endpoints] = True
    if edges.size:
        free = ~matched[edges[:, 0]] & ~matched[edges[:, 1]]
        if free.any():
            problems.append(
                f"{int(free.sum())} edges have both endpoints unmatched"
            )
    return problems


def coloring_discrepancies(graph: Graph, colors: np.ndarray) -> list[str]:
    """Propriety of a vertex coloring."""
    edges = graph.edges()
    if edges.size:
        clashes = int((colors[edges[:, 0]] == colors[edges[:, 1]]).sum())
        if clashes:
            return [f"{clashes} edges join same-colored vertices"]
    return []


def edge_coloring_discrepancies(
    graph: Graph, edge_colors: np.ndarray
) -> list[str]:
    """Propriety of an edge coloring (no two incident edges share color)."""
    edges = graph.edges()
    seen: set[tuple[int, int]] = set()
    clashes = 0
    for eid in range(edges.shape[0]):
        c = int(edge_colors[eid])
        for v in (int(edges[eid, 0]), int(edges[eid, 1])):
            if (v, c) in seen:
                clashes += 1
            seen.add((v, c))
    return [f"{clashes} incident edge pairs share a color"] if clashes else []


def partition_discrepancies(
    labels: np.ndarray, reference: np.ndarray, what: str
) -> list[str]:
    """Same-partition check (labels may differ by renaming)."""
    if not validation.same_partition(labels, reference):
        return [f"{what} labeling does not induce the reference partition"]
    return []


# ---------------------------------------------------------------------------
# digest / report helpers
# ---------------------------------------------------------------------------


def _arr_digest(*arrays: np.ndarray) -> bytes:
    parts = []
    for a in arrays:
        parts.append(np.ascontiguousarray(a).tobytes())
    return b"|".join(parts)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_GRAPH = ("er", "power-law", "grid", "tree", "forest", "cycles")


def _connectivity_oracle(w: Workload, res, seed: int) -> list[str]:
    reference = validation.components_reference(w.payload)
    problems = partition_discrepancies(res.labels, reference, "connectivity")
    # Labels are canonicalized to component minima, so equality is exact.
    if not np.array_equal(res.labels, reference):
        problems.append("labels are not canonical component minima")
    n_ref = int(np.unique(reference).size) if reference.size else 0
    if res.n_components != n_ref:
        problems.append(
            f"n_components {res.n_components} != reference {n_ref}"
        )
    return problems


def _connectivity_cross(w: Workload, res, seed: int) -> list[str]:
    mpc = label_propagation(w.payload, seed=seed)
    return partition_discrepancies(
        res.labels, mpc.labels, "AMPC-vs-MPC connectivity"
    )


register(AlgorithmCase(
    name="connectivity",
    kind="graph",
    families=_GRAPH,
    run=lambda w, seed: algorithms.connectivity(w.payload, seed=seed),
    oracle=_connectivity_oracle,
    digest=lambda res: _arr_digest(res.labels),
    report_of=lambda res: res.report,
    cross_model=_connectivity_cross,
    process_exempt=_FUSED_ONLY,
))


def _mis_oracle(w: Workload, res, seed: int) -> list[str]:
    graph = w.payload
    problems = mis_discrepancies(graph, res.in_mis)
    expected = seq.lfmis(graph, res.pi)
    if not np.array_equal(res.in_mis, expected):
        problems.append("MIS differs from sequential LFMIS for the same π")
    return problems


register(AlgorithmCase(
    name="mis",
    kind="graph",
    families=("er", "power-law", "grid", "forest"),
    run=lambda w, seed: algorithms.maximal_independent_set(
        w.payload, seed=seed
    ),
    oracle=_mis_oracle,
    digest=lambda res: _arr_digest(res.in_mis, res.pi),
    report_of=lambda res: res.report,
))


def _matching_oracle(w: Workload, res, seed: int) -> list[str]:
    graph = w.payload
    problems = matching_discrepancies(graph, res.edge_ids)
    expected = algorithms.sequential_lfmm(graph, res.pi)
    if not np.array_equal(res.edge_ids, expected):
        problems.append(
            "matching differs from sequential LF matching for the same π"
        )
    return problems


register(AlgorithmCase(
    name="matching",
    kind="graph",
    families=("er", "power-law", "grid"),
    run=lambda w, seed: algorithms.maximal_matching(w.payload, seed=seed),
    oracle=_matching_oracle,
    digest=lambda res: _arr_digest(res.edge_ids),
    report_of=lambda res: res.report,
))


def _coloring_oracle(w: Workload, res, seed: int) -> list[str]:
    graph = w.payload
    problems = coloring_discrepancies(graph, res.colors)
    expected = algorithms.sequential_greedy_coloring(graph, res.pi)
    if not np.array_equal(res.colors, expected):
        problems.append(
            "coloring differs from the sequential LF greedy sweep for π"
        )
    return problems


register(AlgorithmCase(
    name="coloring",
    kind="graph",
    families=("er", "power-law", "grid"),
    run=lambda w, seed: algorithms.greedy_coloring(w.payload, seed=seed),
    oracle=_coloring_oracle,
    digest=lambda res: _arr_digest(res.colors),
    report_of=lambda res: res.report,
))


def _edge_coloring_oracle(w: Workload, res, seed: int) -> list[str]:
    graph = w.payload
    problems = edge_coloring_discrepancies(graph, res.colors)
    expected = algorithms.sequential_greedy_edge_coloring(graph, res.pi)
    if not np.array_equal(res.colors, expected):
        problems.append(
            "edge coloring differs from the sequential LF sweep for π"
        )
    return problems


register(AlgorithmCase(
    name="edge-coloring",
    kind="graph",
    families=("er", "power-law", "star"),
    run=lambda w, seed: algorithms.greedy_edge_coloring(w.payload, seed=seed),
    oracle=_edge_coloring_oracle,
    digest=lambda res: _arr_digest(res.colors),
    report_of=lambda res: res.report,
))


def _msf_oracle(w: Workload, res, seed: int) -> list[str]:
    wg: WeightedGraph = w.payload
    problems = []
    expected = seq.msf_edge_ids(wg)
    if not np.array_equal(res.edge_ids, expected):
        problems.append("MSF edge set differs from Kruskal")
    want_weight = float(wg.edge_weights()[expected].sum()) if expected.size else 0.0
    if not np.isclose(res.total_weight, want_weight):
        problems.append(
            f"MSF weight {res.total_weight} != Kruskal weight {want_weight}"
        )
    return problems


def _msf_cross(w: Workload, res, seed: int) -> list[str]:
    mpc = boruvka_msf(w.payload, seed=seed)
    if not np.array_equal(res.edge_ids, mpc.edge_ids):
        return ["AMPC MSF differs from Borůvka baseline"]
    return []


register(AlgorithmCase(
    name="msf",
    kind="weighted",
    families=("er", "power-law", "grid", "tree"),
    run=lambda w, seed: algorithms.minimum_spanning_forest(
        w.payload, seed=seed
    ),
    oracle=_msf_oracle,
    digest=lambda res: _arr_digest(res.edge_ids),
    report_of=lambda res: res.report,
    cross_model=_msf_cross,
    process_exempt=_FUSED_ONLY,
))


def _affinity_oracle(w: Workload, res, seed: int) -> list[str]:
    expected = algorithms.sequential_affinity_levels(w.payload)
    problems = []
    if len(res.levels) != len(expected):
        problems.append(
            f"dendrogram depth {len(res.levels)} != sequential "
            f"{len(expected)}"
        )
    for lvl, (got, want) in enumerate(zip(res.levels, expected)):
        if not validation.same_partition(got, want):
            problems.append(f"level {lvl} clustering differs from sequential")
    return problems


register(AlgorithmCase(
    name="affinity",
    kind="weighted",
    families=("er", "grid", "tree"),
    run=lambda w, seed: algorithms.affinity_clustering(w.payload, seed=seed),
    oracle=_affinity_oracle,
    digest=lambda res: _arr_digest(*res.levels) if res.levels else b"empty",
    report_of=lambda res: res.report,
    chaos_exempt="its adaptive rounds are resolve_pointers ledger charges, "
                 "not machine programs, so no machine can crash in them",
    process_exempt=_FUSED_ONLY,
))


def _two_cycle_oracle(w: Workload, res, seed: int) -> list[str]:
    graph, is_two = w.payload
    problems = []
    if res.is_two_cycles != is_two:
        problems.append(
            f"answered {'two' if res.is_two_cycles else 'one'} but instance "
            f"is {'two' if is_two else 'one'}"
        )
    if res.n_cycles != seq.count_cycles(graph):
        problems.append(
            f"n_cycles {res.n_cycles} != reference "
            f"{seq.count_cycles(graph)}"
        )
    if sum(res.cycle_lengths) != graph.n:
        problems.append("cycle lengths do not cover all vertices")
    return problems


def _two_cycle_cross(w: Workload, res, seed: int) -> list[str]:
    graph, _ = w.payload
    mpc = mpc_two_cycle(graph, seed=seed)
    if mpc.is_two_cycles != res.is_two_cycles:
        return ["AMPC and MPC 2-Cycle answers disagree"]
    return []


register(AlgorithmCase(
    name="two-cycle",
    kind="two_cycle",
    families=("one-cycle-inst", "two-cycle-inst", "random-cycle-inst"),
    run=lambda w, seed: algorithms.two_cycle(w.payload[0], seed=seed),
    oracle=_two_cycle_oracle,
    digest=lambda res: (
        bytes([res.n_cycles % 251]) + repr(sorted(res.cycle_lengths)).encode()
    ),
    report_of=lambda res: res.report,
    cross_model=_two_cycle_cross,
    process_exempt=_FUSED_ONLY,
))


def _cycle_cc_oracle(w: Workload, res, seed: int) -> list[str]:
    reference = validation.components_reference(w.payload)
    return partition_discrepancies(res.labels, reference, "cycle-connectivity")


register(AlgorithmCase(
    name="cycle-connectivity",
    kind="graph",
    families=("cycles", "one-cycle", "many-cycles"),
    run=lambda w, seed: algorithms.cycle_connectivity(w.payload, seed=seed),
    oracle=_cycle_cc_oracle,
    digest=lambda res: _arr_digest(res.labels),
    report_of=lambda res: res.report,
))


def _forest_cc_oracle(w: Workload, res, seed: int) -> list[str]:
    reference = validation.components_reference(w.payload)
    problems = partition_discrepancies(
        res.labels, reference, "forest-connectivity"
    )
    n_ref = int(np.unique(reference).size) if reference.size else 0
    if res.n_trees != n_ref:
        problems.append(f"n_trees {res.n_trees} != reference {n_ref}")
    return problems


register(AlgorithmCase(
    name="forest-connectivity",
    kind="graph",
    families=("tree", "forest", "path", "star"),
    run=lambda w, seed: algorithms.forest_connectivity(w.payload, seed=seed),
    oracle=_forest_cc_oracle,
    digest=lambda res: _arr_digest(res.labels),
    report_of=lambda res: res.report,
))


def _list_ranking_oracle(w: Workload, res, seed: int) -> list[str]:
    expected = seq.list_ranks(w.payload)
    if not np.array_equal(res.ranks, expected):
        return ["ranks differ from the sequential list walk"]
    return []


def _list_ranking_cross(w: Workload, res, seed: int) -> list[str]:
    mpc = mpc_list_ranking(w.payload, seed=seed)
    if not np.array_equal(res.ranks, mpc.ranks):
        return ["AMPC and MPC (Wyllie) list ranks disagree"]
    return []


register(AlgorithmCase(
    name="list-ranking",
    kind="succ",
    families=("list-uniform", "list-identity", "list-reversed"),
    run=lambda w, seed: algorithms.list_ranking(w.payload, seed=seed),
    oracle=_list_ranking_oracle,
    digest=lambda res: _arr_digest(res.ranks),
    report_of=lambda res: res.report,
    cross_model=_list_ranking_cross,
    process_exempt=_FUSED_ONLY,
))


def _tree_ops_oracle(w: Workload, res, seed: int) -> list[str]:
    graph: Graph = w.payload
    problems = []
    roots = set(res.roots.tolist())
    parent = res.parent
    # Orientation validity: parents are neighbors, chains reach roots.
    depth = np.zeros(graph.n, dtype=np.int64)
    for v in range(graph.n):
        p = int(parent[v])
        if v in roots:
            if p != v:
                problems.append(f"root {v} has parent {p}")
        elif not graph.has_edge(v, p):
            problems.append(f"parent of {v} is not a neighbor")
        x, hops = v, 0
        while parent[x] != x and hops <= graph.n:
            x = int(parent[x])
            hops += 1
        if parent[x] != x:
            problems.append(f"parent chain from {v} does not terminate")
        depth[v] = hops
        if problems:
            break
    if problems:
        return problems
    # Subtree sizes against the parent array itself.
    size = np.ones(graph.n, dtype=np.int64)
    for v in np.argsort(-depth):
        if parent[v] != v:
            size[parent[v]] += size[v]
    if not np.array_equal(res.subtree_size, size):
        problems.append("subtree sizes disagree with the parent array")
    if np.unique(res.preorder).size != graph.n:
        problems.append("preorder is not a permutation")
    return problems


register(AlgorithmCase(
    name="tree-ops",
    kind="graph",
    families=("tree", "forest", "path"),
    run=lambda w, seed: algorithms.root_forest(w.payload, seed=seed),
    oracle=_tree_ops_oracle,
    digest=lambda res: _arr_digest(res.parent, res.preorder, res.subtree_size),
    report_of=lambda res: res.report,
    process_exempt=_FUSED_ONLY,
))


def _bc_oracle(w: Workload, res, seed: int) -> list[str]:
    graph: Graph = w.payload
    problems = []
    bridges_ref, artic_ref = seq.bridges_and_articulation(graph)
    got_bridges = {tuple(sorted(map(int, b))) for b in np.asarray(res.bridges).reshape(-1, 2)}
    want_bridges = {tuple(sorted(map(int, b))) for b in np.asarray(bridges_ref).reshape(-1, 2)}
    if got_bridges != want_bridges:
        problems.append(
            f"bridge set differs (got {len(got_bridges)}, "
            f"want {len(want_bridges)})"
        )
    got_artic = set(map(int, np.asarray(res.articulation_points).ravel()))
    want_artic = set(map(int, np.asarray(artic_ref).ravel()))
    if got_artic != want_artic:
        problems.append("articulation points differ from Hopcroft–Tarjan")
    return problems


register(AlgorithmCase(
    name="biconnectivity",
    kind="graph",
    families=("er", "grid", "tree"),
    run=lambda w, seed: algorithms.bc_labeling(w.payload, seed=seed),
    oracle=_bc_oracle,
    digest=lambda res: _arr_digest(
        np.asarray(res.bridges, dtype=np.int64).reshape(-1, 2),
        np.asarray(res.articulation_points, dtype=np.int64),
        np.asarray(res.two_edge_labels, dtype=np.int64),
    ),
    report_of=lambda res: res.report,
    process_exempt=_FUSED_ONLY,
))
