"""The Andoni et al. MPC connectivity baseline — Figure 1's actual
comparator: O(log D · log log_{m/n} n) rounds.

This is the same phase structure as :mod:`repro.algorithms.connectivity`
(degree increase to budget d, leader contraction, d → d^1.4 — the budget
schedule of :mod:`repro.algorithms.phases` and the AMPC side's leader
rule, ``connectivity._choose_leaders``), with the one difference the
whole paper is about: **without adaptive reads**, increasing degrees to
d takes O(log D') rounds of *graph squaring* — each round every
under-budget vertex learns its neighbors' neighbors (one message
exchange), doubling its reach — instead of AMPC's single adaptive-BFS
round. Comparing this baseline's ledger with the AMPC
algorithm's isolates exactly the adaptivity advantage.

Squaring is capped per vertex at d new neighbors per round (the space
discipline of [2]; without a cap the squared graph can be Θ(n²)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import phases
from repro.algorithms.connectivity import _choose_leaders
from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import MPCRuntime
from repro.graph.graph import Graph
from repro.primitives.contraction import contract_graph, resolve_pointers
from repro.primitives.sampling import leader_probability

from .label_propagation import _max_chain_length

ROUNDS_PER_SQUARING = 2  # request neighbor lists; receive and merge


@dataclass
class AndoniMPCResult:
    """Baseline labels and cost.

    Attributes:
        labels: component label per vertex.
        n_components: number of components.
        phases: outer contraction phases (the log log n factor).
        squarings_per_phase: inner squaring rounds used by each phase
            (the log D factor AMPC removes).
        report: cost ledger.
        config: deployment used.
    """

    labels: np.ndarray
    n_components: int
    phases: int
    squarings_per_phase: list[int] = field(default_factory=list)
    report: RunReport | None = None
    config: AMPCConfig | None = None


def andoni_mpc_connectivity(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> AndoniMPCResult:
    """Connectivity via MPC graph exponentiation (Andoni et al. [2])."""
    n = graph.n
    if config is None:
        config = AMPCConfig.for_input(max(n + graph.m, 1), epsilon=epsilon, seed=seed)
    runtime = MPCRuntime(config)
    if n == 0:
        return AndoniMPCResult(
            labels=np.zeros(0, np.int64), n_components=0, phases=0,
            report=runtime.report, config=config,
        )

    mapping = np.arange(n, dtype=np.int64)
    current = graph
    rng = config.rng(salt=0xA2D)
    d, d_cap, limit = phases.budget_schedule(config, n, n)
    phase = 0
    squarings_per_phase: list[int] = []

    while current.m > 0:
        phase += 1
        if phase > limit:
            raise RuntimeError(
                f"Andoni MPC did not converge in {limit} phases")
        if current.n + current.m <= config.space:
            runtime.charge("local-solve", rounds=1,
                           reads=current.n + 2 * current.m, kind="mpc")
            mapping = phases.union_find(current.n, current.edges())[0][mapping]
            break

        augmented, squarings = _square_until_degree(
            current, int(round(d)), runtime, tag=f"square:{phase}"
        )
        squarings_per_phase.append(squarings)

        p = leader_probability(current.n, d)
        is_leader = rng.random(current.n) < p
        leader = _choose_leaders(augmented, is_leader, int(round(d)))
        root = resolve_pointers(leader)
        max_chain = _max_chain_length(leader, root)
        jump_rounds = max(1, int(math.ceil(math.log2(max(max_chain, 2)))))
        runtime.charge(f"jump:{phase}", rounds=jump_rounds,
                       reads=jump_rounds * current.n,
                       writes=jump_rounds * current.n, kind="mpc")
        contracted, new_of, _rep = contract_graph(augmented, root)
        runtime.charge(f"contract:{phase}", rounds=1,
                       reads=2 * augmented.m, writes=2 * contracted.m,
                       kind="mpc")
        mapping = new_of[root[mapping]]
        current = contracted
        d = min(d**phases.GROWTH, d_cap)

    return AndoniMPCResult(
        labels=mapping,
        n_components=int(np.unique(mapping).size),
        phases=phase,
        squarings_per_phase=squarings_per_phase,
        report=runtime.report,
        config=config,
    )


def _square_until_degree(
    graph: Graph, d: int, runtime: MPCRuntime, *, tag: str
) -> tuple[Graph, int]:
    """Square the graph until every vertex has degree ≥ d or its whole
    component — Θ(log D) squaring rounds, each charged as message rounds.

    Each squaring: every under-budget vertex u merges in up to d of its
    neighbors' neighbors (the per-vertex space cap of [2]).
    """
    current = graph
    squarings = 0
    max_squarings = 2 * int(math.ceil(math.log2(max(graph.n, 2)))) + 2
    while True:
        degs = current.degrees
        # Vertices satisfied: degree >= d, or their component is smaller
        # than d (detected conservatively: degree unchanged by squaring).
        need = np.flatnonzero((degs < d) & (degs > 0))
        if need.size == 0:
            break
        squarings += 1
        if squarings > max_squarings:
            break
        new_edges: list[tuple[int, int]] = []
        reads = 0
        for u in need.tolist():
            nbrs = current.neighbors(u)
            added = 0
            seen = set(nbrs.tolist())
            seen.add(u)
            for v in nbrs.tolist():
                if added >= d:
                    break
                for w in current.neighbors(v).tolist():
                    reads += 1
                    if w not in seen:
                        seen.add(w)
                        new_edges.append((u, w))
                        added += 1
                        if added >= d:
                            break
        runtime.charge(f"{tag}:{squarings}", rounds=ROUNDS_PER_SQUARING,
                       reads=reads, writes=len(new_edges), kind="mpc")
        if not new_edges:
            break
        combined = np.concatenate(
            [current.edges(), np.array(new_edges, np.int64)]
        )
        current = Graph.from_edges(current.n, combined)
    return current, squarings
