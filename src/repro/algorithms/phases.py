"""The contraction-phase driver of Algorithms 7 and 9 (Theorems 3 and 4).

Connectivity and MSF run one phase loop. A phase spends one adaptive
round growing every vertex's neighbourhood to the budget d — BFS in
Algorithm 6, local Prim in Algorithm 8 — then samples leaders with
probability Θ(log n / d), contracts every vertex onto the root of its
leader chain, and grows the budget d → d^1.4, so O(log log n) phases
suffice. Once the remaining graph fits on one machine it is solved there
instead, with a sequential union-find. Only the round, the leader rule
it implies, and what a contraction keeps of the input differ between the
two algorithms; :func:`run_phases` takes them as arguments.

:func:`budget_schedule` is the one budget schedule. The Andoni et al.
MPC comparator (:mod:`repro.baselines.andoni_mpc`) keeps its own loop —
its pointer resolution is jumping rounds, charged as MPC rounds — but
grows d by the same schedule, so the two sides stay like-for-like.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.runtime import AMPCRuntime
from repro.primitives.contraction import resolve_pointers
from repro.primitives.sampling import leader_probability

#: Budget growth per phase: d → d^GROWTH (Algorithm 7 step 2d).
GROWTH = 1.4


class Schedule(NamedTuple):
    """The budget schedule of one run: first budget, cap, phase limit."""

    start: float
    cap: float
    limit: int


def budget_schedule(config: AMPCConfig, n: int, n_start: int) -> Schedule:
    """The schedule for an input of ``n`` vertices whose phase loop starts
    on ``n_start`` of them (fewer after connectivity's sparse reduction).

    * ``start``: d = √(T / n_start) (Algorithm 7 step 1), floored at 2 and
      at log n_start so leader sampling contracts from the first phase
      (the paper guarantees d = Ω(log n) via its m = Ω(n log² n)
      assumption).
    * ``cap``: the paper caps d at n^{ε/3}. At simulated scales that is
      often below even the start, which would freeze d and degrade the
      phase count from log log n to log n; the binding constraint that
      matters is that a vertex's O(d²) reads fit the O(S) per-machine
      budget, so the cap is √(read_budget / 4) when that is larger, and
      never below the start.
    * ``limit``: a safety cap on phases, O(log log n + 1/ε).
    """
    start = max(2.0, math.sqrt(config.total_space / max(n_start, 1)),
                math.log2(max(n_start, 4)))
    cap = max(float(n) ** (config.epsilon / 3.0),
              math.sqrt(config.read_budget / 4.0), start)
    limit = 4 * int(math.ceil(math.log2(math.log2(max(n, 4)) + 1) + 1)) \
        + 4 * int(math.ceil(1.0 / config.epsilon)) + 8
    return Schedule(start, cap, limit)


def run_phases(
    name: str,
    current,
    n: int,
    config: AMPCConfig,
    runtime: AMPCRuntime,
    rng: np.random.Generator,
    *,
    grow,
    keep,
) -> list[float]:
    """Contract ``current`` phase by phase until no edge is left; returns
    the budget d of every phase.

    Args:
        name: the algorithm, for the non-convergence error only.
        current: the graph entering the loop.
        n: the input's vertex count (the schedule's cap and limit).
        config, runtime: deployment and the ledger charged.
        rng: the leader coins' source; the driver's draws are its only
            ones from here on.
        grow: the phase's round, ``grow(graph, d, phase) -> (source,
            leaders)``: ``source`` is the graph to contract and
            ``leaders(is_leader)`` the leader rule on what the round
            found — each vertex's contraction target given the coins.
        keep: what a contraction keeps of the input, with
            ``keep.contract(source, root)`` returning the contracted graph
            and ``keep.solve(graph)`` finishing on one machine.

    Raises:
        RuntimeError: edges remain after the schedule's phase limit.
    """
    d, cap, limit = budget_schedule(config, n, current.n)
    budgets: list[float] = []
    while current.m > 0:
        if len(budgets) == limit:
            raise RuntimeError(
                f"{name} did not converge in {limit} phases "
                f"(n'={current.n}, m'={current.m}, d={d})"
            )
        budgets.append(d)
        phase = len(budgets)
        # A remainder that fits on one machine is finished there.
        if current.n + current.m <= config.space:
            runtime.charge("local-solve", rounds=1,
                           reads=current.n + 2 * current.m)
            keep.solve(current)
            break
        source, leaders = grow(current, int(round(d)), phase)
        # Leader coins: local, folded into the contraction round.
        is_leader = rng.random(current.n) < leader_probability(current.n, d)
        # Every vertex walks its leader chain with adaptive reads
        # (resolve_pointers charges it); relabelling and deduplicating
        # the edges is one more round.
        root = resolve_pointers(leaders(is_leader), runtime,
                                tag=f"resolve:{phase}")
        del leaders, is_leader
        contracted = keep.contract(source, root)
        runtime.charge(f"contract:{phase}", rounds=1,
                       reads=2 * source.m, writes=2 * contracted.m)
        # The phase's graphs go before the next phase builds its own.
        current = contracted
        del source, contracted, root
        d = min(d**GROWTH, cap)
    return budgets


def union_find(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential union-find over ``edges`` in the order given: the
    fits-on-one-machine endgame.

    Returns ``(root, joined)``: ``root[v]`` is the smallest vertex of v's
    component, and ``joined[j]`` whether edge j merged two components —
    Kruskal's forest when the edges come lightest first.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    joined = np.zeros(len(edges), dtype=bool)
    for j, (u, v) in enumerate(np.asarray(edges).tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            joined[j] = True
    return np.array([find(v) for v in range(n)], dtype=np.int64), joined
