"""The 2-Cycle problem in O(1/ε) AMPC rounds (paper §4, Theorem 1).

The instance is a union of cycles that is either one n-cycle or two
n/2-cycles; the conjectured MPC lower bound is Ω(log n) rounds (the 2-Cycle
conjecture), while AMPC solves it in O(1/ε) rounds: Shrink the cycles onto
O(n^ε) sampled vertices via adaptive pointer walks, then finish on a single
machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import new_runtime
from repro.graph.graph import Graph
from repro.graph.io import orient_cycles

from .shrink import TAIL, shrink


@dataclass
class TwoCycleResult:
    """Answer and cost of one 2-Cycle run.

    Attributes:
        n_cycles: number of cycles detected.
        is_two_cycles: the 2-Cycle answer (n_cycles == 2).
        cycle_lengths: length of each cycle in *original* vertices
            (recovered from the shrink weights), sorted descending.
        shrink_rounds: adaptive shrink rounds used.
        report: full cost ledger.
        config: deployment used.
    """

    n_cycles: int
    is_two_cycles: bool
    cycle_lengths: list[int]
    shrink_rounds: int
    report: RunReport
    config: AMPCConfig


def two_cycle(
    graph: Graph,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> TwoCycleResult:
    """Decide whether ``graph`` is one cycle or two (paper Algorithm 2).

    Args:
        graph: a union of cycles (validated; every degree must be 2).
        epsilon: space exponent ε; rounds scale as O(1/ε).
        seed: reproducibility seed.
        config: explicit deployment (overrides epsilon/seed derivation).

    Returns:
        TwoCycleResult (also meaningful on inputs with more than two
        cycles: ``n_cycles`` counts them all).
    """
    if config is None:
        config = AMPCConfig.for_input(graph.n, epsilon=epsilon, seed=seed)
    runtime = new_runtime(config)
    succ, _pred = orient_cycles(graph)
    runtime.charge("orient-cycles", rounds=1, reads=graph.n, writes=graph.n)

    target = max(4, int(math.ceil(2.0 * graph.n**config.epsilon)))
    outcome = shrink(
        succ,
        runtime,
        delta=config.epsilon,
        target_size=target,
        tag="2cycle-shrink",
    )

    # Final step: the contracted structure has O(n^eps) elements and fits
    # on one machine, which reads it whole and counts cycles locally.
    runtime.charge("local-solve", rounds=1, reads=2 * outcome.alive.size)
    lengths = _count_cycles(outcome.alive, outcome.succ, outcome.length)
    lengths.sort(reverse=True)
    return TwoCycleResult(
        n_cycles=len(lengths),
        is_two_cycles=len(lengths) == 2,
        cycle_lengths=lengths,
        shrink_rounds=outcome.n_rounds,
        report=runtime.report,
        config=config,
    )


def _count_cycles(
    alive: np.ndarray, succ: np.ndarray, length: np.ndarray
) -> list[int]:
    """Cycle lengths (in original vertices) of the contracted structure."""
    index_of = {int(v): i for i, v in enumerate(alive.tolist())}
    seen = np.zeros(alive.size, dtype=bool)
    lengths: list[int] = []
    for i in range(alive.size):
        if seen[i]:
            continue
        total = 0.0
        j = i
        while not seen[j]:
            seen[j] = True
            total += float(length[j])
            nxt = int(succ[j])
            if nxt == TAIL:
                raise ValueError("input contained a path, not a cycle")
            j = index_of[nxt]
        if j != i:
            raise ValueError("contracted structure is not a union of cycles")
        lengths.append(int(round(total)))
    return lengths
