"""List ranking in O(1/ε) AMPC rounds (paper §8.1, Algorithm 11, Theorem 6).

Rank(v) = number of links from the head to v. The algorithm is weighted
Shrink: sampled elements walk to the next sample accumulating weighted
distances, the O(N^ε)-element remainder is ranked on one machine, and one
fill-back round per shrink level pushes ranks to every absorbed element
(rank(u) = rank(absorber) + offset).

List ranking is the workhorse behind the paper's Euler-tour algorithms:
tree rooting, subtree sizes, preorder numbering (§8.1) all reduce to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.cost import RunReport
from repro.core.runtime import AMPCRuntime, new_runtime
from repro.graph.generators import list_head

from .shrink import TAIL, ShrinkOutcome, fill_back, filled_ints, shrink


@dataclass
class ListRankingResult:
    """Ranks and cost of one list-ranking run.

    Attributes:
        ranks: ranks[v] = number of links from the head to element v.
        head: the head element.
        shrink_rounds: adaptive shrink rounds used.
        report: cost ledger.
        config: deployment used.
    """

    ranks: np.ndarray
    head: int
    shrink_rounds: int
    report: RunReport
    config: AMPCConfig


def list_ranking(
    succ: np.ndarray,
    *,
    head: int | None = None,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
    runtime: AMPCRuntime | None = None,
    vectorized: bool = False,
) -> ListRankingResult:
    """Rank a linked list given as a successor array (paper Algorithm 11).

    Args:
        succ: succ[v] = next element; the tail has succ = -1.
        head: the head element (derived from ``succ`` if omitted).
        epsilon: space exponent; rounds scale as O(1/ε).
        seed: reproducibility seed.
        config: explicit deployment.
        runtime: run on an existing runtime (shares its ledger) — used by
            the tree algorithms that invoke list ranking as a subroutine.
        vectorized: accepted and ignored (one machine program per
            round on every runtime; kept for existing callers).
    """
    n = int(succ.size)
    if config is None:
        config = (
            runtime.config
            if runtime is not None
            else AMPCConfig.for_input(max(n, 1), epsilon=epsilon, seed=seed)
        )
    if runtime is None:
        runtime = new_runtime(config)
    if n == 0:
        return ListRankingResult(
            ranks=np.zeros(0, np.int64), head=-1, shrink_rounds=0,
            report=runtime.report, config=config,
        )
    if head is None:
        head = list_head(succ)

    target = max(4, int(math.ceil(2.0 * n**config.epsilon)))
    outcome = shrink(
        succ,
        runtime,
        delta=config.epsilon,
        target_size=target,
        forced=np.array([head], dtype=np.int64),
        tag="listrank-shrink",
    )

    # Local solve: rank the O(n^eps) survivors by walking the contracted
    # list on one machine (Algorithm 11, step 3).
    runtime.charge("local-solve", rounds=1, reads=2 * outcome.alive.size)
    survivor_ranks, _heads = _rank_contracted(outcome, [int(head)], n)

    # Fill-back: one round per shrink level (Algorithm 11, step 4).
    ranks = filled_ints(fill_back(
        runtime,
        outcome.history,
        survivor_ranks,
        additive=True,
        tag="listrank-fill",
    ))
    return ListRankingResult(
        ranks=ranks,
        head=int(head),
        shrink_rounds=outcome.n_rounds,
        report=runtime.report,
        config=config,
    )


@dataclass
class MultiListRankingResult:
    """Ranks for a union of disjoint lists.

    Attributes:
        ranks: ranks[v] = links from v's own head to v.
        head_of: head_of[v] = the head of v's list.
        shrink_rounds: adaptive shrink rounds used.
        report: cost ledger.
    """

    ranks: np.ndarray
    head_of: np.ndarray
    shrink_rounds: int
    report: RunReport


def multi_list_ranking(
    succ: np.ndarray,
    heads: np.ndarray,
    *,
    runtime: AMPCRuntime | None = None,
    epsilon: float = 0.5,
    seed: int = 0,
    vectorized: bool = False,
) -> MultiListRankingResult:
    """Rank a disjoint union of lists in O(1/ε) rounds.

    The Euler-tour machinery (§8.1) ranks one list per tree of a forest;
    this is :func:`list_ranking` generalized to many heads. All heads are
    forced into every shrink sample so each list stays anchored. Runs two
    fill-back passes (ranks, then head labels), still O(1/ε) rounds total.

    Args:
        succ: successor array, -1 for tails; every element must be on a
            list reachable from exactly one head.
        heads: the head element of every list.
        runtime: existing runtime to share (else a fresh one is derived).
        epsilon / seed: deployment parameters when runtime is None.
        vectorized: accepted and ignored, as in :func:`list_ranking`.
    """
    n = int(succ.size)
    if runtime is None:
        config = AMPCConfig.for_input(max(n, 1), epsilon=epsilon, seed=seed)
        runtime = new_runtime(config)
    else:
        config = runtime.config
    heads = np.asarray(heads, dtype=np.int64)
    if n == 0:
        return MultiListRankingResult(
            ranks=np.zeros(0, np.int64), head_of=np.zeros(0, np.int64),
            shrink_rounds=0, report=runtime.report,
        )

    target = max(4, int(math.ceil(2.0 * n**config.epsilon)), heads.size)
    outcome = shrink(
        succ, runtime, delta=config.epsilon, target_size=target,
        forced=heads, tag="mlistrank-shrink",
    )
    runtime.charge("local-solve", rounds=1, reads=2 * outcome.alive.size)
    survivor_ranks, survivor_heads = _rank_contracted(
        outcome, heads.tolist(), n
    )
    ranks = filled_ints(fill_back(
        runtime, outcome.history, survivor_ranks, additive=True,
        tag="mlistrank-fill",
    ))
    head_of = filled_ints(fill_back(
        runtime, outcome.history, survivor_heads, additive=False,
        tag="mlisthead-fill",
    ))
    return MultiListRankingResult(
        ranks=ranks, head_of=head_of,
        shrink_rounds=outcome.n_rounds, report=runtime.report,
    )


def _rank_contracted(
    outcome: ShrinkOutcome, heads: list[int], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential ranking of the contracted lists (the one-machine step).

    Walks every head's contracted list; returns ``(ranks, head_of)`` as
    :func:`fill_back` seeds: dense float arrays over the ``n`` element
    ids, NaN for everything but the survivors.
    """
    index_of = {int(v): i for i, v in enumerate(outcome.alive.tolist())}
    ranks = np.full(n, np.nan)
    head_of = np.full(n, np.nan)
    for head in heads:
        if head not in index_of:
            raise RuntimeError("list head was absorbed; it must be forced alive")
        cur, rank = head, 0.0
        while cur != TAIL:
            if not np.isnan(ranks[cur]):
                raise ValueError(
                    f"element {cur} is reached twice: the contracted "
                    f"structure contains a cycle or lists share elements"
                )
            ranks[cur] = rank
            head_of[cur] = head
            i = index_of[cur]
            rank += float(outcome.length[i])
            cur = int(outcome.succ[i])
    unreached = int(np.isnan(ranks[outcome.alive]).sum())
    if unreached:
        raise ValueError(
            f"{unreached} of {outcome.alive.size} survivors unreachable from "
            f"any head; input was not a disjoint union of head-anchored lists"
        )
    return ranks, head_of


def sequential_list_ranks(succ: np.ndarray, head: int | None = None) -> np.ndarray:
    """O(n) sequential reference for tests."""
    n = succ.size
    if head is None:
        head = list_head(succ)
    ranks = np.full(n, -1, dtype=np.int64)
    cur, r = int(head), 0
    while cur != TAIL:
        ranks[cur] = r
        r += 1
        cur = int(succ[cur])
    return ranks
