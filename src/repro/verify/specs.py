"""Per-item specs of the machine programs, and the check against them.

The production definition of each adaptive round is a fused (for the
MIS query: per-block) program in :mod:`repro.algorithms`. The
programs here are direct per-item transcriptions of the paper's
pseudocode — one vertex, one sample, one element at a time, every key
fetched with ``ctx.read`` through the machine's read cache. Nothing in
production selects them; they say what the production programs must
compute and charge, and a :class:`SpecCheckedRuntime` holds a
production program to it round by round: same results, same next-store
contents, same ledger row.

============================  =========================================
spec                          production program
============================  =========================================
:func:`bfs` (Algorithm 6)     ``connectivity._bfs_all`` (fused)
:func:`truncated_query`       ``mis._query_block_worker``
(Algorithms 4–5)              (``greedy.truncated_query``)
:func:`prim` (Algorithm 8)    ``msf._prim_all`` (fused)
:func:`walk` (Algorithm 1)    ``shrink._walk_all`` (fused)
:func:`fill` (Algorithm 11,   ``shrink._fill_all`` (fused)
step 4)
============================  =========================================
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Callable

import numpy as np

from repro.algorithms.connectivity import _increase_degrees
from repro.algorithms.greedy import Calls
from repro.algorithms.mis import _iteration, _pi_sorted_csr
from repro.algorithms.msf import _msf_increase_degree
from repro.algorithms.shrink import TAIL, fill_back, shrink
from repro.core.config import AMPCConfig
from repro.core.runtime import _PER_ITEM, AMPCRuntime, RoundResult
from repro.graph.generators import list_head
from repro.graph.graph import Graph, WeightedGraph

# ---------------------------------------------------------------------------
# the per-item programs
# ---------------------------------------------------------------------------


def bfs(d: int) -> Callable[..., Any]:
    """Algorithm 6: BFS from ``v`` until d vertices are seen or 4d² reads
    are spent; writes the ``("fedge", v) -> x`` edges found."""
    read_cap = 4 * d * d

    def worker(ctx, v: int):
        visited = {v}
        queue = [v]
        head = 0
        reads = 0
        while head < len(queue) and len(visited) < d and reads < read_cap:
            u = queue[head]
            head += 1
            deg_u = ctx.read(("deg", u))
            reads += 1
            for i in range(deg_u):
                if len(visited) >= d or reads >= read_cap:
                    break
                x = ctx.read(("adj", u, i))
                reads += 1
                if x not in visited:
                    visited.add(x)
                    queue.append(x)
        visited.discard(v)
        for x in sorted(visited):
            ctx.write(("fedge", v), int(x))
        return len(visited)

    return worker


def _truncated_query(
    ctx,
    root: int,
    pi_root: int,
    cap: int,
    settled: dict[int, bool],
    calls: Calls,
) -> int:
    """Iterative TruncatedQuery (Algorithm 5) for LFMIS, over ``ctx.read``
    of the flat keys ``("deg", v) -> (deg, base)`` and ``("nb", pos) ->
    (u, pi_u)``. Returns 1 (in), 0 (out) or -1 (truncated).

    ``settled`` is the machine-local status table shared across the
    vertices this machine processes in the round; completed (untruncated)
    sub-queries land there because f(·, π) values are exact. Written
    independently of :func:`repro.algorithms.greedy.truncated_query`,
    which the production program runs.
    """
    if root in settled:
        return 1 if settled[root] else 0

    # Explicit stack to avoid Python recursion limits: frames are
    # [vertex, pi_v, next_neighbor_index, degree, row_base];
    # degree = -1 until the ("deg", v) -> (degree, base) pair is read.
    stack: list[list[int]] = [[root, pi_root, 0, -1, -1]]
    budget = cap
    ret: bool | None = None  # child return value being propagated

    while stack:
        frame = stack[-1]
        v, pi_v, i, deg, b = frame
        if deg == -1:
            budget -= 1
            calls.value += 1
            if budget < 0:
                return -1  # capacity exhausted (step 1 / 4d)
            deg, b = ctx.read(("deg", v))
            frame[3] = deg
            frame[4] = b
            ret = None
        if ret is not None:
            # Returning from the recursive call on neighbor i-1 (step 4b).
            if ret is True:
                settled[v] = False  # an earlier-π neighbor is in (4c)
                stack.pop()
                ret = False
                continue
            ret = None
        advanced = False
        while i < deg:
            entry = ctx.read(("nb", b + i))
            u, pi_u = entry
            if pi_u > pi_v:
                break  # π-sorted: no earlier neighbors remain (4a)
            frame[2] = i = i + 1
            known = settled.get(u)
            if known is True:
                settled[v] = False
                stack.pop()
                ret = False
                advanced = True
                break
            if known is False:
                continue  # u is out; it cannot block v
            stack.append([u, pi_u, 0, -1, -1])
            advanced = True
            break
        if advanced:
            continue
        # All earlier-π neighbors are out: v joins the MIS (step 4a / 3).
        settled[v] = True
        stack.pop()
        ret = True

    return 1 if settled[root] else 0


def truncated_query(pi: np.ndarray, cap: int) -> Callable[..., Any]:
    """Algorithms 4–5: one truncated query per vertex, sharing the
    machine's status table; publishes every status the machine newly
    determined as ``("settled", u) -> 0/1``."""

    def worker(ctx, v: int):
        settled = ctx.scratch.setdefault("settled", {})
        calls = Calls()
        result = _truncated_query(ctx, v, int(pi[v]), cap, settled, calls)
        fresh = ctx.scratch.setdefault("published", set())
        for u, val in settled.items():
            if u not in fresh:
                fresh.add(u)
                ctx.write(("settled", u), int(val))
        return (calls.value, result)

    return worker


def prim(d: int) -> Callable[..., Any]:
    """Algorithm 8: grow F_v by the lightest outgoing edge until it has d
    vertices or 4d² reads are spent; every edge taken is an MSF edge
    (``("msf", eid) -> 1``) and a member row (``("fv", v) -> member``)."""
    read_cap = 4 * d * d

    def worker(ctx, v: int):
        in_tree = {v}
        heap: list[tuple[float, int, int]] = []
        reads = 0

        def push_edges(u: int) -> None:
            nonlocal reads
            deg_u, b = ctx.read(("deg", u))
            reads += 1
            for i in range(deg_u):
                if reads >= read_cap:
                    return
                nbr, w, eid = ctx.read(("adjw", b + i))
                reads += 1
                if nbr not in in_tree:
                    heapq.heappush(heap, (w, int(eid), int(nbr)))

        push_edges(v)
        while heap and len(in_tree) < d and reads < read_cap:
            _w, eid, b = heapq.heappop(heap)
            if b in in_tree:
                continue
            in_tree.add(b)
            ctx.write(("msf", eid), 1)
            ctx.write(("fv", v), b)
            push_edges(b)
        # Empty heap with budget left: F_v is v's whole component.
        exhausted = not heap and reads < read_cap
        return (len(in_tree), bool(exhausted))

    return worker


def walk(ctx, v: int):
    """Algorithm 1, step 2: sample ``v`` walks successor pointers to the
    next sample, absorbing what it passes (``("absorb", u) -> (v,
    distance)``, a float row as the production round writes it); returns
    its new successor and link length."""
    cur = ctx.read(("succ", v))
    cum = ctx.read(("len", v))
    while cur != TAIL and cur != v and ctx.read(("smp", cur)) is None:
        ctx.write(("absorb", cur), (float(v), float(cum)))
        cum += ctx.read(("len", cur))
        cur = ctx.read(("succ", cur))
    return (int(cur), float(cum))


def fill(additive: bool) -> Callable[..., Any]:
    """Algorithm 11, step 4: an absorbed element takes its absorber's
    value, plus its offset when ``additive``."""

    def worker(ctx, u: int):
        absorber, offset = ctx.read(("abs", u))
        base = ctx.read(("val", int(absorber)))
        return float(base + offset) if additive else float(base)

    return worker


# ---------------------------------------------------------------------------
# one round, two programs
# ---------------------------------------------------------------------------


def _ledger_row(runtime: AMPCRuntime) -> dict:
    """The last round's model-cost record (no index, no wall time)."""
    row = runtime.report.to_dict()["rounds"][-1]
    del row["index"]
    return row


def _matrix(results: Any) -> np.ndarray:
    """A round's results as an (items, columns) matrix, whichever program
    shape produced them: a list of values or tuples, or (a tuple of)
    arrays."""
    if results is None or len(results) == 0:
        return np.empty((0, 0))
    if isinstance(results, tuple):
        results = np.column_stack(results)
    return np.asarray(results, dtype=np.float64).reshape(len(results), -1)


class SpecCheckedRuntime(AMPCRuntime):
    """A runtime that runs every ``round_batch`` twice: the production
    program as asked, and the round's per-item spec (``spec_for(tag)``)
    through the per-item pipeline of a twin runtime, on the same staged
    input and the same seeded placement. ``problems`` lists where the
    results, the next store (pairs sorted by key, each key's values in
    write order) or the ledger row of the ``checked`` rounds differ.
    """

    def __init__(
        self, config: AMPCConfig, spec_for: Callable[[str], Callable[..., Any]]
    ) -> None:
        super().__init__(config)
        self.spec_for = spec_for
        self.problems: list[str] = []
        self.checked = 0

    def round_batch(
        self, work: np.ndarray, worker: Callable[..., Any], *,
        setup_arrays: Any, fused: bool = False, tag: str,
    ) -> RoundResult:
        arrays = list(setup_arrays)
        twin = AMPCRuntime(self.config)
        twin._round_counter = self._round_counter
        want = twin._run_round(
            _PER_ITEM, work.tolist(), self.spec_for(tag),
            setup_arrays=arrays, tag=tag,
        )
        got = super().round_batch(
            work, worker, setup_arrays=arrays, fused=fused, tag=tag
        )
        self.checked += 1
        if not np.array_equal(_matrix(want.results), _matrix(got.results)):
            self.problems.append(f"{tag}: results differ from the spec's")
        if sorted(want.store.items(), key=itemgetter(0)) != sorted(
            got.store.items(), key=itemgetter(0)
        ):
            self.problems.append(f"{tag}: next store differs from the spec's")
        row, spec_row = _ledger_row(self), _ledger_row(twin)
        if row != spec_row:
            self.problems.append(
                f"{tag}: ledger row {row} != spec's {spec_row}"
            )
        return got


# ---------------------------------------------------------------------------
# the five rounds
# ---------------------------------------------------------------------------


def graph_round_problems(
    graph: Graph, d: int, cap: int, seed: int, config: AMPCConfig
) -> list[str]:
    """IncreaseDegrees(G, d) and the first MIS iteration (capacity
    ``cap``, π drawn from ``seed``) against :func:`bfs` and
    :func:`truncated_query`."""
    bfs_rt = SpecCheckedRuntime(config, lambda tag: bfs(d))
    _increase_degrees(graph, d, bfs_rt, tag="increase-degrees")
    pi = np.random.default_rng(seed).permutation(graph.n).astype(np.int64)
    mis_rt = SpecCheckedRuntime(config, lambda tag: truncated_query(pi, cap))
    _iteration(
        mis_rt, np.arange(graph.n, dtype=np.int64), *_pi_sorted_csr(graph, pi),
        pi, np.full(graph.n, -1, dtype=np.int8), cap, tag="mis-iteration",
    )
    return bfs_rt.problems + mis_rt.problems


def weighted_round_problems(
    graph: WeightedGraph, d: int, config: AMPCConfig
) -> list[str]:
    """MSFIncreaseDegree(G, d) against :func:`prim`."""
    runtime = SpecCheckedRuntime(config, lambda tag: prim(d))
    _msf_increase_degree(graph, d, runtime, tag="msf-increase-degree")
    return runtime.problems


def list_round_problems(
    succ: np.ndarray, additive: bool, config: AMPCConfig
) -> list[str]:
    """Shrink the list ``succ`` to a quarter and fill back: every Shrink
    round against :func:`walk`, every level against :func:`fill`."""
    runtime = SpecCheckedRuntime(
        config, lambda tag: walk if tag.startswith("shrink") else fill(additive)
    )
    outcome = shrink(
        succ, runtime, delta=0.5, target_size=max(1, succ.size // 4),
        forced=np.array([list_head(succ)], dtype=np.int64),
    )
    values = np.full(succ.size, np.nan)
    values[outcome.alive] = outcome.alive
    fill_back(runtime, outcome.history, values, additive=additive)
    return runtime.problems
