"""The Shrink primitive (paper §4, Algorithm 1) and its fill-back.

Shrink contracts a pointer structure — a union of cycles and/or lists given
as a successor array — onto a random sample of its elements. Each round:

1. every element is sampled independently with probability n^{-δ/2}
   (n = the *initial* size, as in the paper);
2. each sampled element adaptively walks successor pointers until the next
   sampled element, absorbing everything it passes — the defining AMPC
   round: O(n^{δ/2}) expected reads per walk, issued sequentially within
   one round;
3. the structure contracts to the samples; absorbed elements record who
   absorbed them and at what (weighted) distance, enabling an O(1)-rounds-
   per-level *fill-back* that propagates labels or ranks to every original
   element afterwards (used by Algorithm 10's connectivity labels and
   Algorithm 11's list ranking).

Differences from the pseudocode, none affecting the guarantees:

* we walk only the successor direction — for cycles, forward walks from all
  samples already cover every segment exactly once (the paper's backward
  walk duplicates work); for lists, the head is always forced into the
  sample so every element is covered;
* a cycle that receives no sample (probability n^{-Ω(1)} for the sizes the
  theorems address) survives a round untouched instead of vanishing, which
  keeps the implementation correct on every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.dds import KEY_SLICE
from repro.core.runtime import AMPCRuntime
from repro.primitives.sampling import shrink_probability

TAIL = -1


@dataclass
class AbsorbRound:
    """Record of one shrink round, consumed by :func:`fill_back`.

    Attributes:
        absorbed: ids absorbed this round.
        absorber: absorber[i] is the sample that absorbed absorbed[i].
        offset: offset[i] is the weighted distance from the absorber to
            absorbed[i] along the pre-round structure.
    """

    absorbed: np.ndarray
    absorber: np.ndarray
    offset: np.ndarray


@dataclass
class ShrinkOutcome:
    """Result of running Shrink to its target size.

    Attributes:
        alive: ids of surviving elements.
        succ: succ[i] = successor id of alive[i] (TAIL for list tails),
            *in original-id space*.
        length: length[i] = weighted distance from alive[i] to its
            successor along the original structure.
        history: per-round absorption records, oldest first.
        n_rounds: shrink rounds executed.
    """

    alive: np.ndarray
    succ: np.ndarray
    length: np.ndarray
    history: list[AbsorbRound] = field(default_factory=list)
    n_rounds: int = 0


def shrink(
    succ: np.ndarray,
    runtime: AMPCRuntime,
    *,
    delta: float,
    target_size: int,
    weights: np.ndarray | None = None,
    forced: np.ndarray | None = None,
    max_rounds: int | None = None,
    tag: str = "shrink",
) -> ShrinkOutcome:
    """Run Shrink(G, δ, t) until at most ``target_size`` elements survive.

    Args:
        succ: successor array over ids 0..n-1; ``succ[v] = TAIL`` marks a
            list tail. Every id with an entry is an element.
        runtime: the AMPC runtime to execute (and charge) rounds on.
        delta: the paper's δ; per-round sampling probability is n^{-δ/2}.
        target_size: stop once at most this many elements survive (the
            paper stops at O(n^ε), when one machine can finish locally).
        weights: initial per-link weights (default: all ones — the link
            from v to succ[v] represents one original link).
        forced: ids always included in the sample (Algorithm 11 forces the
            list head v0 so ranks stay anchored).
        max_rounds: safety cap; default 4 * ceil(1/delta) + 8, generously
            above the paper's O(1/δ) bound, so a failure to shrink is
            reported as an error rather than a hang.
        tag: ledger label prefix.

    Returns:
        ShrinkOutcome; ``runtime.report`` accumulates the per-round costs.
    """
    n = int(succ.size)
    if n == 0:
        return ShrinkOutcome(
            alive=np.zeros(0, np.int64),
            succ=np.zeros(0, np.int64),
            length=np.zeros(0, np.float64),
        )
    probability = shrink_probability(n, delta)
    if max_rounds is None:
        max_rounds = 4 * int(np.ceil(1.0 / max(delta, 1e-9))) + 8

    alive = np.arange(n, dtype=np.int64)
    cur_succ = succ.astype(np.int64, copy=True)
    cur_len = (
        np.ones(n, dtype=np.float64)
        if weights is None
        else weights.astype(np.float64, copy=True)
    )
    forced_set = (
        np.zeros(0, dtype=np.int64)
        if forced is None
        else np.asarray(forced, dtype=np.int64)
    )
    history: list[AbsorbRound] = []
    rounds = 0
    rng = runtime.config.rng(salt=0x5581 + len(runtime.report.rounds))

    def reducible_count(ids: np.ndarray) -> int:
        # Elements that could still be absorbed: not a self-loop (a fully
        # contracted cycle) and not a forced survivor (a list head). These
        # irreducible elements are exactly the final structure's size
        # floor, so the stop condition compares against them.
        reducible = int(ids.size - np.count_nonzero(cur_succ[ids] == ids))
        if forced_set.size:
            reducible -= int(np.isin(forced_set, ids).sum())
        return reducible

    while reducible_count(alive) > target_size and rounds < max_rounds:
        rounds += 1
        sampled_mask = rng.random(alive.size) < probability
        if forced_set.size:
            sampled_mask |= np.isin(alive, forced_set)
        if not sampled_mask.any():
            # Force one sample: zero progress rounds would only stall.
            sampled_mask[int(rng.integers(0, alive.size))] = True
        samples = alive[sampled_mask]

        alive, cur_succ, cur_len, record = _shrink_round(
            runtime,
            alive=alive,
            samples=samples,
            succ=cur_succ,
            length=cur_len,
            tag=f"{tag}:{rounds}",
        )
        history.append(record)

    if reducible_count(alive) > target_size:
        raise RuntimeError(
            f"shrink did not reach target size {target_size} within "
            f"{max_rounds} rounds (still {alive.size} alive); "
            f"delta={delta} may be too small for n={n}"
        )
    return ShrinkOutcome(
        alive=alive,
        succ=cur_succ[alive],
        length=cur_len[alive],
        history=history,
        n_rounds=rounds,
    )


def _walk_all(g):
    """The fused machine program of a Shrink round (Algorithm 1 step 2;
    per-sample spec: ``repro.verify.specs.walk``).

    Advances every sample's walk in lockstep. Each walk issues the reads
    and writes of the sequential traversal, in its order: read succ and
    len of the start, then per step read smp of the frontier and, on a
    miss, write the absorb record and read len and succ of the frontier.
    Walk segments between samples are disjoint (successor structures have
    in-degree ≤ 1), so a machine's read cache would never hit during
    walks and the uncached batch reads charge what it would. Lockstep
    reorders only which walk moves first, never any walk's own operation
    sequence, which is all the ledger (and any real concurrent
    deployment) can see.
    """
    items = g.items
    owners = g.machines
    cur = g.read_array("succ", items, owner=owners, fill=TAIL).astype(
        np.int64
    )
    cum = g.read_array("len", items, owner=owners, fill=0.0).astype(
        np.float64
    )
    active = np.flatnonzero((cur != TAIL) & (cur != items))
    while active.size:
        frontier = cur[active]
        smp = g.read_array("smp", frontier, owner=owners[active], fill=0)
        walkers = active[smp == 0]
        if walkers.size == 0:
            break
        targets = cur[walkers]
        own = owners[walkers]
        g.write_array(
            "absorb",
            targets,
            np.column_stack(
                (items[walkers].astype(np.float64), cum[walkers])
            ),
            owner=own,
        )
        cum[walkers] += g.read_array("len", targets, owner=own, fill=0.0)
        nxt = g.read_array("succ", targets, owner=own, fill=TAIL).astype(
            np.int64
        )
        cur[walkers] = nxt
        active = walkers[(nxt != TAIL) & (nxt != items[walkers])]
    return cur, cum


def _shrink_round(
    runtime: AMPCRuntime,
    *,
    alive: np.ndarray,
    samples: np.ndarray,
    succ: np.ndarray,
    length: np.ndarray,
    tag: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, AbsorbRound]:
    """One adaptive Shrink round on the runtime; returns the contraction."""
    setup_arrays = [
        ("succ", alive, succ[alive]),
        ("len", alive, length[alive]),
        ("smp", samples, np.ones(samples.size, dtype=np.int64)),
    ]
    result = runtime.round_batch(
        samples, _walk_all, setup_arrays=setup_arrays, fused=True, tag=tag
    )
    nxt, cum = result.results

    new_succ = succ.copy()
    new_len = length.copy()
    new_succ[samples] = nxt
    new_len[samples] = cum

    ids, vals = result.store.read_namespace("absorb")
    vals = vals.reshape(-1, 2)  # an empty harvest comes back 1-D
    record = AbsorbRound(
        absorbed=ids.astype(np.int64, copy=True),
        absorber=vals[:, 0].astype(np.int64),
        offset=vals[:, 1].astype(np.float64),
    )

    # Survivors: everything not absorbed — the samples, plus elements of
    # structures no walk touched (unsampled cycles keep their pointers).
    alive_mask = np.zeros(succ.size, dtype=bool)
    alive_mask[alive] = True
    alive_mask[record.absorbed] = False
    new_alive = np.flatnonzero(alive_mask).astype(np.int64)
    return new_alive, new_succ, new_len, record


def fill_back(
    runtime: AMPCRuntime,
    history: list[AbsorbRound],
    values: np.ndarray,
    *,
    additive: bool,
    tag: str = "fill-back",
) -> np.ndarray:
    """Propagate per-element values from survivors to absorbed elements.

    Runs one adaptive round per shrink level, newest level first — the
    reverse pass of Algorithm 11 (step 4). With ``additive=True`` the value
    of an absorbed element is ``value(absorber) + offset`` (list ranking);
    with ``additive=False`` it is ``value(absorber)`` (component labels,
    Algorithm 10).

    Args:
        runtime: runtime to execute rounds on.
        history: the ShrinkOutcome history.
        values: dense float array over the element ids, NaN where an
            element has no value yet. Absorbers' values must be derivable
            level by level; survivors of the final round seed it.
        additive: add the stored offset (rank semantics) or copy (labels).
        tag: ledger label prefix.

    Returns:
        A copy of ``values`` with the value of every element ever absorbed
        filled in.

    Raises:
        KeyError: a level's absorber has no value yet (its id is the
            argument) — the history and the seeds do not belong together.
    """
    out = np.array(values, dtype=np.float64)
    config = runtime.config
    # Whole machines per group, about KEY_SLICE items' worth at S items
    # a machine.
    per_group = max(1, KEY_SLICE // config.space)
    for level in range(len(history) - 1, -1, -1):
        record = history[level]
        if record.absorbed.size == 0:
            runtime.charge(f"{tag}:{level}", rounds=1)
            continue

        is_needed = np.zeros(out.size, dtype=bool)
        is_needed[record.absorber] = True
        needed = np.flatnonzero(is_needed)
        del is_needed
        base = out[needed]
        unknown = needed[np.isnan(base)]
        if unknown.size:
            raise KeyError(int(unknown[0]))
        pairs = np.column_stack(
            (record.absorber.astype(np.float64), record.offset)
        )
        # Read-only: the store keeps them instead of a copy.
        for array in (needed, base, pairs):
            array.flags.writeable = False
        setup_arrays = [
            ("val", needed, base), ("abs", record.absorbed, pairs)
        ]
        result = runtime.round_batch(
            record.absorbed,
            _fill_all(additive, needed, base, per_group),
            setup_arrays=setup_arrays, fused=True, tag=f"{tag}:{level}",
        )
        out[record.absorbed] = result.results
    return out


def _fill_all(
    additive: bool,
    needed: np.ndarray,
    base: np.ndarray,
    per_group: int,
):
    """The fused machine program of one :func:`fill_back` level
    (per-element spec: ``repro.verify.specs.fill``).

    Every absorbed element reads its ``abs`` record (absorber, offset);
    the machines then settle the ``val`` reads with one replayed-read
    charge — each machine pays once for each distinct absorber, as its
    read cache would — and replay the values from ``(needed, base)``,
    the round's staged ``val`` column. Elements go through in groups of
    ``per_group`` whole machines, which bounds the batch temporaries; a
    machine never spans two groups, so the per-group charge
    de-duplicates exactly.
    """

    def fill_all(gctx):
        items, machines = gctx.items, gctx.machines
        out = None
        for idx in _machine_groups(machines, per_group):
            own = machines[idx]
            data = gctx.read_array("abs", items[idx], owner=own, fill=0.0)
            if out is None:
                # After the first lookup, which builds the abs index.
                out = np.empty(items.size, dtype=np.float64)
            absorbers = data[:, 0].astype(np.int64)
            gctx.charge_replayed_reads(
                "val", absorbers, np.ones(absorbers.size, dtype=np.int8),
                owner=own,
            )
            value = base[np.searchsorted(needed, absorbers)]
            if additive:
                value += data[:, 1]
            out[idx] = value
        return out

    return fill_all


def _machine_groups(
    machines: np.ndarray, per_group: int
) -> Iterator[np.ndarray]:
    """Indices of the items of machines ``[k * per_group, (k + 1) *
    per_group)`` for each k that has items, in item order within a
    group."""
    narrow = int(machines.max()) < 1 << 16
    group = machines.astype(np.uint16 if narrow else np.int64)
    group //= per_group
    # Few distinct keys: a stable sort of them is a radix sort.
    order = np.argsort(group, kind="stable")
    stops = np.cumsum(np.bincount(group))
    del group
    start = 0
    for stop in stops.tolist():
        if stop > start:
            yield order[start:stop]
        start = stop


def filled_ints(values: np.ndarray) -> np.ndarray:
    """A finished :func:`fill_back` array of whole numbers (ranks, element
    labels) as int64; raises if any element was left without a value."""
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        raise RuntimeError(f"element {int(missing[0])} received no value")
    return np.rint(values).astype(np.int64)
