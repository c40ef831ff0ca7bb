"""Sharded round execution with a deterministic journal-and-replay merge.

How a parallel round runs
-------------------------

1. The round pipeline (:mod:`repro.core.runtime`) has staged the stores
   and assigned the items; this module groups them by machine with the
   serial loop's own :func:`~repro.core.machine.group_by_machine` and
   cuts the group list into contiguous shards of roughly equal item
   counts.
2. The sealed read store is exported into shared memory
   (:mod:`repro.parallel.shm`) and each shard ships to a pool worker
   along with the encoded round worker and its work items.
3. Each pool worker runs the *real* machine programs — through the
   serial loop's block runners, :func:`~repro.core.machine.run_items` /
   :func:`~repro.core.machine.run_block` — against a shadow read store
   (zero-copy views of the parent's arrays) and a
   :class:`~repro.core.machine._JournalStore` in place of the next store:
   writes pass the real store's validators, then are journaled. Charged
   reads are journaled too (:class:`~repro.core.hooks.OpRecorder`), into
   the same per-machine op list, so the journal preserves the machine's
   true read/write interleaving.
4. The parent merges in ascending machine order — which is exactly the
   serial execution order — replaying each machine's journal: observer
   hooks fire through the real :class:`~repro.core.hooks.ObserverFan`,
   writes apply through the *real* next store (advancing its counters
   naturally), shadow-store read counters merge back as integer deltas,
   and outputs are scattered by the serial loop's
   :class:`~repro.core.machine.OutputCollector`. The pipeline then
   finishes the round exactly as it would a serial one.

Because machine placement, per-machine op order, merge order, and every
counter reduction are independent of which OS worker ran which shard,
results, per-round cost ledgers, and trace digests are bit-identical to
the serial backend. On the *error* path — a worker raises (strict-mode
budget breach, protocol violation) — the parent re-raises the
lowest-machine error, the one the serial loop would have hit first, and
the pipeline aborts the round either way.

Replayed per-op hooks observe the context's wiring and identity exactly
as the serial path; budget counters are finalized before
``on_machine_end`` fires (the point where the tracer and metrics snapshot
usage), not incremented per-op during replay.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.cost import merge_shard_counters
from repro.core.dds import DistributedDataStore
from repro.core.errors import RoundProtocolError
from repro.core.hooks import OpRecorder
from repro.core.machine import (
    MachineContext,
    OutputCollector,
    _JournalStore,
    _replay_ops,
    group_by_machine,
    run_block,
    run_items,
    take_items,
)
from repro.core.runtime import BatchRoundContext, check_fused_rows

from .pool import CallableShipError, decode_callable, encode_callable, get_pool
from .shm import ShmArena, attach_store, export_store

__all__ = [
    "run_scalar_round",
    "run_block_round",
    "run_fused_round",
    "TASKS",
]


class _JournalBatchContext(BatchRoundContext):
    """Worker-side fused context: replayed-read charges go to the op
    journal uncharged. A machine's items may straddle shards, and a
    machine pays for each distinct key once over *all* its items, so
    only the parent — merging every shard's ranges — can de-duplicate
    and charge them (:func:`_replay_fused_ops`).

    The parent holds every shard's journal at once, so the ranges are
    journaled narrow: owners as uint16 when the machine ids fit, starts
    as int32 when they fit, lengths at the caller's dtype. The merge
    re-widens them (:func:`~repro.core.runtime.distinct_ranges`)."""

    __slots__ = ("ops",)

    def __init__(self, *args: Any, ops: list) -> None:
        super().__init__(*args)
        self.ops = ops

    def charge_replayed_reads(
        self, namespace: str, starts: np.ndarray, lengths: np.ndarray, *,
        owner: np.ndarray, rows: np.ndarray | None = None,
    ) -> None:
        starts = np.asarray(starts)
        narrow = starts.size == 0 or int(starts.max()) < 2**31
        self.ops.append((
            "rr", namespace,
            starts.astype(np.int32 if narrow else np.int64),
            np.array(lengths),
            np.asarray(owner).astype(
                np.uint16 if self.config.n_machines <= 1 << 16
                else np.int64
            ),
            None if rows is None else np.array(rows, dtype=np.int64),
        ))


# ---------------------------------------------------------------------------
# worker-side tasks (run in pool processes; see pool.TASKS dispatch)
# ---------------------------------------------------------------------------


def _store_reads(store: DistributedDataStore) -> dict:
    """A shard's read traffic on its shadow store, for the parent's
    :func:`_merge_store_reads`."""
    return {
        "n_reads": store.n_reads,
        "server_reads": store._server_reads,
    }


def _task_machine_shard(payload: dict) -> dict:
    """Run a contiguous range of machines' programs against the shadow
    store; journal their ops; ship results + counters back."""
    store, handles = attach_store(payload["store"])
    try:
        worker = decode_callable(payload["worker"])
        config = payload["config"]
        record_reads = payload["record_reads"]
        run = run_items if payload["per_item"] else run_block
        machine_records = []
        for mid, block in payload["machines"]:
            ops: list = []
            journal = _JournalStore(store.max_words, ops)
            ctx = MachineContext(mid, config, store, journal)
            if record_reads:
                recorder = OpRecorder(ops)
                ctx.observer = recorder
                ctx.batch_observer = recorder
            machine_records.append(
                {
                    "ops": ops,
                    "outs": run(ctx, worker, block),
                    "reads": ctx.reads_used,
                    "writes": ctx.writes_used,
                    "rv": ctx.read_violation,
                    "wv": ctx.write_violation,
                }
            )
        return {
            "machines": machine_records,
            **_store_reads(store),
        }
    finally:
        handles.close()


def _task_fused_shard(payload: dict) -> dict:
    """Run the fused worker over a contiguous item range; journal its
    batch ops; ship the per-machine budget arrays and output columns."""
    store, handles = attach_store(payload["store"])
    try:
        worker = decode_callable(payload["worker"])
        work = payload["work"]
        ops: list = []
        journal = _JournalStore(store.max_words, ops)
        gctx = _JournalBatchContext(
            payload["config"],
            store,
            journal,
            work,
            payload["assignment"],
            OpRecorder(ops) if payload["record_reads"] else None,
            ops=ops,
        )
        out = worker(gctx) if work.size else None
        if out is None:
            outs = None
        else:
            cols = [
                np.asarray(c)
                for c in (out if isinstance(out, tuple) else (out,))
            ]
            outs = (isinstance(out, tuple), cols)
            # Row-count validation happens parent-side against the full
            # item count (the serial path's error message); charging the
            # publication writes here keeps the shard's budget arrays
            # complete for the counter merge.
            gctx.charge_publications()
        return {
            "ops": ops,
            "outs": outs,
            "reads_used": gctx.reads_used,
            "writes_used": gctx.writes_used,
            **_store_reads(store),
        }
    finally:
        handles.close()


#: Task registry dispatched by name in pool workers (only payloads cross
#: the pipe for framework code).
TASKS: dict[str, Callable[[dict], dict]] = {
    "machine_shard": _task_machine_shard,
    "fused_shard": _task_fused_shard,
}


# ---------------------------------------------------------------------------
# parent-side sharding, dispatch, and deterministic merge
# ---------------------------------------------------------------------------


def _record_reads(runtime: Any) -> bool:
    """Whether workers must journal read events for observer replay."""
    fan = runtime._fan
    return fan is not None and (
        fan.any_machine_scalar_hooks or fan.any_machine_batch_hooks
    )


def _dumps(payload: dict) -> bytes:
    """Pre-pickle a shard payload in the parent, so unpicklable work
    items surface as a serial fallback instead of a broken pipe."""
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CallableShipError(
            f"round payload could not be shipped to the process backend: {exc}"
        ) from exc


def _split_contiguous(weights: Sequence[int], n_shards: int) -> list[tuple[int, int]]:
    """Cut ``range(len(weights))`` into <= n_shards contiguous, nonempty
    spans of roughly equal total weight (greedy prefix walk)."""
    n = len(weights)
    n_shards = max(1, min(n_shards, n))
    total = float(sum(weights))
    bounds: list[tuple[int, int]] = []
    start = 0
    left = n_shards
    remaining = total
    while left > 0:
        # Every shard still to come must get at least one group.
        max_end = n - (left - 1)
        target = remaining / left
        end = start + 1
        acc = weights[start]
        while end < max_end and acc < target:
            acc += weights[end]
            end += 1
        bounds.append((start, end))
        remaining -= acc
        start = end
        left -= 1
        if start >= n:
            break
    return bounds


def _even_ranges(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """<= n_shards contiguous nonempty item ranges covering ``n_items``."""
    n_shards = max(1, min(n_shards, n_items))
    base, extra = divmod(n_items, n_shards)
    bounds = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _merge_store_reads(read_store: DistributedDataStore, res: dict) -> None:
    """Fold a shard's shadow-store read deltas into the real read store."""
    read_store.n_reads += res["n_reads"]
    read_store._server_reads += res["server_reads"]


def _replay_machine(
    runtime: Any,
    read_store: DistributedDataStore,
    next_store: DistributedDataStore,
    mid: int,
    mrec: dict,
    worker_idx: int,
) -> MachineContext:
    """Rebuild one machine's round against the real stores: start hook,
    journaled ops, shipped counters, end hook."""
    fan = runtime._fan
    ctx = runtime._context(mid, read_store, next_store)
    ctx.worker_id = worker_idx
    if fan is not None:
        fan.on_machine_start(ctx)
    _replay_ops(fan, ctx, next_store, mrec["ops"])
    ctx.reads_used = mrec["reads"]
    ctx.writes_used = mrec["writes"]
    ctx.read_violation = mrec["rv"]
    ctx.write_violation = mrec["wv"]
    if fan is not None:
        fan.on_machine_end(ctx)
    return ctx


def _dispatch_shards(
    runtime: Any,
    read_store: DistributedDataStore,
    task_name: str,
    build_payload: Callable[[dict, tuple[int, int]], dict],
    bounds: list[tuple[int, int]],
    machines_in: Callable[[tuple[int, int]], int],
) -> tuple[list[dict], list[int]]:
    """Export the store, ship one payload per shard, collect results.

    Returns ``(shard_results, worker_of)`` where ``worker_of[i]`` is the
    worker that ran shard ``i``, or :data:`~repro.parallel.pool.PARENT`
    when the parent re-ran it. The shm arena lives exactly as long as
    the shards need it — unlinked on every exit path, including worker
    exceptions. When a ``process_fault_plan`` that injects anything is
    armed, the pool injects that plan's real process faults under its
    short deadline. Every shard whose worker was lost is queued for this
    round's ledger as ``machines_in(span)`` crashed machines and its
    recovery wall time — also when the pool raises, so a round that
    falls back to the serial loop still accounts for its lost workers.
    """
    pool = get_pool(runtime.resolved_workers())
    plan = runtime.process_fault_plan
    faults = (
        None if plan is None or plan.is_null
        else plan.bind(runtime._round_counter)
    )
    lost: dict[int, float] = {}
    try:
        with ShmArena() as arena:
            export = export_store(read_store, arena)
            blobs = [_dumps(build_payload(export, span)) for span in bounds]
            outcome = pool.run_tasks(task_name, blobs, faults=faults,
                                     lost=lost)
    finally:
        for index, wall_s in lost.items():
            runtime._lost_shards.append((machines_in(bounds[index]), wall_s))
    return outcome.results, outcome.worker_of


def _run_machine_shards(
    runtime: Any,
    read_store: DistributedDataStore,
    next_store: DistributedDataStore,
    work: Sequence[Any],
    assignment: np.ndarray,
    worker: Callable[..., Any],
    per_item: bool,
) -> tuple[Any, list[MachineContext]]:
    """Shard a per-item or per-block round's machine groups over the
    pool and merge the journals back in the serial visiting order.

    Returns ``(results, contexts)`` exactly as the serial loop would:
    the same grouping, the same block runner (in the pool task), the
    same output collector.
    """
    encoded = encode_callable(worker)
    record_reads = _record_reads(runtime)
    groups = group_by_machine(assignment, as_lists=per_item)
    bounds = _split_contiguous(
        [len(idx) for _, idx in groups], runtime.resolved_workers()
    )

    def build_payload(export: dict, span: tuple[int, int]) -> dict:
        return {
            "store": export,
            "config": runtime.config,
            "worker": encoded,
            "record_reads": record_reads,
            "per_item": per_item,
            "machines": [
                (mid, take_items(work, idx))
                for mid, idx in groups[span[0]:span[1]]
            ],
        }

    shard_results, worker_of = _dispatch_shards(
        runtime, read_store, "machine_shard", build_payload, bounds,
        lambda span: span[1] - span[0],
    )
    collector = OutputCollector(len(work), per_item)
    contexts = []
    for (start, end), res, worker_idx in zip(bounds, shard_results, worker_of):
        _merge_store_reads(read_store, res)
        for (mid, idx), mrec in zip(groups[start:end], res["machines"]):
            contexts.append(
                _replay_machine(
                    runtime, read_store, next_store, mid, mrec, worker_idx
                )
            )
            collector.add(idx, mrec["outs"])
    return collector.results(), contexts


def run_scalar_round(
    runtime: Any,
    read_store: DistributedDataStore,
    next_store: DistributedDataStore,
    work: Sequence[Any],
    assignment: np.ndarray,
    worker: Callable[..., Any],
) -> tuple[list[Any], list[MachineContext]]:
    """Process-backend execution of the per-item program shape
    (:meth:`AMPCRuntime.round`'s work/worker path).

    Raises :class:`CallableShipError` when the worker or its items
    cannot be shipped; the runtime falls back to the serial loop.
    """
    return _run_machine_shards(
        runtime, read_store, next_store, work, assignment, worker, True
    )


def run_block_round(
    runtime: Any,
    read_store: DistributedDataStore,
    next_store: DistributedDataStore,
    work: np.ndarray,
    assignment: np.ndarray,
    worker: Callable[..., Any],
) -> tuple[Any, list[MachineContext]]:
    """Process-backend execution of the per-block program shape (the
    non-fused ``round_batch`` path)."""
    return _run_machine_shards(
        runtime, read_store, next_store, work, assignment, worker, False
    )


def run_fused_round(
    runtime: Any,
    read_store: DistributedDataStore,
    next_store: DistributedDataStore,
    work: np.ndarray,
    assignment: np.ndarray,
    worker: Callable[..., Any],
) -> tuple[Any, list[Any]]:
    """Process-backend execution of the fused program shape.

    Shards are contiguous *item* ranges; every shard runs the same fused
    program over its slice, so the per-shard batch-op streams are
    positionally aligned slices of the serial op stream. The merge
    re-concatenates each position's arrays in shard order, recovering
    the serial event granularity exactly. Data-dependent control flow
    that diverges across shards is detected (kind/namespace mismatch at
    a stream position) and rejected with a pointer at the serial
    backend. Returns ``(results, per-machine ledgers)``.
    """
    encoded = encode_callable(worker)
    record_reads = _record_reads(runtime)
    fan = runtime._fan
    n_items = work.size
    bounds = _even_ranges(n_items, runtime.resolved_workers())

    def build_payload(export: dict, span: tuple[int, int]) -> dict:
        s, e = span
        return {
            "store": export,
            "config": runtime.config,
            "worker": encoded,
            "record_reads": record_reads,
            "work": work[s:e],
            "assignment": assignment[s:e],
        }

    shard_results, worker_of = _dispatch_shards(
        runtime, read_store, "fused_shard", build_payload, bounds,
        lambda span: int(np.count_nonzero(
            np.bincount(assignment[span[0]:span[1]])
        )),
    )
    for res in shard_results:
        _merge_store_reads(read_store, res)
    reads, writes = merge_shard_counters(
        [(res["reads_used"], res["writes_used"]) for res in shard_results]
    )

    gctx = runtime._fused_context(read_store, next_store, work, assignment)
    gctx.worker_ids = list(worker_of)
    if fan is not None:
        fan.on_machine_start(gctx)
    _replay_fused_ops(
        fan, gctx, next_store, [res["ops"] for res in shard_results]
    )

    outs = [res["outs"] for res in shard_results]
    results: Any = None
    if any(o is not None for o in outs):
        first = next(o for o in outs if o is not None)
        n_cols = len(first[1])
        if any(o is None or len(o[1]) != n_cols for o in outs):
            raise RoundProtocolError(
                "fused round_batch worker diverged across shards (some "
                "returned output columns, some did not); run this round "
                "with backend='serial'"
            )
        cols = [
            np.concatenate([o[1][c] for o in outs]) for c in range(n_cols)
        ]
        results = tuple(cols) if first[0] else cols[0]
        check_fused_rows(results, n_items)

    # The replay charged the replayed reads; add the shards' own charges.
    # Budget use is monotone within a round, so a serial run's latched
    # over-budget flag is exactly ``final total > budget``.
    gctx.reads_used += reads
    gctx.writes_used += writes
    gctx._read_over[:] = gctx.reads_used > runtime.config.read_budget
    gctx._write_over[:] = gctx.writes_used > runtime.config.write_budget
    if fan is not None:
        fan.on_machine_end(gctx)
    return results, gctx.ledgers()


def _replay_fused_ops(
    fan: Any,
    gctx: Any,
    next_store: DistributedDataStore,
    shard_ops: list[list],
) -> None:
    """Merge positionally-aligned shard op streams into serial-granularity
    events: one hook dispatch / one store write per original batch op,
    with each op's arrays re-concatenated in shard (= item) order. A
    replayed-read charge (``"rr"``) is re-concatenated likewise and then
    charged through the parent's context, which de-duplicates it per
    machine across every shard exactly as the serial run does."""
    batch_hooks = fan is not None and fan.any_machine_batch_hooks
    depth = max((len(ops) for ops in shard_ops), default=0)
    for position in range(depth):
        live = [ops[position] for ops in shard_ops if len(ops) > position]
        kind, namespace = live[0][0], live[0][1]
        if kind in ("w", "r"):
            raise RoundProtocolError(
                f"unexpected scalar op {kind!r} in a fused round journal"
            )
        for op in live[1:]:
            if op[0] != kind or op[1] != namespace:
                raise RoundProtocolError(
                    "fused round_batch worker diverged across process-"
                    "backend shards (data-dependent op streams); run this "
                    "round with backend='serial'"
                )
        ids = np.concatenate([op[2] for op in live])
        if kind == "rr":
            gctx.charge_replayed_reads(
                namespace, ids,
                np.concatenate([op[3] for op in live]),
                owner=np.concatenate([op[4] for op in live]),
                rows=None if live[0][5] is None
                else np.concatenate([op[5] for op in live]),
            )
        elif kind == "wa":
            if batch_hooks:
                fan.on_machine_write_batch(gctx, namespace, ids)
            next_store.write_array(
                namespace, ids, np.concatenate([op[3] for op in live])
            )
        elif batch_hooks:  # "rb"
            fan.on_machine_read_batch(gctx, namespace, ids)
