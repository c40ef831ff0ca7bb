"""Sharded round execution with a deterministic journal-and-replay merge.

How a parallel round runs
-------------------------

Only per-item and per-block rounds shard. A fused round (``round_batch(...,
fused=True)``) advances every machine in one lockstep program; on the
process backend it runs in the parent exactly as on serial, because no
fused-only solve was measured to gain from item-range shards
(``docs/perf.md``).

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

from repro.core.dds import DistributedDataStore
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

from .pool import CallableShipError, decode_callable, encode_callable, get_pool
from .shm import ShmArena, attach_store, export_store

__all__ = [
    "run_scalar_round",
    "run_block_round",
    "run_fused_round",
    "TASKS",
]


# ---------------------------------------------------------------------------
# worker-side tasks (run in pool processes; see pool.TASKS dispatch)
# ---------------------------------------------------------------------------


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
        # The shard's read traffic on its shadow store, for the parent's
        # _merge_store_reads.
        return {
            "machines": machine_records,
            "n_reads": store.n_reads,
            "server_reads": store._server_reads,
        }
    finally:
        handles.close()


#: Task registry dispatched by name in pool workers (only payloads cross
#: the pipe for framework code).
TASKS: dict[str, Callable[[dict], dict]] = {
    "machine_shard": _task_machine_shard,
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
    common: dict,
    shards: list[list],
) -> tuple[list[dict], list[int]]:
    """Export the store, ship one ``machine_shard`` payload per shard
    (``common`` plus the shard's ``(machine, items)`` list), collect
    the results.

    Returns ``(shard_results, worker_of)`` where ``worker_of[i]`` is the
    worker that ran shard ``i``, or :data:`~repro.parallel.pool.PARENT`
    when the parent re-ran it. The shm arena lives exactly as long as
    the shards need it — unlinked on every exit path, including worker
    exceptions. When a ``process_fault_plan`` that injects anything is
    armed, the pool injects that plan's real process faults under its
    short deadline. Every shard whose worker was lost is queued for this
    round's ledger as crashes of its machines and its recovery wall time
    — also when the pool raises, so a round that falls back to the
    serial loop still accounts for its lost workers.
    """
    pool = get_pool(runtime.n_workers)
    plan = runtime.process_fault_plan
    faults = (
        None if plan is None or plan.is_null
        else plan.bind(runtime._round_counter)
    )
    lost: dict[int, float] = {}
    try:
        with ShmArena() as arena:
            export = export_store(read_store, arena)
            blobs = [_dumps({**common, "store": export, "machines": shard})
                     for shard in shards]
            outcome = pool.run_tasks("machine_shard", blobs, faults=faults,
                                     lost=lost)
    finally:
        for index, wall_s in lost.items():
            runtime._lost_shards.append((len(shards[index]), wall_s))
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
    groups = group_by_machine(assignment, as_lists=per_item)
    bounds = _split_contiguous(
        [len(idx) for _, idx in groups], runtime.n_workers
    )
    common = {
        "config": runtime.config,
        "worker": encode_callable(worker),
        "record_reads": _record_reads(runtime),
        "per_item": per_item,
    }
    shards = [
        [(mid, take_items(work, idx)) for mid, idx in groups[start:end]]
        for start, end in bounds
    ]
    shard_results, worker_of = _dispatch_shards(
        runtime, read_store, common, shards
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
    """Process-backend execution of the fused program shape: the round
    runs in the parent, exactly as on serial — no fused-only solve was
    measured to gain from shards (``docs/perf.md``). It never touches
    the pool."""
    return runtime._run_machines(
        "fused", work, worker, assignment, read_store, next_store
    )
