"""The AMPC runtime: rounds, stores, machines, and cost accounting.

Execution model (paper §2): computation proceeds in rounds. In round i every
machine may issue up to O(S) *adaptive* reads against the sealed store
D_{i-1} and up to O(S) writes into D_i; D_i is sealed at the round boundary.
The runtime realizes this with one :class:`~repro.core.dds.DistributedDataStore`
per round and one :class:`~repro.core.machine.MachineContext` per active
machine per round.

Driver pattern
--------------

Algorithms are written as *drivers*: plain Python that orchestrates rounds.
A driver calls :meth:`AMPCRuntime.round` with

* ``setup`` — key-value pairs the machines will read this round. In a real
  deployment these were written by machines during the previous round; the
  runtime charges them as (distributed) writes of this round's record.
* ``work`` + ``worker`` — the work items (vertices, samples, list elements),
  randomly partitioned over machines exactly like the paper's "randomly
  distribute the vertices to the machines", and the per-item program. The
  worker's return value is collected for the driver and charged as one write
  (result publication).

Steps the paper treats as standard MPC primitives (sorting, duplicate
removal, broadcasts; §3) are performed driver-side with vectorized numpy and
charged via :meth:`AMPCRuntime.charge` with a documented round cost. The
ledger (:class:`~repro.core.cost.RunReport`) therefore reflects the model
costs — rounds, communication, per-machine maxima, DDS contention — even
though the simulator is a single process.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.parallel import BACKENDS, autodetect_workers

from .config import AMPCConfig
from .cost import RoundStats, RunReport
from .dds import KEY_SLICE, DistributedDataStore
from .errors import BudgetExceededError, RoundProtocolError
from .hooks import ObserverFan
from .machine import (
    MachineContext,
    MPCMachineContext,
    OutputCollector,
    group_by_machine,
    run_block,
    run_items,
    take_items,
)
from .partition import machine_of, partition_items

Pairs = Iterable[tuple[Hashable, Any]]

# The three calling conventions of a machine program (see _run_round).
_PER_ITEM, _PER_BLOCK, _FUSED = "per-item", "per-block", "fused"

_NO_ITEMS = np.empty(0, dtype=np.int64)


def check_fused_rows(out: Any, n_items: int) -> None:
    """Require one output row per work item from a fused worker."""
    for col in out if isinstance(out, tuple) else (out,):
        if len(col) != n_items:
            raise RoundProtocolError(
                f"fused round_batch worker returned {len(col)} "
                f"rows for {n_items} work items"
            )


def distinct_ranges(
    owner: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-owner union of the id ranges ``[starts[i], starts[i] +
    lengths[i])`` (nonnegative ids): ``(owner, starts, lengths, rows)``
    of disjoint nonempty int64 ranges, sorted by owner, then start, and
    ``rows`` None.

    With ``rows``, range i holds the slots of row ``rows[i]`` (keys
    ``(row, slot)``): ranges are united per (owner, row), sorted by
    owner, row, then start, and each keeps its row."""
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        stride = int(rows.max()) + 1 if rows.size else 1
        pair = np.asarray(owner, dtype=np.int64) * stride
        pair += rows
        pair, starts, lengths, _ = distinct_ranges(pair, starts, lengths)
        owner, rows = np.divmod(pair, stride)
        return owner, starts, lengths, rows
    owner, starts, lengths = (
        np.asarray(col) for col in (owner, starts, lengths)
    )
    if owner.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, None
    # One sort key per range: owner-major, and wide enough that ranges of
    # different owners can never touch. Built in place: the inputs can
    # hold a whole round's ranges.
    width = int(lengths.max()) + 1
    span = int(starts.max()) + width
    lo = owner.astype(np.int64)
    lo *= span
    lo += starts
    if (int(owner.max()) + 1) * span * width <= np.iinfo(np.int64).max:
        # The length rides in the key's low digits: one in-place sort.
        lo *= width
        lo += lengths
        lo.sort()
        reach = lo % width
        lo //= width
    else:
        order = np.argsort(lo)
        lo = lo[order]
        reach = lengths[order].astype(np.int64)
        del order
    reach += lo
    np.maximum.accumulate(reach, out=reach)
    head = np.ones(lo.size, dtype=bool)
    np.greater(lo[1:], reach[:-1], out=head[1:])
    first = np.flatnonzero(head)
    del head
    # reach only grows, so each merged range ends at its group's maximum.
    hi = np.maximum.reduceat(reach, first)
    del reach
    lo = lo[first]
    hi -= lo
    # Empty input ranges only survive as empty merged ones.
    nonempty = hi > 0
    if not nonempty.all():
        lo, hi = lo[nonempty], hi[nonempty]
    owner = lo // span
    lo -= owner * span
    return owner, lo, hi, None


def expand_ranges(
    starts: np.ndarray,
    lengths: np.ndarray,
    size: int,
    rows: np.ndarray | None = None,
) -> Iterator[list[np.ndarray]]:
    """The keys of the concatenated ranges ``[starts[i], starts[i] +
    lengths[i])``, in slices of at most ``size`` keys (bounded memory
    whatever the ranges' total). Each slice is its keys' columns after
    the namespace: ``[ids]``, or ``[rows, slots]`` for slot ranges of
    ``rows``."""
    stops = np.cumsum(lengths)
    # flat position p of range r holds id p + shift[r].
    shift = starts - (stops - lengths)
    total = int(stops[-1]) if stops.size else 0
    for begin in range(0, total, size):
        end = min(begin + size, total)
        # The ranges r0:r1 meet this slice; clip the two at its ends.
        r0 = int(np.searchsorted(stops, begin, side="right"))
        r1 = int(np.searchsorted(stops, end - 1, side="right")) + 1
        counts = np.minimum(stops[r0:r1], end) - np.maximum(
            stops[r0:r1] - lengths[r0:r1], begin
        )
        flat = np.arange(begin, end, dtype=np.int64)
        flat += np.repeat(shift[r0:r1], counts)
        yield [flat] if rows is None else [
            np.repeat(rows[r0:r1], counts), flat
        ]


# ---------------------------------------------------------------------------
# observer plumbing (repro.verify invariants, repro.observe tracing/metrics)
# ---------------------------------------------------------------------------

# Observers registered here are attached to every runtime constructed while
# they are installed — the hook repro.verify.invariants and repro.observe
# use to watch runtimes that algorithms build internally. Kept as a
# module-level list so installation needs no knowledge of which runtime
# subclass an algorithm instantiates.
_GLOBAL_OBSERVERS: list[Any] = []


def install_observer(observer: Any) -> None:
    """Attach ``observer`` to every runtime constructed from now on.

    See :class:`repro.core.hooks.RuntimeObserver` for the hook interface;
    prefer the context-manager installers
    (:class:`repro.verify.invariants.InvariantSuite`,
    :class:`repro.observe.TracingSession`) over calling this directly.
    """
    _GLOBAL_OBSERVERS.append(observer)


def uninstall_observer(observer: Any) -> None:
    """Remove a previously installed observer (no-op if absent)."""
    try:
        _GLOBAL_OBSERVERS.remove(observer)
    except ValueError:
        pass


# The factories of the open use_runtime blocks, innermost last: the one
# ambient deployment setting. Backend, workers, replication and a fault
# plan are constructor arguments of the runtime a factory returns.
_FACTORIES: list[Callable[[AMPCConfig], "AMPCRuntime"]] = []


def new_runtime(config: AMPCConfig) -> "AMPCRuntime":
    """The runtime a solve runs on: ``factory(config)`` for the factory of
    the innermost :func:`use_runtime` block, else a serial
    :class:`AMPCRuntime`."""
    return (_FACTORIES[-1] if _FACTORIES else AMPCRuntime)(config)


@contextlib.contextmanager
def use_runtime(factory: Callable[[AMPCConfig], "AMPCRuntime"]) -> Iterator[None]:
    """Build every runtime the solves inside the ``with`` block construct
    as ``factory(config)``: how the CLI, the verify sweep and the tests
    run whole solves on the process backend or under a fault plan::

        with use_runtime(partial(AMPCRuntime, backend="process", n_workers=4)):
            repro.connectivity(graph)
        with use_runtime(lambda c: ChaosRuntime(c.with_replication(2), plan=plan)):
            repro.bc_labeling(graph)       # all four of its runtimes armed
    """
    _FACTORIES.append(factory)
    try:
        yield
    finally:
        _FACTORIES.pop()


class AMPCRuntime:
    """Simulated AMPC deployment executing one algorithm run.

    Args:
        config: deployment parameters (S, P, ε, budgets, seed).

    Attributes:
        report: the accumulating cost ledger.
        store: the currently-readable sealed store (D_{i-1}); None before
            bootstrap.
    """

    machine_context_cls = MachineContext

    def __init__(
        self,
        config: AMPCConfig,
        *,
        backend: str = "serial",
        n_workers: int | None = None,
    ) -> None:
        self.config = config
        self.report = RunReport()
        self._store: DistributedDataStore | None = None
        self._round_counter = 0
        self._store_counter = 0
        # Execution backend: "serial" (default) or "process" (shard each
        # per-item and per-block round's machines over a pool of forked
        # OS workers; see repro.parallel). A solve that builds its own
        # runtimes gets both from the factory installed by use_runtime.
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        # The worker count a parallel round uses: one per core (at most 8)
        # unless set.
        self.n_workers = (
            autodetect_workers() if n_workers is None else max(1, int(n_workers))
        )
        # Rounds that requested the process backend but ran serially
        # because their worker/payload could not be shipped to pool
        # workers. Diagnostic only — fallback rounds are bit-identical.
        self.parallel_fallbacks = 0
        # The process-fault plan under test (a chaos runtime's plan; None
        # = no injection), and this round's shards whose pool worker was
        # lost, as (machines, recovery wall seconds), folded into the
        # round's RoundStats by _record.
        self.process_fault_plan: Any = None
        self._lost_shards: list[tuple[int, float]] = []
        # Invariant observers (repro.verify): globally-installed observers
        # are picked up at construction; more can be attached per instance.
        self.observers: list[Any] = list(_GLOBAL_OBSERVERS)
        self._fan: ObserverFan | None = (
            ObserverFan(self.observers) if self.observers else None
        )
        for obs in self.observers:
            obs.on_runtime_created(self)

    def attach_observer(self, observer: Any) -> None:
        """Attach an observer (invariants, tracer, metrics) to this runtime."""
        self.observers.append(observer)
        if self._fan is None:
            self._fan = ObserverFan(self.observers)
        else:
            # The fan precomputes per-hook dispatch lists; a new observer
            # must be folded into them.
            self._fan.rebuild()
        observer.on_runtime_created(self)

    # ------------------------------------------------------------------
    # store lifecycle
    # ------------------------------------------------------------------

    @property
    def store(self) -> DistributedDataStore | None:
        """The sealed store machines would read from next (D_{i-1})."""
        return self._store

    def _new_store(self) -> DistributedDataStore:
        store = self._build_store(self._store_counter)
        self._store_counter += 1
        return store

    def _build_store(self, round_index: int) -> DistributedDataStore:
        """Construct one round store; chaos runtimes override this to
        produce replicated, fault-channel-aware stores."""
        return DistributedDataStore(
            round_index=round_index,
            n_servers=self.config.n_machines,
            seed=self.config.seed,
            max_words=self.config.max_words,
        )

    def checkpoint(self) -> "RoundCheckpoint":
        """Snapshot the driver-visible round state.

        Because the readable store is sealed (immutable for the rest of
        the run), the snapshot is O(1): it captures references, not
        copies — exactly the property §2.1 credits for MapReduce-style
        fault tolerance. Pair with :meth:`restore` to replay a round
        after a whole-round abort (e.g. more DDS servers lost than the
        replication factor covers).
        """
        checkpoint = RoundCheckpoint(
            store=self._store,
            round_counter=self._round_counter,
            store_counter=self._store_counter,
            report_length=len(self.report.rounds),
        )
        for obs in self.observers:
            obs.on_checkpoint(self, checkpoint)
        return checkpoint

    def restore(self, checkpoint: "RoundCheckpoint") -> None:
        """Roll the runtime back to a :meth:`checkpoint` snapshot.

        Restores the readable store and the round/store counters (so
        machine assignment and ledger indices replay identically) and
        truncates ledger entries recorded after the snapshot. Stores
        created since the checkpoint are simply dropped; nothing written
        to them is visible to any machine.
        """
        if checkpoint.store is not None and not checkpoint.store.sealed:
            raise RoundProtocolError(
                "cannot restore to a checkpoint of an unsealed store"
            )
        self._store = checkpoint.store
        self._round_counter = checkpoint.round_counter
        self._store_counter = checkpoint.store_counter
        del self.report.rounds[checkpoint.report_length:]
        # Observers (e.g. the tracer) must learn that the round in flight
        # was abandoned — its events will never see an on_round_end.
        for obs in self.observers:
            obs.on_restore(self, checkpoint)

    def _stage(
        self, pairs: Pairs | None, arrays: Iterable[tuple] | None
    ) -> tuple[DistributedDataStore, int]:
        """Stage a readable store: write scalar ``pairs`` and columnar
        ``arrays`` — ``(namespace, ids, values)`` triples or slotted
        ``(namespace, ids, slots, values)`` quadruples — into a fresh
        store and seal it. Returns the store and its write count."""
        store = self._new_store()
        count = 0
        if pairs is not None:
            count += store.write_many(pairs)
        if arrays is not None:
            for entry in arrays:
                store.write_array(
                    entry[0], entry[1], entry[-1],
                    slots=entry[2] if len(entry) == 4 else None,
                )
                count += len(entry[1])
        store.seal()
        return store, count

    def publish_state(
        self,
        *,
        pairs: Pairs | None = None,
        arrays: Iterable[tuple] | None = None,
        tag: str = "publish",
    ) -> "RoundCheckpoint":
        """Build + seal: publish driver state as the resident readable store.

        The first half of a serving deployment (:mod:`repro.serve`):
        write ``pairs`` (scalar key-values) and ``arrays`` (columnar
        ``(namespace, ids, values)`` triples or slotted
        ``(namespace, ids, slots, values)`` quadruples) into a fresh
        store, seal
        it, and make it the runtime's readable store. Charged as one
        publication round — every write counted, spread over the
        machines like :meth:`charge` — and the returned
        :class:`RoundCheckpoint` pins the sealed state so
        :meth:`query_round` can replay an unbounded request stream
        against it (same placement seed, same ledger indices: every
        query observes the state exactly as the first one did).
        """
        self._store, count = self._stage(pairs, arrays)
        per_machine = int(np.ceil(count / self.config.n_machines))
        self.charge_stats(self._stats(
            tag, "primitive", 1,
            total_writes=count,
            max_machine_writes=per_machine,
            n_machines_active=self.config.n_machines,
        ))
        return self.checkpoint()

    def query_round(
        self,
        work: Sequence[Any],
        worker: Callable[..., Any],
        *,
        resident: "RoundCheckpoint | None" = None,
        tag: str = "query",
        item_key: Callable[[Any], Hashable] | None = None,
    ) -> tuple["RoundResult", list[RoundStats]]:
        """One adaptive round against the resident store, without
        advancing the resident state.

        The second half of a serving deployment: runs a plain
        :meth:`round` (same random placement, budgets, and observer
        hooks), captures the ledger rows it recorded, then aborts the
        round back to ``resident`` (default: a checkpoint taken on
        entry) — on every exit path, so a tick whose worker raises
        leaves no read load or counter drift behind for the next one.
        Because the abort resets the round counter, the readable store
        and its read load, consecutive query rounds are mutually
        independent — each replays bit-identically to the first query
        a freshly built engine would execute, which is what lets a
        long-lived engine answer requests indefinitely while staying
        reproducible. Returns the round result together with the
        captured :class:`~repro.core.cost.RoundStats` rows (the
        per-request cost slice; the runtime's own report no longer
        holds them after the rollback, so callers accumulate them in a
        serving ledger of their own).
        """
        checkpoint = resident if resident is not None else self.checkpoint()
        try:
            result = self.round(work, worker, tag=tag, item_key=item_key)
            rows = self.report.rounds[checkpoint.report_length:]
        finally:
            self._abort(checkpoint)
        return result, rows

    def bootstrap(self, pairs: Pairs, tag: str = "bootstrap") -> None:
        """Load the input into D_0 (paper §2: "The input data is stored in
        D_0 and uses a set of keys known to all machines").

        Charged zero rounds — the input placement is given, not computed.
        """
        self._store, count = self._stage(pairs, None)
        self.report.add(self._stats(tag, "bootstrap", 0, total_writes=count))
        for obs in self.observers:
            obs.on_bootstrap(self, self._store, count)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------

    def round(
        self,
        work: Sequence[Any] | None = None,
        worker: Callable[..., Any] | None = None,
        *,
        setup: Pairs | None = None,
        per_machine: Callable[[MachineContext], Any] | None = None,
        machines: Sequence[int] | None = None,
        tag: str = "round",
        item_key: Callable[[Any], Hashable] | None = None,
    ) -> "RoundResult":
        """Execute one AMPC round.

        Exactly one of (``work`` + ``worker``) or ``per_machine`` must be
        given (or neither, for a pure data-publication round).

        Args:
            work: work items to distribute randomly over machines.
            worker: called as ``worker(ctx, item)`` for each item on its
                machine; return values are collected into
                ``RoundResult.results`` aligned with ``work``.
            setup: key-value pairs readable by the machines this round.
            per_machine: alternative to work/worker — called once per
                machine as ``per_machine(ctx)``; the non-None returns are
                collected in ``machines`` order.
            machines: machine ids to run ``per_machine`` on (default: all).
            tag: label for the cost ledger.
            item_key: optional projection of a work item to the hashable
                used for machine assignment (default: the item itself, or
                its first element if it is a tuple).

        Returns:
            RoundResult with per-item results, the new sealed store, and the
            recorded statistics.
        """
        if worker is not None and per_machine is not None:
            raise RoundProtocolError("give either work/worker or per_machine")
        if (work is None) != (worker is None):
            raise RoundProtocolError("work and worker must be given together")
        if per_machine is None:
            return self._run_round(
                _PER_ITEM, () if work is None else work, worker,
                setup=setup, tag=tag, item_key=item_key,
                placement=_NO_ITEMS if work is None else None,
            )
        # The per-item shape with one anonymous item per listed machine,
        # placed on that machine.
        placement = (
            np.arange(self.config.n_machines)
            if machines is None
            else np.asarray(machines, dtype=np.int64)
        )
        result = self._run_round(
            _PER_ITEM, placement.tolist(), lambda ctx, _: per_machine(ctx),
            setup=setup, tag=tag, placement=placement,
        )
        result.results = [out for out in result.results if out is not None]
        return result

    @property
    def parallel_capable(self) -> bool:
        """Whether the process backend preserves this runtime's semantics.

        True only for runtimes whose machines run the plain
        MachineContext against plain stores. Chaos runtimes with
        simulated faults additionally opt out — their crash RNG advances
        in machine execution order, which sharding would have to
        reproduce op-for-op to keep fault plans firing at identical
        operations; they run serially instead.
        """
        return self.machine_context_cls is MachineContext

    def round_batch(
        self,
        work: np.ndarray,
        worker: Callable[..., Any],
        *,
        setup: Pairs | None = None,
        setup_arrays: Iterable[tuple] | None = None,
        fused: bool = False,
        tag: str = "round",
    ) -> "RoundResult":
        """Execute one AMPC round on the vectorized engine.

        The model contract is the scalar :meth:`round`'s, with integer work
        items and array-shaped results: items are assigned to machines by
        the *same* seeded hash (so scalar and batch runs agree on
        placement), per-machine O(S) budgets are charged for every read and
        write, every result publication costs one write, and the new store
        seals at the round boundary.

        Args:
            work: 1-D integer array of work items.
            worker: with ``fused=False`` (default), called once per active
                machine as ``worker(ctx, block)`` where ``ctx`` is a
                :class:`~repro.core.machine.MachineContext` and ``block``
                the machine's items; must return None or an array (or tuple
                of arrays) with one row per block item — rows are scattered
                back into work order and each is charged one publication
                write. With ``fused=True``, called once as ``worker(gctx)``
                with a :class:`BatchRoundContext` advancing all machines in
                lockstep; must return None or (a tuple of) arrays with one
                row per work item. A fused program may use only
                ``gctx.items``, ``gctx.machines``, ``read_array``,
                ``write_array`` and ``charge_replayed_reads``: a chaos
                runtime runs it one machine at a time, through a context
                with only that surface. It runs in this process on every
                backend; only per-block programs shard over the process
                backend.
            setup: scalar key-value pairs readable this round (as in
                :meth:`round`).
            setup_arrays: columnar setup — an iterable (a list or a
                lazily-chunked generator) of ``(namespace, ids, values)``
                triples or slotted ``(namespace, ids, slots, values)``
                quadruples bulk-written into the readable store, charged
                like ``setup`` pairs.
            tag: label for the cost ledger.
        """
        work = np.asarray(work)
        if work.dtype.kind not in "iu":
            raise RoundProtocolError(
                f"round_batch work must be an integer array, got dtype "
                f"{work.dtype}"
            )
        work = work.astype(np.int64, copy=False)
        if work.ndim != 1:
            raise RoundProtocolError(
                f"round_batch work must be 1-D, got shape {work.shape}"
            )
        return self._run_round(
            _FUSED if fused else _PER_BLOCK, work, worker,
            setup=setup, setup_arrays=setup_arrays, tag=tag,
        )

    # ------------------------------------------------------------------
    # the round pipeline: stage, assign, group, run, collect, finish/abort
    # ------------------------------------------------------------------

    def _run_round(
        self,
        shape: str,
        work: Sequence[Any],
        worker: Callable[..., Any] | None,
        *,
        setup: Pairs | None = None,
        setup_arrays: Iterable[tuple] | None = None,
        tag: str,
        item_key: Callable[[Any], Hashable] | None = None,
        placement: np.ndarray | None = None,
    ) -> "RoundResult":
        """The one execution path behind :meth:`round` and
        :meth:`round_batch`.

        ``shape`` names the machine program's calling convention —
        per-item ``worker(ctx, item)``, per-block ``worker(ctx, block)``
        or fused ``worker(gctx)``. ``placement`` pins each item to a
        machine; without it items are placed by the seeded hash, and only
        such rounds may shard over the process backend.
        """
        start = time.perf_counter()
        entry = (
            self._store, self._round_counter, self._store_counter,
            len(self.report.rounds),
        )
        try:
            # Stage the readable store: driver setup, else the previous
            # round's data.
            if setup is None and setup_arrays is None and self._store is not None:
                read_store, setup_writes = self._store, 0
            else:
                read_store, setup_writes = self._stage(setup, setup_arrays)
            next_store = self._new_store()
            for obs in self.observers:
                obs.on_round_start(self, read_store, next_store)
            outcome = None
            if placement is None:
                placement = self._assign(work, item_key)
                outcome = self._dispatch(
                    shape, work, worker, placement, read_store, next_store
                )
            if outcome is None:
                outcome = self._run_machines(
                    shape, work, worker, placement, read_store, next_store
                )
            results, contexts = outcome

            # Finish.
            next_store.seal()
            self._store = next_store
            self._round_counter += 1
            stats = self._record(
                tag, contexts, read_store, setup_writes,
                time.perf_counter() - start,
            )
            for obs in self.observers:
                obs.on_round_end(self, stats, contexts, read_store, next_store)
        except BaseException:
            self._abort(RoundCheckpoint(*entry))
            raise
        return RoundResult(results=results, store=next_store, stats=stats)

    def _abort(self, checkpoint: "RoundCheckpoint") -> None:
        """The abort stage: leave the runtime and its readable store as
        if no round had run since ``checkpoint``.

        Besides :meth:`restore`, zero the read load the abandoned round
        put on the checkpointed store — the load histogram is absolute
        state, and the next round's contention row must read as if the
        store were freshly sealed (tick-vs-fresh bit-identity for
        :meth:`query_round`, replay-vs-clean for chaos) — and drop
        lost-shard tallies queued for a ledger row that will never exist.
        """
        self.restore(checkpoint)
        if checkpoint.store is not None:
            checkpoint.store.reset_read_load()
        self._lost_shards.clear()

    def _context(
        self,
        machine_id: int,
        read_store: DistributedDataStore,
        next_store: DistributedDataStore,
    ) -> MachineContext:
        """One machine's context for this round, wired to the observers."""
        ctx = self.machine_context_cls(
            machine_id, self.config, read_store, next_store
        )
        fan = self._fan
        if fan is not None:
            if fan.any_machine_scalar_hooks:
                ctx.observer = fan
            if fan.any_machine_batch_hooks:
                ctx.batch_observer = fan
        return ctx

    def _fused_context(
        self,
        read_store: DistributedDataStore,
        next_store: DistributedDataStore,
        work: np.ndarray,
        assignment: np.ndarray,
    ) -> "BatchRoundContext":
        """The whole-round context of a fused round, wired likewise."""
        fan = self._fan
        return BatchRoundContext(
            self.config, read_store, next_store, work, assignment,
            fan if fan is not None and fan.any_machine_batch_hooks else None,
        )

    def _dispatch(
        self,
        shape: str,
        work: Sequence[Any],
        worker: Callable[..., Any],
        assignment: np.ndarray,
        read_store: DistributedDataStore,
        next_store: DistributedDataStore,
    ) -> tuple[Any, list[Any]] | None:
        """Run the round's machines on the process backend.

        Returns what :meth:`_run_machines` would, or None when the round
        must run in this process instead — wrong backend or stores, or a
        serial degradation counted in :attr:`parallel_fallbacks`. Every
        degradation is bit-identical by construction: pool workers mutate
        no parent state before raising. A fused round goes to the
        backend's fused entry point, which runs it in this process too.
        """
        if not (
            self.backend == "process"
            and len(work) > 1
            and self.config.n_machines > 1
            and self.parallel_capable
            # Plain stores on both sides of the round: the read store must
            # be exportable to shared memory, and replicated/chaos stores
            # carry per-key failover state that must stay serial.
            and type(read_store) is DistributedDataStore
            and type(next_store) is DistributedDataStore
        ):
            return None
        import repro.parallel.backend as _pbackend
        from repro.parallel.pool import CallableShipError

        if shape == _FUSED:
            run = _pbackend.run_fused_round
        elif shape == _PER_BLOCK:
            run = _pbackend.run_block_round
        else:
            run = _pbackend.run_scalar_round
        try:
            return run(self, read_store, next_store, work, assignment, worker)
        except CallableShipError:
            # Unshippable worker, work items or outputs.
            self.parallel_fallbacks += 1
        return None

    def _run_machines(
        self,
        shape: str,
        work: Sequence[Any],
        worker: Callable[..., Any],
        assignment: np.ndarray,
        read_store: DistributedDataStore,
        next_store: DistributedDataStore,
    ) -> tuple[Any, list[Any]]:
        """Group, run and collect in this process; returns the results
        and the per-machine ledger contexts."""
        fan = self._fan
        if shape == _FUSED:
            gctx = self._fused_context(read_store, next_store, work, assignment)
            # The fused worker advances every machine in lockstep: observers
            # see one machine-step span whose ctx carries per-machine arrays.
            if fan is not None:
                fan.on_machine_start(gctx)
            out = worker(gctx) if work.size else None
            if out is not None:
                check_fused_rows(out, work.size)
                gctx.charge_publications()
            if fan is not None:
                fan.on_machine_end(gctx)
            return out, gctx.ledgers()
        per_item = shape == _PER_ITEM
        run = run_items if per_item else run_block
        collector = OutputCollector(len(work), per_item)
        contexts = []
        for mid, idx in group_by_machine(
            assignment, self.config.n_machines == 1, as_lists=per_item
        ):
            ctx = self._context(mid, read_store, next_store)
            contexts.append(ctx)
            if fan is not None:
                fan.on_machine_start(ctx)
            out = self._run_machine(run, ctx, worker, take_items(work, idx))
            if fan is not None:
                # After the publication charge, so the machine span's
                # write count includes it for every program shape.
                fan.on_machine_end(ctx)
            collector.add(idx, out)
        return collector.results(), contexts

    def _run_machine(
        self,
        run: Callable[..., Any],
        ctx: MachineContext,
        worker: Callable[..., Any],
        items: Sequence[Any],
    ) -> Any:
        """One machine's program over its items (``run`` is
        :func:`run_items` or :func:`run_block`). The unit a chaos runtime
        crashes and replays."""
        return run(ctx, worker, items)

    def charge(
        self,
        tag: str,
        rounds: int = 1,
        *,
        reads: int = 0,
        writes: int = 0,
        kind: str = "primitive",
    ) -> RoundStats:
        """Charge an analytically-costed step (standard MPC primitive).

        The paper (§3) lets the non-adaptive parts of its algorithms use
        "standard primitives, such as sorting, duplicate removal" that run
        in O(1) MPC rounds at S = n^ε. Drivers perform those steps with
        vectorized numpy and charge their round/communication cost here, so
        the ledger still reflects the model cost.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        per_machine = int(np.ceil(max(reads, writes) / self.config.n_machines))
        return self.charge_stats(self._stats(
            tag, kind, rounds,
            total_reads=reads,
            total_writes=writes,
            max_machine_reads=per_machine,
            max_machine_writes=per_machine,
            n_machines_active=self.config.n_machines,
        ))

    def charge_stats(self, stats: RoundStats) -> RoundStats:
        """Record an externally-accounted ledger row.

        For primitives that compute their own exact per-machine costs
        (e.g. ``resolve_pointers`` charging chain-length reads) where
        :meth:`charge`'s uniform-spread estimate would be wrong. Fires
        the same ``on_charge`` observer hook, so traced/metered runs see
        every ledger row — appending to ``runtime.report`` directly
        would leave observers blind to the cost.
        """
        self._round_counter += stats.rounds
        self.report.add(stats)
        for obs in self.observers:
            obs.on_charge(self, stats)
        return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _assign(
        self, work: Sequence[Any], item_key: Callable[[Any], Hashable] | None
    ) -> np.ndarray:
        """Random machine assignment of work items (deterministic in seed)."""
        p = self.config.n_machines
        seed = self.config.seed ^ (0x51ED * (self._round_counter + 1))
        if p == 1:
            # Identical to hashing each item mod 1, minus the hashing.
            assignment = np.zeros(len(work), dtype=np.int64)
        elif item_key is None and len(work) > 0 and isinstance(
            work[0], (int, np.integer)
        ):
            assignment = partition_items(np.asarray(work, dtype=np.int64), p, seed)
        else:
            keys = [item_key(w) if item_key else w for w in work]
            assignment = np.fromiter(
                (machine_of(k, p, seed) for k in keys),
                dtype=np.int64,
                count=len(keys),
            )
        for obs in self.observers:
            obs.on_assignment(self, assignment, len(work))
        return assignment

    def _stats(self, tag: str, kind: str, rounds: int, **costs: Any) -> RoundStats:
        """A ledger row for the next report index, budgets filled in."""
        return RoundStats(
            index=len(self.report.rounds),
            tag=tag,
            kind=kind,
            rounds=rounds,
            read_budget=self.config.read_budget,
            write_budget=self.config.write_budget,
            **costs,
        )

    def _record(
        self,
        tag: str,
        contexts: list[Any],
        read_store: DistributedDataStore,
        setup_writes: int,
        wall: float,
    ) -> RoundStats:
        """The ledger row of an executed round, added to the report."""
        total_reads = max_reads = max_writes = violations = 0
        total_writes = setup_writes
        for ctx in contexts:
            reads, writes = ctx.reads_used, ctx.writes_used
            total_reads += reads
            total_writes += writes
            if reads > max_reads:
                max_reads = reads
            if writes > max_writes:
                max_writes = writes
            violations += ctx.read_violation + ctx.write_violation
        stats = self._stats(
            tag, "adaptive", 1,
            total_reads=total_reads,
            total_writes=total_writes,
            max_machine_reads=max_reads,
            max_machine_writes=max_writes,
            n_machines_active=len(contexts),
            budget_violations=violations,
            max_server_load=read_store.max_server_load(),
            wall_time_s=wall,
        )
        # A lost pool worker is §2.1's crash of every machine in its
        # shard, replaced by the parent's re-run. Folded in *before*
        # report.add so on_round_end observers (metrics, tracer) see it;
        # none of these fields enter summary()/digests, so bit-identity
        # with the serial path is preserved by construction.
        for machines, wall_s in self._lost_shards:
            stats.crashes += machines
            stats.worker_respawns += 1
            stats.recovery_wall_s += wall_s
        self._lost_shards.clear()
        self.report.add(stats)
        return stats


class BatchRoundContext:
    """Whole-round machine interface for fused vectorized rounds.

    One instance stands in for *every* active machine of a round: each
    batch operation carries an ``owner`` array naming the machine issuing
    each element, and per-machine O(S) budgets are charged by bincount —
    the same limits :class:`~repro.core.machine.MachineContext` enforces
    element-wise. Machines in a real deployment execute concurrently;
    advancing all their programs in lockstep reorders only simulator
    execution, never any single machine's own read/write sequence, so
    budgets, contention histograms, and store contents are unchanged.

    Attributes:
        items: the round's work items (1-D int64, in work order).
        machines: ``machines[i]`` is the machine that owns ``items[i]``.
        reads_used / writes_used: per-machine budget consumption arrays.
    """

    __slots__ = (
        "config",
        "items",
        "machines",
        "observer",
        "_prev",
        "_next",
        "reads_used",
        "writes_used",
        "_read_over",
        "_write_over",
    )

    def __init__(
        self,
        config: AMPCConfig,
        prev_store: DistributedDataStore,
        next_store: DistributedDataStore,
        items: np.ndarray,
        machines: np.ndarray,
        observer: Any,
    ) -> None:
        self.config = config
        self.items = items
        self.machines = machines
        self._prev = prev_store
        self._next = next_store
        self.observer = observer
        p = config.n_machines
        self.reads_used = np.zeros(p, dtype=np.int64)
        self.writes_used = np.zeros(p, dtype=np.int64)
        self._read_over = np.zeros(p, dtype=bool)
        self._write_over = np.zeros(p, dtype=bool)

    def read_array(
        self,
        namespace: str,
        ids: np.ndarray,
        *,
        owner: np.ndarray,
        fill: Any = 0,
        return_found: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Batch adaptive read; element i is issued by machine ``owner[i]``.

        Uncached (callers deduplicate per machine where the scalar path's
        read cache would have deduplicated); missing ids yield ``fill``.
        """
        self._charge(
            self.reads_used, self._read_over, owner,
            self.config.read_budget, "read",
        )
        if self.observer is not None:
            self.observer.on_machine_read_batch(self, namespace, ids)
        return self._prev.read_array(
            namespace, ids, fill=fill, return_found=return_found
        )

    def write_array(
        self,
        namespace: str,
        ids: np.ndarray,
        values: np.ndarray,
        *,
        owner: np.ndarray,
    ) -> None:
        """Batch write into the next store, charged to ``owner`` machines."""
        self._charge(
            self.writes_used, self._write_over, owner,
            self.config.write_budget, "write",
        )
        if self.observer is not None:
            self.observer.on_machine_write_batch(self, namespace, ids)
        self._next.write_array(namespace, ids, values)

    def charge_replayed_reads(
        self,
        namespace: str,
        starts: np.ndarray,
        lengths: np.ndarray,
        *,
        owner: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Charge adaptive reads whose values the program replays locally:
        keys ``(namespace, starts[i] + j)`` for ``j < lengths[i]``, issued
        by machine ``owner[i]``. With ``rows`` the keys are slotted,
        ``(namespace, rows[i], starts[i] + j)`` — the adjacency addressing
        of :func:`repro.graph.io.encode_graph_arrays` — and ranges merge
        per (machine, row).

        The batch analogue of
        :meth:`~repro.core.machine.MachineContext.charge_read_array`, with
        one difference: each machine pays for each *distinct* key once, as
        its read cache would, however many of its items replayed it — so
        the ranges are merged per machine (:func:`distinct_ranges`) before
        anything is charged. The merged keys are then reported and served
        in slices of :data:`KEY_SLICE`. Budgets, per-server loads and
        the charged key set are what a machine reading each key once
        through :meth:`~repro.core.machine.MachineContext.read` would
        produce.
        """
        owner, starts, lengths, rows = distinct_ranges(
            owner, starts, lengths, rows
        )
        if owner.size == 0:
            return
        self._charge(
            self.reads_used, self._read_over, owner,
            self.config.read_budget, "read", weights=lengths,
        )
        del owner
        for key in expand_ranges(starts, lengths, KEY_SLICE, rows):
            if self.observer is not None:
                self.observer.on_machine_read_batch(self, namespace, key[0])
            self._prev.serve_reads_array([namespace, *key])

    def charge_publications(self) -> None:
        """Charge one result-publication write per work item (the batch
        analogue of the scalar path's +1 write per non-None return)."""
        self._charge(
            self.writes_used, self._write_over, self.machines,
            self.config.write_budget, "write",
        )

    def _charge(
        self,
        used: np.ndarray,
        over: np.ndarray,
        owner: np.ndarray,
        budget: float,
        kind: str,
        weights: np.ndarray | None = None,
    ) -> None:
        owner = np.asarray(owner, dtype=np.int64)
        if owner.size == 0:
            return
        if weights is None:
            used += np.bincount(owner, minlength=used.size)
        else:
            used += np.bincount(
                owner, weights=weights, minlength=used.size
            ).astype(np.int64)
        fresh = used > budget
        if fresh.any():
            over |= fresh
            if self.config.strict:
                mid = int(np.argmax(fresh))
                raise BudgetExceededError(mid, kind, int(used[mid]), budget)

    def ledgers(self) -> list["_MachineLedger"]:
        """Per-active-machine accounting views for _record / observers."""
        return [
            _MachineLedger(
                int(mid),
                int(self.reads_used[mid]),
                int(self.writes_used[mid]),
                bool(self._read_over[mid]),
                bool(self._write_over[mid]),
                self._prev,
                self._next,
            )
            for mid in np.flatnonzero(np.bincount(self.machines))
        ]


@dataclass(slots=True, eq=False)
class _MachineLedger:
    """Frozen per-machine accounting view of a fused batch round.

    Duck-types the slice of :class:`~repro.core.machine.MachineContext`
    that :meth:`AMPCRuntime._record` and round-end observers consume.
    """

    machine_id: int
    reads_used: int
    writes_used: int
    read_violation: bool
    write_violation: bool
    _prev: DistributedDataStore
    _next: DistributedDataStore


@dataclass(slots=True, eq=False)
class RoundCheckpoint:
    """O(1) snapshot of a runtime's round state (see
    :meth:`AMPCRuntime.checkpoint`)."""

    store: DistributedDataStore | None
    round_counter: int
    store_counter: int
    report_length: int


@dataclass(slots=True, eq=False)
class RoundResult:
    """Outcome of one executed round."""

    results: Any
    store: DistributedDataStore
    stats: RoundStats


class MPCRuntime(AMPCRuntime):
    """Runtime restricted to MPC semantics for the baseline algorithms.

    Machines receive :class:`~repro.core.machine.MPCMachineContext`, whose
    only read capability is the machine's own message inbox — adaptive reads
    raise. Baselines implemented on this runtime therefore cannot cheat by
    using AMPC features, making the Figure 1 comparison meaningful.
    """

    machine_context_cls = MPCMachineContext

    def message_round(
        self,
        program: Callable[[MPCMachineContext], Any],
        *,
        messages: Iterable[tuple[int, Any]] | None = None,
        machines: Sequence[int] | None = None,
        tag: str = "mpc",
    ) -> RoundResult:
        """One MPC round: deliver ``messages`` and run ``program`` everywhere.

        Args:
            program: per-machine program; may call ``ctx.inbox()`` and
                ``ctx.send(dst, payload)``.
            messages: driver-injected (dst_machine, payload) pairs delivered
                this round (e.g. the initial data distribution).
            machines: machine ids to run (default: all).
            tag: ledger label.
        """
        setup = None
        if messages is not None:
            setup = ((("msg", dst), payload) for dst, payload in messages)
        result = self.round(
            setup=setup, per_machine=program, machines=machines, tag=tag
        )
        result.stats.kind = "mpc"
        return result
