"""Per-machine execution contexts.

A machine program in round i is a Python callable receiving a
:class:`MachineContext`. The context is the machine's only interface to the
world: adaptive reads from the sealed previous store D_{i-1}, and writes into
the next store D_i. It charges every read and write against the machine's
O(S) budgets (paper §2) and caches read results (paper §2.1 assumption 4:
"each worker machine queries for each key at most once ... machines have
sufficient space to cache the results"), so repeated reads of a key cost one
query total.

The module also owns what a round *does* with a machine once its items
are known — :func:`group_by_machine`, the two block runners
(:func:`run_items`, :func:`run_block`) and the :class:`OutputCollector` —
and the attempt journal (:class:`_JournalStore`, :func:`_replay_ops`)
that holds a machine's writes until its attempt counts. They are shared
verbatim by the serial round loop, the chaos layer's crash replay and
the process backend's pool task and merge, so the executions cannot
drift apart.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from .config import AMPCConfig
from .dds import (
    DistributedDataStore,
    check_write,
    check_write_array,
    int64_keys,
)
from .errors import (
    AdaptivityError,
    BudgetExceededError,
    MachineCrash,
    RoundProtocolError,
)


class MachineContext:
    """Interface handed to a machine program for one AMPC round.

    Attributes:
        machine_id: this machine's id in [0, n_machines).
        n_machines: P, the deployment size.
        config: the deployment configuration (space S, budgets, seed).
        reads_used / writes_used: budget consumption so far this round.
    """

    __slots__ = (
        "machine_id",
        "n_machines",
        "config",
        "_prev",
        "_next",
        "_sink",
        "_cache",
        "scratch",
        "observer",
        "batch_observer",
        "reads_used",
        "writes_used",
        "read_violation",
        "write_violation",
        "worker_id",
    )

    def __init__(
        self,
        machine_id: int,
        config: AMPCConfig,
        prev_store: DistributedDataStore,
        next_store: DistributedDataStore,
    ) -> None:
        self.machine_id = machine_id
        self.n_machines = config.n_machines
        self.config = config
        self._prev = prev_store
        self._next = next_store
        # Where writes go: the next store, or an attempt's journal
        # (TransactionalContextMixin) until the attempt counts.
        self._sink = next_store
        self._cache: dict[Hashable, Any] = {}
        # Free-form per-machine, per-round local memory for machine
        # programs (e.g. MIS shares settled statuses across the vertices a
        # machine processes within one round). Lives in the machine's own
        # space S; cleared at the round boundary like everything else.
        self.scratch: dict[Hashable, Any] = {}
        # Observation hooks (repro.verify invariants, repro.observe tracer
        # and metrics): set by the runtime only when some installed
        # observer overrides the corresponding hooks (see
        # repro.core.hooks.ObserverFan). ``observer`` feeds the scalar
        # per-op hooks, ``batch_observer`` the per-array-op hooks — split
        # so batch-op consumers don't tax the scalar hot path. None costs
        # one predicate per charged operation.
        self.observer: Any = None
        self.batch_observer: Any = None
        # Which OS worker executed this machine's program on the process
        # backend (repro.parallel; -1 when the parent re-ran the shard of
        # a lost worker); None on the serial path. Diagnostic
        # only — never feeds placement, budgets, or any ledger quantity,
        # so serial and parallel runs stay bit-identical.
        self.worker_id: int | None = None
        self.reads_used = 0
        self.writes_used = 0
        self.read_violation = False
        self.write_violation = False

    # -- reads (adaptive, from D_{i-1}) ------------------------------------

    def read(self, key: Hashable) -> Any:
        """Query one key from the previous round's store.

        Adaptive: the key may depend on the results of earlier reads in the
        same round — this is the defining capability of AMPC. Results are
        cached, so re-reading a key is free (model assumption 4).

        Returns the value, or None if the key is absent.
        """
        if key in self._cache:
            return self._cache[key]
        self._charge_read(1)
        if self.observer is not None:
            self.observer.on_machine_read(self, key)
        value = self._prev.get(key)
        self._cache[key] = value
        return value

    def read_indexed(self, key: Hashable, index: int) -> Any:
        """Query the ``index``-th (1-based) duplicate of ``key``."""
        cache_key = ("__dup__", key, index)
        if cache_key in self._cache:
            return self._cache[cache_key]
        self._charge_read(1)
        if self.observer is not None:
            self.observer.on_machine_read(self, key)
        value = self._prev.get_indexed(key, index)
        self._cache[cache_key] = value
        return value

    def read_bucket(self, key: Hashable, limit: int | None = None) -> list[Any]:
        """Read all duplicates of ``key`` (up to ``limit``), in index order.

        Charges one query per pair retrieved, plus one for the terminating
        empty probe — exactly the cost of probing (x, 1), (x, 2), ... in a
        real deployment.
        """
        values: list[Any] = []
        index = 1
        while limit is None or index <= limit:
            value = self.read_indexed(key, index)
            if value is None:
                break
            values.append(value)
            index += 1
        return values

    def read_many(self, keys: Iterable[Hashable]) -> list[Any]:
        """Batch :meth:`read`; one query per (uncached) key."""
        return [self.read(key) for key in keys]

    def read_array(
        self,
        namespace: str,
        ids: np.ndarray,
        *,
        fill: Any = 0,
        return_found: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Columnar batch read of ``(namespace, ids[i])`` keys.

        Charges ``len(ids)`` reads in one budget check — the same O(S)
        budget scalar reads consume one at a time — and attributes each
        read to its owning server exactly as scalar reads would. Unlike
        :meth:`read`, results are NOT cached: callers are expected to
        deduplicate their own batches (pass each needed key once), which
        is what model assumption 4 grants for free anyway. Missing ids
        yield ``fill``. Ids must have an integer dtype.
        """
        ids = int64_keys(namespace, ids)
        if ids.size:
            self._charge_read(ids.size)
        if self.batch_observer is not None:
            self.batch_observer.on_machine_read_batch(self, namespace, ids)
        return self._prev.read_array(
            namespace, ids, fill=fill, return_found=return_found
        )

    def charge_read_array(self, namespace: str, *columns: np.ndarray) -> None:
        """Charge a batch of adaptive reads whose values are replayed locally.

        ``columns`` are the per-key components after ``namespace`` — e.g.
        ``charge_read_array("adj", us, slots)`` charges reads of keys
        ``("adj", u, slot)``. Budgets and per-server attribution advance
        exactly as if each key were read with :meth:`read` (uncached); no
        values are returned. For workers that recompute round inputs from
        coordinator-held arrays but must still pay the model's read cost.
        """
        if not columns or columns[0].size == 0:
            return
        self._charge_read(columns[0].size)
        if self.batch_observer is not None:
            self.batch_observer.on_machine_read_batch(self, namespace, columns[0])
        self._prev.serve_reads_array([namespace, *columns])

    def write_array(
        self, namespace: str, ids: np.ndarray, values: np.ndarray
    ) -> None:
        """Columnar batch write of ``(namespace, ids[i]) -> values[i]``.

        Charges ``len(ids)`` writes in one budget check; placement and
        duplicate-key semantics match scalar :meth:`write` of the same
        tuple keys. Ids must have an integer dtype.
        """
        ids = int64_keys(namespace, ids)
        if ids.size == 0:
            return
        self._charge_write(ids.size)
        if self.batch_observer is not None:
            self.batch_observer.on_machine_write_batch(self, namespace, ids)
        self._sink.write_array(namespace, ids, values)

    # -- writes (into D_i, visible next round) -----------------------------

    def write(self, key: Hashable, value: Any) -> None:
        """Write one key-value pair into the next round's store."""
        self._charge_write(1)
        if self.observer is not None:
            self.observer.on_machine_write(self, key)
        self._sink.write(key, value)

    def write_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        for key, value in pairs:
            self.write(key, value)

    # -- budget accounting --------------------------------------------------

    def _charge_read(self, count: int) -> None:
        self.reads_used += count
        if self.reads_used > self.config.read_budget:
            self.read_violation = True
            if self.config.strict:
                raise BudgetExceededError(
                    self.machine_id, "read", self.reads_used,
                    self.config.read_budget,
                )

    def _charge_write(self, count: int) -> None:
        self.writes_used += count
        if self.writes_used > self.config.write_budget:
            self.write_violation = True
            if self.config.strict:
                raise BudgetExceededError(
                    self.machine_id, "write", self.writes_used,
                    self.config.write_budget,
                )


class _JournalStore:
    """A machine attempt's stand-in for the round's next store.

    Validates writes exactly like :class:`DistributedDataStore` (so a
    model violation raises at the op that caused it, with the store's
    message) and appends them to an op journal instead of storing.
    Consecutive scalar writes share one ``("w", pairs)`` run, applied with
    one bulk write by :func:`_replay_ops`. Arrays are copied at journal
    time — the real store copies on append, and programs may reuse
    buffers. Process-backend pool workers write into one, and so does a
    chaos runtime's machine until its attempt finishes.
    """

    __slots__ = ("max_words", "ops")

    sealed = False

    def __init__(self, max_words: int, ops: list) -> None:
        self.max_words = max_words
        self.ops = ops

    def write(self, key: Hashable, value: Any) -> None:
        check_write(key, value, self.max_words)
        ops = self.ops
        if ops and ops[-1][0] == "w":
            ops[-1][1].append((key, value))
        else:
            ops.append(("w", [(key, value)]))

    def write_array(
        self, namespace: str, ids: np.ndarray, values: np.ndarray
    ) -> None:
        ids, values, _ = check_write_array(
            namespace, np.array(ids), np.array(values), None, self.max_words
        )
        self.ops.append(("wa", namespace, ids, values))


def _replay_ops(
    fan: Any,
    ctx: Any,
    next_store: DistributedDataStore,
    ops: list,
) -> None:
    """Fire a machine's journaled ops through the fan (None: no hooks)
    and the real next store, in the order the machine issued them. A run
    of scalar writes fires its hooks, then applies through the store's
    one bulk path — hooks see only the context, so the order within a
    run is not observable."""
    scalar_hooks = fan is not None and fan.any_machine_scalar_hooks
    batch_hooks = fan is not None and fan.any_machine_batch_hooks
    for op in ops:
        kind = op[0]
        if kind == "w":
            if scalar_hooks:
                for key, _ in op[1]:
                    fan.on_machine_write(ctx, key)
            next_store.write_many(op[1])
        elif kind == "wa":
            if batch_hooks:
                fan.on_machine_write_batch(ctx, op[1], op[2])
            next_store.write_array(op[1], op[2], op[3])
        elif kind == "r":
            if scalar_hooks:
                fan.on_machine_read(ctx, op[1])
        elif batch_hooks:  # "rb"
            fan.on_machine_read_batch(ctx, op[1], op[2])


class TransactionalContextMixin:
    """Journaled-write, crash-capable behavior layered over any context.

    Fault-injecting runtimes combine this mixin with a concrete context
    class (``class C(TransactionalContextMixin, MachineContext)``) and
    declare ``__slots__ = TRANSACTIONAL_SLOTS`` on the combined class.
    Writes — scalar pairs and array batches alike — go to the attempt's
    :class:`_JournalStore`, validated and copied at the op as in a pool
    worker. :meth:`commit`, which the fault-injecting runtime calls when
    the machine finishes cleanly, applies them through the process
    backend's merge path; :meth:`rollback` drops them: a crashed attempt
    must leave no trace in D_i (the framework discards a failed task's
    output, as in MapReduce). A charged read raises
    :class:`MachineCrash` once the preselected crash point is reached.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_at: int | None = None
        self._sink = _JournalStore(self._next.max_words, [])

    def _charge_read(self, count: int) -> None:
        # Every remote read, scalar or batched, is charged here first.
        if self.crash_at is not None and self.reads_used >= self.crash_at:
            raise MachineCrash(self.machine_id, self.reads_used)
        super()._charge_read(count)

    def commit(self) -> None:
        """Publish the finished attempt's writes into D_i, in op order."""
        _replay_ops(None, self, self._next, self._sink.ops)
        self._sink.ops.clear()

    def rollback(self) -> int:
        """Discard a crashed attempt; return the reads it wasted.

        The replacement machine starts from scratch (the paper's "perform
        the computation from scratch"): nothing the attempt journaled
        reaches D_i, the read/write budgets — journaled rows and result
        publications alike — are fresh, and the read cache and scratch
        space are empty. A context runs one machine's program for one
        round, so "the attempt's start" is the context's initial state.
        """
        wasted_reads = self.reads_used
        self._sink.ops.clear()
        self.reads_used = 0
        self.writes_used = 0
        self.crash_at = None
        self._cache.clear()
        self.scratch.clear()
        return wasted_reads


# Slots a concrete transactional context class must declare (the mixin
# itself keeps empty __slots__ so it can combine with any context class
# without an instance lay-out conflict).
TRANSACTIONAL_SLOTS = ("crash_at",)


class CrashingContext(TransactionalContextMixin, MachineContext):
    """MachineContext that raises MachineCrash at a preselected read and
    journals writes until the machine finishes cleanly."""

    __slots__ = TRANSACTIONAL_SLOTS


class MPCMachineContext(MachineContext):
    """Machine context restricted to MPC semantics.

    In the MPC model a machine can only see messages that were addressed to
    it: there is no random read access. Following the paper's simulation of
    MPC inside AMPC (§2), a message to machine x is a DDS pair keyed
    ``("msg", x)`` (duplicates = multiple messages), and machine x may read
    only its own inbox. Any other read raises
    :class:`~repro.core.errors.AdaptivityError`, which keeps the MPC
    baselines honest — they cannot accidentally use adaptive reads.
    """

    __slots__ = ()

    def inbox(self) -> list[Any]:
        """All messages addressed to this machine this round."""
        return self.read_bucket(("msg", self.machine_id))

    def send(self, dst_machine: int, payload: Any) -> None:
        """Send a message to machine ``dst_machine`` (arrives next round)."""
        self.write(("msg", dst_machine), payload)

    def _own_inbox_only(self, key: Hashable) -> None:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] == "msg"
                and key[1] == self.machine_id):
            raise AdaptivityError(
                f"MPC machine {self.machine_id} attempted adaptive read of "
                f"{key!r}; MPC machines may only read their own inbox"
            )

    def read(self, key: Hashable) -> Any:
        self._own_inbox_only(key)
        return super().read(key)

    def read_indexed(self, key: Hashable, index: int) -> Any:
        self._own_inbox_only(key)
        return super().read_indexed(key, index)

    def read_array(self, namespace: str, *args: Any, **kwargs: Any) -> Any:
        raise AdaptivityError(
            f"MPC machine {self.machine_id} attempted batch adaptive reads "
            f"of {namespace!r} keys; MPC machines may only read their own inbox"
        )

    charge_read_array = read_array


# ---------------------------------------------------------------------------
# machine blocks: grouping, running, collecting (serial loop + process backend)
# ---------------------------------------------------------------------------

#: Index of a round's only machine group: every item, in work order.
ALL_ITEMS = slice(None)


def group_by_machine(
    assignment: np.ndarray, single: bool = False, as_lists: bool = False
) -> list[tuple[int, Any]]:
    """``(machine_id, item_indices)`` groups in the serial visiting order:
    ascending machine id, items in work order within each machine.

    Each machine's items run consecutively against one shared read cache
    — a machine processes all items it was assigned within the round —
    and the groups are the machine-step boundaries observers are told
    about. Indices are int64 arrays, or plain lists with ``as_lists``
    (per-item rounds index Python sequences one element at a time). A
    round with one item, or a deployment with one machine (``single``),
    is one group indexed by :data:`ALL_ITEMS`: no sort, no index arrays,
    and :func:`take_items` hands the work through as is.
    """
    n_items = len(assignment)
    if n_items == 0:
        return []
    if single or n_items == 1:
        return [(int(assignment[0]), ALL_ITEMS)]
    order = np.argsort(assignment, kind="stable")
    if as_lists:
        # A per-item round visits every item in Python anyway, and its
        # rounds are often a handful of items (one serving tick): walking
        # the sorted order costs less than the array calls below.
        machines = assignment.tolist()
        groups: list[tuple[int, Any]] = []
        current = None
        for i in order.tolist():
            if machines[i] != current:
                current = machines[i]
                members: list[int] = []
                groups.append((current, members))
            members.append(i)
        return groups
    sorted_assign = assignment[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_assign[1:] != sorted_assign[:-1]) + 1)
    )
    return [
        (mid, order[s:e])
        for mid, s, e in zip(
            sorted_assign[starts].tolist(),
            starts.tolist(),
            [*starts[1:].tolist(), n_items],
        )
    ]


def take_items(work: Sequence[Any], idx: Any) -> Sequence[Any]:
    """One machine group's items, in work order."""
    if idx is ALL_ITEMS:
        return work
    if isinstance(idx, list):
        return [work[i] for i in idx]
    return work[idx]


def run_items(
    ctx: MachineContext, worker: Callable[..., Any], items: Iterable[Any]
) -> list[Any]:
    """The per-item program shape: ``worker(ctx, item)`` for each of one
    machine's items; returns their outputs in item order."""
    outs = []
    for item in items:
        out = worker(ctx, item)
        outs.append(out)
        if out is not None:
            # Publishing the result for the driver / next round costs one
            # write in a real deployment.
            ctx._charge_write(1)
    return outs


def run_block(
    ctx: MachineContext, worker: Callable[..., Any], block: np.ndarray
) -> Any:
    """The per-block program shape: one ``worker(ctx, block)`` call for
    all of a machine's items.

    Returns None, or the output as an array (tuple of arrays for a tuple)
    with one row per block item, each row charged one publication write
    like the per-item shape's non-None returns.
    """
    out = worker(ctx, block)
    if out is None:
        return None
    cols = tuple(
        np.asarray(c) for c in (out if isinstance(out, tuple) else (out,))
    )
    for col in cols:
        if len(col) != len(block):
            raise RoundProtocolError(
                f"round_batch worker returned {len(col)} rows "
                f"for a block of {len(block)} items"
            )
    ctx._charge_write(len(block))
    return cols if isinstance(out, tuple) else cols[0]


class OutputCollector:
    """Puts per-machine outputs back into work order.

    ``per_item`` rounds collect a list aligned with the work items. Block
    rounds scatter rows into arrays allocated from the first block that
    returns output (its dtype and trailing shape; tuple-ness likewise),
    and every block must then return output or none may.
    """

    __slots__ = ("n_items", "per_item", "_out", "_tuple", "_silent")

    def __init__(self, n_items: int, per_item: bool) -> None:
        self.n_items = n_items
        self.per_item = per_item
        self._out: Any = [None] * n_items if per_item else None
        self._tuple = False
        self._silent = 0

    def add(self, idx: Any, out: Any) -> None:
        """Record the output :func:`run_items` / :func:`run_block`
        returned for the machine group indexed by ``idx``."""
        if self.per_item:
            if idx is ALL_ITEMS:
                self._out = out
            else:
                results = self._out
                for i, item_out in zip(idx, out):
                    results[i] = item_out
        elif out is None:
            self._silent += 1
        else:
            cols = out if isinstance(out, tuple) else (out,)
            if self._out is None:
                self._tuple = isinstance(out, tuple)
                self._out = [
                    np.empty((self.n_items,) + col.shape[1:], dtype=col.dtype)
                    for col in cols
                ]
            for dst, col in zip(self._out, cols):
                dst[idx] = col

    def results(self) -> Any:
        """The round's results: a list, or None / array / tuple of arrays."""
        if self.per_item or self._out is None:
            return self._out
        if self._silent:
            raise RoundProtocolError(
                "round_batch workers must return outputs for every "
                "block or for none"
            )
        return tuple(self._out) if self._tuple else self._out[0]
