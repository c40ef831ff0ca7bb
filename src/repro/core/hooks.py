"""The runtime observation interface: hook points and their dispatcher.

Everything that watches an execution — the conformance observers of
:mod:`repro.verify.invariants`, the tracer and metrics collectors of
:mod:`repro.observe` — plugs into the simulator through one interface:
:class:`RuntimeObserver`. The runtime (:mod:`repro.core.runtime`) and the
machine contexts (:mod:`repro.core.machine`) call the hooks at every
model-relevant event; an observer overrides the hooks it cares about
and ignores the rest. The round stores (:mod:`repro.core.dds`) are
passive, as the paper's DDS is: every operation a machine issues on a
store fires a machine hook, the one per-operation view of it.

Two properties keep observation honest and cheap:

* **Zero overhead when disarmed.** With no observers installed, every
  hook site is a single ``is None`` predicate; no fan object exists.
* **Pay only for what you override.** :class:`ObserverFan` (one per
  observed runtime, shared by its machine contexts) precomputes, per
  hook, the sublist of observers that actually override that hook.
  A tracer that never looks at scalar per-op events costs nothing on the
  scalar read path even while armed — the fan's sublist for
  ``on_machine_read`` is empty.

Hook taxonomy (who calls what):

===========================  ====================================================
hook                         fired by
===========================  ====================================================
``on_runtime_created``       runtime constructor / ``attach_observer``
``on_bootstrap``             :meth:`AMPCRuntime.bootstrap` (D_0 loaded)
``on_round_start``           :meth:`AMPCRuntime.round` / ``round_batch``
``on_assignment``            work-item → machine partition of the round
``on_machine_start``         a machine's program begins executing
``on_machine_read``          one scalar adaptive read (charged, uncached)
``on_machine_write``         one scalar write into D_i
``on_machine_read_batch``    one columnar batch read (the whole array, once)
``on_machine_write_batch``   one columnar batch write
``on_machine_end``           a machine's program finished its round work
``on_round_end``             round sealed and recorded (receives RoundStats)
``on_charge``                analytically-charged MPC primitive
``on_checkpoint``            driver snapshot taken (chaos replay support)
``on_restore``               runtime rolled back to a checkpoint (round abort)
===========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np


class RuntimeObserver:
    """No-op base class defining the full observation interface.

    Subclasses override only the hooks they need.  Hooks left untouched
    are *free*: :class:`ObserverFan` detects un-overridden methods and
    never dispatches them.  (Duck-typed observers that do not subclass
    this class are also accepted — any hook they define is dispatched,
    any hook they lack is skipped.)

    The ``ctx`` argument of the machine-level hooks is usually a
    :class:`repro.core.machine.MachineContext`; on the fused vectorized
    path it is a :class:`repro.core.runtime.BatchRoundContext`, whose
    ``reads_used`` / ``writes_used`` are per-machine arrays rather than
    ints — observers that read those fields must handle both shapes.
    """

    # runtime-level events -------------------------------------------------
    def on_runtime_created(self, runtime: Any) -> None: ...

    def on_bootstrap(self, runtime: Any, store: Any, count: int) -> None: ...

    def on_round_start(
        self, runtime: Any, read_store: Any, next_store: Any
    ) -> None: ...

    def on_round_end(
        self,
        runtime: Any,
        stats: Any,
        contexts: list[Any],
        read_store: Any,
        next_store: Any,
    ) -> None: ...

    def on_charge(self, runtime: Any, stats: Any) -> None: ...

    def on_assignment(
        self, runtime: Any, assignment: np.ndarray, n_items: int
    ) -> None: ...

    def on_checkpoint(self, runtime: Any, checkpoint: Any) -> None: ...

    def on_restore(self, runtime: Any, checkpoint: Any) -> None: ...

    # machine-level events -------------------------------------------------
    def on_machine_start(self, ctx: Any) -> None: ...

    def on_machine_end(self, ctx: Any) -> None: ...

    def on_machine_read(self, ctx: Any, key: Hashable) -> None: ...

    def on_machine_write(self, ctx: Any, key: Hashable) -> None: ...

    # batch (vectorized-path) events: one event per array operation. ``ids``
    # is the int64 id column of the (namespace, id) key batch.
    def on_machine_read_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None: ...

    def on_machine_write_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None: ...


# Hooks routed through the fan (machine-level: the per-operation hot
# path). Runtime-level hooks are dispatched directly by the runtime —
# they fire once per round, so filtering would buy nothing.
FAN_HOOKS = (
    "on_machine_start",
    "on_machine_end",
    "on_machine_read",
    "on_machine_write",
    "on_machine_read_batch",
    "on_machine_write_batch",
)

#: Scalar per-operation machine hooks (dispatched through
#: ``ctx.observer``; ``on_machine_start``/``end`` are driven by the
#: runtime directly). Gated separately from the batch hooks so that
#: batch-op consumers (e.g. the metrics observer's batch counters) never
#: tax the scalar hot path with empty dispatches.
MACHINE_SCALAR_HOOKS = (
    "on_machine_read",
    "on_machine_write",
)

#: Batch per-operation machine hooks (dispatched through
#: ``ctx.batch_observer``; one event per array operation).
MACHINE_BATCH_HOOKS = (
    "on_machine_read_batch",
    "on_machine_write_batch",
)


def overrides_hook(observer: Any, name: str) -> bool:
    """Whether ``observer`` provides a real (non-default) ``name`` hook."""
    fn = getattr(type(observer), name, None)
    if fn is None:
        return False
    return fn is not getattr(RuntimeObserver, name)


class ObserverFan:
    """Dispatches machine-level events to a runtime's observers.

    One fan per observed runtime is shared by all its machine contexts.
    For each hook the fan keeps the sublist of observers that override
    it, computed once at construction (and on :meth:`rebuild` after
    ``attach_observer``): an event whose sublist is empty costs one
    method call and an empty loop, and observers never pay for hooks
    they did not override.
    """

    __slots__ = (
        (
            "observers",
            "any_machine_scalar_hooks",
            "any_machine_batch_hooks",
        )
        + tuple("_" + name for name in FAN_HOOKS)
    )

    def __init__(self, observers: list[Any]) -> None:
        self.observers = observers
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute the per-hook sublists (after observers changed)."""
        for name in FAN_HOOKS:
            setattr(
                self,
                "_" + name,
                [obs for obs in self.observers if overrides_hook(obs, name)],
            )
        # Gate flags for the per-operation hot paths: a runtime only wires
        # the fan into machine contexts when some observer would actually
        # receive those events, so round/machine-level consumers (tracer,
        # metrics) add zero per-op cost even while armed.
        self.any_machine_scalar_hooks = any(
            getattr(self, "_" + name) for name in MACHINE_SCALAR_HOOKS
        )
        self.any_machine_batch_hooks = any(
            getattr(self, "_" + name) for name in MACHINE_BATCH_HOOKS
        )

    # -- machine-level -----------------------------------------------------

    def on_machine_start(self, ctx: Any) -> None:
        for obs in self._on_machine_start:
            obs.on_machine_start(ctx)

    def on_machine_end(self, ctx: Any) -> None:
        for obs in self._on_machine_end:
            obs.on_machine_end(ctx)

    def on_machine_read(self, ctx: Any, key: Hashable) -> None:
        for obs in self._on_machine_read:
            obs.on_machine_read(ctx, key)

    def on_machine_write(self, ctx: Any, key: Hashable) -> None:
        for obs in self._on_machine_write:
            obs.on_machine_write(ctx, key)

    def on_machine_read_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None:
        for obs in self._on_machine_read_batch:
            obs.on_machine_read_batch(ctx, namespace, ids)

    def on_machine_write_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None:
        for obs in self._on_machine_write_batch:
            obs.on_machine_write_batch(ctx, namespace, ids)


class OpRecorder:
    """Worker-side journal of per-operation *read* events (process backend).

    The process backend (:mod:`repro.parallel`) runs machine programs in
    other OS processes, where the parent's observers do not exist. To keep
    armed observers (invariant suites, op-level tracers) seeing the exact
    serial event stream, each worker records its charged reads into the
    machine's op journal — writes are journaled by the worker's journal
    store, so the two interleave in true operation order — and the parent
    replays the journal through the real :class:`ObserverFan` during the
    deterministic machine-order merge.

    Installed as a context's ``observer`` / ``batch_observer``, so read
    events are recorded at exactly the points the serial path would have
    dispatched them (e.g. scalar reads only on cache misses). Write hooks
    are no-ops here: the journal store captures writes, and the parent
    fires the write hooks while applying them. ``ids`` arrays are copied
    because callers may mutate them after the call returns; the serial
    fan dispatches synchronously and never needs that copy.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: list) -> None:
        self.ops = ops

    def on_machine_read(self, ctx: Any, key: Hashable) -> None:
        self.ops.append(("r", key))

    def on_machine_read_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None:
        self.ops.append(("rb", namespace, np.array(ids, copy=True)))

    def on_machine_write(self, ctx: Any, key: Hashable) -> None: ...

    def on_machine_write_batch(
        self, ctx: Any, namespace: str, ids: np.ndarray
    ) -> None: ...
