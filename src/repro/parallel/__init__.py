"""Multi-core execution backend for the AMPC simulator.

The AMPC model is defined by many machines working concurrently against
distributed data stores; this package makes the simulator execute that
way. A persistent pool of forked OS workers (:mod:`repro.parallel.pool`)
shards each per-item and per-block round's machines; the sealed read
store's columnar state is exported into POSIX shared memory
(:mod:`repro.parallel.shm`) so workers serve adaptive reads from
zero-copy numpy views; and the per-worker results, budget charges,
write journals, and observer events are merged back in a fixed machine
order (:mod:`repro.parallel.backend`) so that results, per-round cost
ledgers, and trace digests are **bit-identical** to the serial path.

Those machine shards are the one sharded path. A fused round
(``round_batch(..., fused=True)``) advances all machines in one
lockstep program and runs in the parent on either backend, so process
faults reach only per-item and per-block rounds.

Selecting the backend
---------------------

Per runtime::

    rt = AMPCRuntime(config, backend="process", n_workers=4)

or ambiently, for code that constructs runtimes internally (the verify
sweep, the CLI, the algorithm entry points)::

    with use_backend("process", n_workers=4):
        result = repro.connectivity(graph, epsilon=0.5, seed=0)

Determinism contract
--------------------

Machine assignment (splitmix64, seeded per round) is computed in the
parent before sharding, so a machine's work is identical regardless of
which worker executes it; worker merges happen in ascending machine-id
order; integer counter reductions are order-independent sums. MPC
runtimes and chaos runtimes with *simulated* faults opt out
(``parallel_capable`` is False) and run serially, so fault plans keep
firing at identical operations; a :class:`~repro.core.chaos.FaultPlan`
injecting only real *process-level* faults (worker kills, hangs, delayed
replies, fork failures) shards normally; its faults reach only the
rounds that shard. The pool
(:mod:`repro.parallel.pool`) treats a crashed or hung worker as the
crash of every machine in its shard — the paper's §2.1 failure — and
re-runs that shard in the parent, which replies exactly as the worker
would have, keeping the bit-identity contract under every injected
fault.

Merge cost
----------

The parent-side journal replay is the serial fraction of every sharded
round. :mod:`repro.parallel.backend` replays each machine's journal in
one loop — the one a chaos runtime's machine commits a finished attempt
through (:mod:`repro.core.machine`): a worker journals consecutive
scalar writes as one run, which the parent applies with the store's one
bulk scalar-write path (the one ``write_many`` uses: one seal check, one
placement hash sweep per column chunk, no re-validation), and batch
writes go straight through ``write_array``. Armed machine hooks fire in op order as the loop
passes. The ``replay_items`` cell of ``repro perf collect --suite
smoke`` (process-backend matching: per-item rounds, scalar writes)
measures this constant.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator

__all__ = [
    "use_backend",
    "use_process_faults",
    "default_backend",
    "default_workers",
    "default_process_faults",
    "autodetect_workers",
    "BACKENDS",
]

BACKENDS = ("serial", "process")

# Ambient backend selection consulted by AMPCRuntime.__init__ when no
# explicit backend= argument is given. Kept here (stdlib-only module) so
# repro.core.runtime can read it without an import cycle; the heavy
# submodules (pool, shm, backend) import core and load lazily below.
# The process-fault plan is held as an opaque object for the same reason
# (its class lives in repro.core.chaos).
_DEFAULT_BACKEND = "serial"
_DEFAULT_WORKERS: int | None = None
_DEFAULT_PROCESS_FAULTS: Any = None


def default_backend() -> str:
    """The backend newly-constructed runtimes use (see :func:`use_backend`)."""
    return _DEFAULT_BACKEND


def default_workers() -> int | None:
    """Ambient worker count (None = autodetect at first parallel round)."""
    return _DEFAULT_WORKERS


def default_process_faults() -> Any:
    """Ambient process-fault :class:`~repro.core.chaos.FaultPlan` (or None)."""
    return _DEFAULT_PROCESS_FAULTS


def autodetect_workers() -> int:
    """Worker count when none was requested: one per core, capped at 8.

    The cap reflects the sharding granularity (machines per round);
    beyond 8 workers the merge constant dominates for the instance sizes
    this simulator targets.
    """
    return max(1, min(8, os.cpu_count() or 1))


@contextlib.contextmanager
def use_backend(backend: str, n_workers: int | None = None) -> Iterator[None]:
    """Ambiently select the execution backend for runtimes constructed
    inside the ``with`` block (and not given an explicit ``backend=``).

    This is how the conformance sweep and the CLI run whole algorithms —
    which build their runtimes internally — on the process backend.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    global _DEFAULT_BACKEND, _DEFAULT_WORKERS
    prev = (_DEFAULT_BACKEND, _DEFAULT_WORKERS)
    _DEFAULT_BACKEND = backend
    _DEFAULT_WORKERS = n_workers
    try:
        yield
    finally:
        _DEFAULT_BACKEND, _DEFAULT_WORKERS = prev


@contextlib.contextmanager
def use_process_faults(plan: Any) -> Iterator[None]:
    """Ambiently arm a :class:`~repro.core.chaos.FaultPlan` of process
    faults for runtimes constructed inside the ``with`` block.

    Only bites on ``backend="process"`` runs — there is no process to
    kill on the serial path — which is exactly what the cross-backend
    oracle exploits: the serial twin of a fault-injected process run is
    automatically fault-free, and the two must still be bit-identical.
    Simulated faults need a chaos runtime (``ChaosRuntime(config,
    plan=plan)``), so a plan with any raises ValueError.
    """
    if plan is not None and not plan.simulated_is_null:
        raise ValueError(
            "use_process_faults arms real process faults only; run "
            "simulated faults on a chaos runtime (ChaosRuntime(config, "
            "plan=plan))"
        )
    global _DEFAULT_PROCESS_FAULTS
    prev = _DEFAULT_PROCESS_FAULTS
    _DEFAULT_PROCESS_FAULTS = plan
    try:
        yield
    finally:
        _DEFAULT_PROCESS_FAULTS = prev


# Heavy submodule symbols, loaded on first touch to keep this package
# importable from repro.core.runtime without a cycle.
_LAZY = {
    "WorkerPool": "pool",
    "get_pool": "pool",
    "shutdown_pool": "pool",
    "CallableShipError": "pool",
    "WorkerCrashError": "pool",
    "encode_callable": "pool",
    "decode_callable": "pool",
    "ShmArena": "shm",
    "export_store": "shm",
    "attach_store": "shm",
    "scrub_arenas": "shm",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
