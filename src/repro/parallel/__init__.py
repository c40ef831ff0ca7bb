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

or, for solves that construct their runtimes internally (the verify
sweep, the CLI, the algorithm entry points), through the runtime
factory of :func:`repro.core.runtime.use_runtime`::

    with use_runtime(partial(AMPCRuntime, backend="process", n_workers=4)):
        result = repro.connectivity(graph, epsilon=0.5, seed=0)

A :class:`~repro.core.chaos.ChaosRuntime` takes the same two arguments
beside its ``plan=``; that is how process faults reach a whole solve.

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
placement hash sweep per column chunk, each pair checked again by
``check_write``, whose row-layout check only the store can make), and
batch writes go straight through ``write_array``. Armed machine hooks fire in op order as the loop
passes. The ``replay_items`` cell of ``repro perf collect --suite
smoke`` (process-backend matching: per-item rounds, scalar writes)
measures this constant.
"""

from __future__ import annotations

import os
from typing import Any

__all__ = ["autodetect_workers", "BACKENDS"]

BACKENDS = ("serial", "process")


def autodetect_workers() -> int:
    """Worker count when none was requested: one per core, capped at 8.

    The cap reflects the sharding granularity (machines per round);
    beyond 8 workers the merge constant dominates for the instance sizes
    this simulator targets.
    """
    return max(1, min(8, os.cpu_count() or 1))


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
