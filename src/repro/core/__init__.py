"""Core AMPC/MPC simulation machinery (paper §2).

Public surface:

* :class:`AMPCConfig` — deployment parameters (ε, S, P, budgets, seed).
* :class:`AMPCRuntime` — rounds, stores, machines, accounting.
* :class:`MPCRuntime` — message-passing-only runtime for baselines.
* :func:`use_runtime` / :func:`new_runtime` — the runtime factory every
  solve builds its runtimes with (backend, workers, fault plan).
* :class:`DistributedDataStore` — one round's key-value store D_i.
* :class:`MachineContext` / :class:`MPCMachineContext` — per-machine APIs.
* :class:`RoundStats` / :class:`RunReport` — the cost ledger.
* :class:`FaultPlan` / :class:`ChaosRuntime` / :func:`arm` — the chaos
  layer: server outages, replicated stores with failover, checkpointed
  round replay (see :mod:`repro.core.chaos`).
"""

from .chaos import (
    ChaosMixin,
    ChaosRuntime,
    ChaosSession,
    FaultPlan,
    RetryPolicy,
    arm,
)
from .config import AMPCConfig
from .cost import RoundStats, RunReport, Timer, load_balance_gini, merge_reports
from .dds import DistributedDataStore, ReplicatedDataStore
from .errors import (
    AdaptivityError,
    AMPCError,
    BudgetExceededError,
    MachineCrash,
    RoundAbortedError,
    RoundProtocolError,
    ServerUnavailableError,
    StoreNotSealedError,
    StoreSealedError,
    ValueSizeError,
)
from .machine import (
    CrashingContext,
    MachineContext,
    MPCMachineContext,
    TransactionalContextMixin,
)
from .partition import (
    key_hash,
    machine_of,
    partition_items,
    replica_servers,
    server_of,
    splitmix64,
)
from .pram import PRAMSimulator
from .runtime import (
    AMPCRuntime,
    MPCRuntime,
    RoundCheckpoint,
    RoundResult,
    new_runtime,
    use_runtime,
)
from .slackness import SlacknessEstimate, SlacknessModel, estimate_run

__all__ = [
    "AMPCConfig",
    "AMPCRuntime",
    "MPCRuntime",
    "new_runtime",
    "use_runtime",
    "RoundResult",
    "DistributedDataStore",
    "MachineContext",
    "MPCMachineContext",
    "RoundStats",
    "RunReport",
    "Timer",
    "merge_reports",
    "load_balance_gini",
    "AMPCError",
    "BudgetExceededError",
    "StoreSealedError",
    "StoreNotSealedError",
    "ValueSizeError",
    "RoundProtocolError",
    "AdaptivityError",
    "key_hash",
    "server_of",
    "machine_of",
    "partition_items",
    "splitmix64",
    "PRAMSimulator",
    "MachineCrash",
    "CrashingContext",
    "TransactionalContextMixin",
    "ReplicatedDataStore",
    "replica_servers",
    "ServerUnavailableError",
    "RoundAbortedError",
    "RoundCheckpoint",
    "FaultPlan",
    "RetryPolicy",
    "ChaosSession",
    "ChaosMixin",
    "ChaosRuntime",
    "arm",
    "SlacknessModel",
    "SlacknessEstimate",
    "estimate_run",
]
