"""Runtime invariant observers: the paper's §2 guarantees, checked live.

The theorems of the paper are quantitative statements about *executions*:
every machine issues at most O(S) queries and writes per round (the budget
invariant), all adaptive reads of round i target the sealed store D_{i-1}
(the round-discipline invariant), work and key-value pairs spread over
machines and DDS servers within the Lemma 2.1 balance bounds, and the whole
execution is a pure function of (input, config.seed). This module turns
each of those statements into an *observer* that watches a run through the
hook points in :mod:`repro.core.runtime`, :mod:`repro.core.machine`, and
:mod:`repro.core.dds` and records an :class:`InvariantViolation` the moment
an execution strays from the model.

Usage::

    from repro.verify.invariants import InvariantSuite

    with InvariantSuite() as suite:
        result = repro.connectivity(graph, seed=0)   # runtimes made inside
    suite.check()          # raises InvariantViolationError on violations

Observers are installed globally (every runtime constructed inside the
``with`` block is watched, including runtimes algorithms build internally)
or per-instance via :meth:`repro.core.runtime.AMPCRuntime.attach_observer`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.cost import RoundStats
from repro.core.dds import DistributedDataStore, ReplicatedDataStore
from repro.core.errors import AMPCError
from repro.core.hooks import RuntimeObserver
from repro.core.machine import MPCMachineContext
from repro.core.runtime import (
    AMPCRuntime,
    MPCRuntime,
    install_observer,
    uninstall_observer,
)


class InvariantViolationError(AMPCError):
    """An execution violated a model invariant (and the suite is strict)."""


@dataclass(frozen=True)
class InvariantViolation:
    """One observed departure from the AMPC model.

    Attributes:
        invariant: which invariant was violated ("budget",
            "store-discipline", "partition-balance", "mpc-discipline", ...).
        message: human-readable description with the observed quantities.
        tag: ledger tag of the round in which it happened, when known.
    """

    invariant: str
    message: str
    tag: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" [{self.tag}]" if self.tag else ""
        return f"{self.invariant}{where}: {self.message}"


class Observer(RuntimeObserver):
    """Base class for conformance observers.

    This is :class:`repro.core.hooks.RuntimeObserver` under its historical
    verify-layer name. It must stay an *empty* subclass: the runtime's
    :class:`~repro.core.hooks.ObserverFan` only dispatches hooks a subclass
    actually overrides, and redefining hooks here (even as no-ops) would
    make every conformance observer look like it overrides everything.
    """


class RecordingObserver(Observer):
    """Observer that appends violations to a shared sink."""

    invariant = "invariant"

    def __init__(self, sink: list[InvariantViolation], strict: bool = False):
        self.violations = sink
        self.strict = strict

    def record(self, message: str, tag: str = "") -> None:
        violation = InvariantViolation(self.invariant, message, tag)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError(str(violation))


class BudgetObserver(RecordingObserver):
    """Paper §2: every machine issues ≤ O(S) queries and writes per round.

    The concrete ceiling is ``config.read_budget`` / ``config.write_budget``
    (``budget_multiplier · space``). Simulated rounds are checked machine by
    machine; analytically-charged primitives are checked against their
    recorded per-machine maxima.
    """

    invariant = "budget"

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        cfg = runtime.config
        for ctx in contexts:
            if ctx.reads_used > cfg.read_budget:
                self.record(
                    f"machine {ctx.machine_id} issued {ctx.reads_used} reads "
                    f"(budget {cfg.read_budget})",
                    stats.tag,
                )
            if ctx.writes_used > cfg.write_budget:
                self.record(
                    f"machine {ctx.machine_id} issued {ctx.writes_used} "
                    f"writes (budget {cfg.write_budget})",
                    stats.tag,
                )

    def on_charge(self, runtime, stats):
        cfg = runtime.config
        if stats.max_machine_reads > cfg.read_budget:
            self.record(
                f"charged primitive needs {stats.max_machine_reads} reads "
                f"per machine (budget {cfg.read_budget})",
                stats.tag,
            )
        if stats.max_machine_writes > cfg.write_budget:
            self.record(
                f"charged primitive needs {stats.max_machine_writes} writes "
                f"per machine (budget {cfg.write_budget})",
                stats.tag,
            )


class StoreDisciplineObserver(RecordingObserver):
    """Paper §2 round discipline: adaptivity confined to a single round.

    In round i machines may read only the *sealed* store D_{i-1} and write
    only the *unsealed* store D_i; D_i seals at the round boundary. The
    observer checks the staging of both stores at round start, that every
    machine read targets the round's designated read store (no reads of
    stale or future stores), that writes land in the designated next store,
    and that the next store is sealed by round end.
    """

    invariant = "store-discipline"

    def __init__(self, sink, strict=False):
        super().__init__(sink, strict)
        # id(runtime) -> (read_store, next_store) of the round in flight.
        self._active: dict[int, tuple[Any, Any]] = {}

    def on_round_start(self, runtime, read_store, next_store):
        if not read_store.sealed:
            self.record(
                f"round started with unsealed read store "
                f"D_{read_store.round_index}"
            )
        if next_store.sealed:
            self.record(
                f"round started with already-sealed next store "
                f"D_{next_store.round_index}"
            )
        if read_store is next_store:
            self.record("read store and next store are the same store")
        if next_store.round_index <= read_store.round_index:
            self.record(
                f"next store D_{next_store.round_index} does not follow "
                f"read store D_{read_store.round_index}"
            )
        self._active[id(runtime)] = (read_store, next_store)

    def on_machine_read(self, ctx, key):
        if not ctx._prev.sealed:
            self.record(
                f"machine {ctx.machine_id} read {key!r} from unsealed store "
                f"D_{ctx._prev.round_index}"
            )
        if ctx._prev is ctx._next:
            self.record(
                f"machine {ctx.machine_id} reads and writes the same store"
            )

    def on_machine_write(self, ctx, key):
        if ctx._next.sealed:
            self.record(
                f"machine {ctx.machine_id} wrote {key!r} into sealed store "
                f"D_{ctx._next.round_index}"
            )

    def on_machine_read_batch(self, ctx, namespace, ids):
        # One check per batch keeps the observed run O(1) per array op
        # while still catching any staging mistake the batch could make.
        if not ctx._prev.sealed:
            self.record(
                f"batch read of {len(ids)} {namespace!r} keys from unsealed "
                f"store D_{ctx._prev.round_index}"
            )
        if ctx._prev is ctx._next:
            self.record(
                f"batch read of {namespace!r} keys targets the store being "
                f"written"
            )

    def on_machine_write_batch(self, ctx, namespace, ids):
        if ctx._next.sealed:
            self.record(
                f"batch write of {len(ids)} {namespace!r} keys into sealed "
                f"store D_{ctx._next.round_index}"
            )

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        if not next_store.sealed:
            self.record(
                f"round ended without sealing D_{next_store.round_index}",
                stats.tag,
            )
        expected = self._active.pop(id(runtime), None)
        if expected is not None:
            exp_read, exp_next = expected
            for ctx in contexts:
                if ctx._prev is not exp_read:
                    self.record(
                        f"machine {ctx.machine_id} was wired to a stale "
                        f"read store",
                        stats.tag,
                    )
                if ctx._next is not exp_next:
                    self.record(
                        f"machine {ctx.machine_id} was wired to a stale "
                        f"next store",
                        stats.tag,
                    )


class PartitionBalanceObserver(RecordingObserver):
    """Lemma 2.1 balance: random placement spreads load near-uniformly.

    With r requests spread over P bins by the model's random assignment,
    the maximum bin load is O(r/P + log P) with high probability. The
    observer applies that shape — ``slack · (r/P + 2·log2(P) + 1)`` — to
    (a) the per-machine work-item assignment of every round and (b) the
    per-server read loads of every round's read store. The default slack
    is generous; a violation means placement is *grossly* unbalanced
    (e.g. a broken hash), not that a tail event occurred.

    Rounds that suffered DDS failovers are skipped on the server check:
    an outage legitimately concentrates reads on the surviving replicas.
    """

    invariant = "partition-balance"

    def __init__(self, sink, strict=False, slack: float = 4.0):
        super().__init__(sink, strict)
        self.slack = slack

    def _bound(self, total: int, bins: int) -> float:
        return self.slack * (total / bins + 2.0 * math.log2(max(bins, 2)) + 1.0)

    def on_assignment(self, runtime, assignment, n_items):
        p = runtime.config.n_machines
        if n_items == 0 or p <= 1:
            return
        counts = np.bincount(assignment, minlength=p)
        heaviest = int(counts.max())
        if heaviest > self._bound(n_items, p):
            self.record(
                f"machine assignment heaviest load {heaviest} of {n_items} "
                f"items over {p} machines exceeds "
                f"{self._bound(n_items, p):.1f}"
            )

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        if read_store.n_servers <= 1:
            return
        if isinstance(read_store, ReplicatedDataStore) and (
            read_store.failover_reads or read_store.down_servers
        ):
            return
        loads = read_store.server_read_loads
        total = int(loads.sum())
        if total == 0:
            return
        heaviest = int(loads.max())
        if heaviest > self._bound(total, read_store.n_servers):
            self.record(
                f"DDS server answered {heaviest} of {total} reads over "
                f"{read_store.n_servers} servers, bound "
                f"{self._bound(total, read_store.n_servers):.1f}",
                stats.tag,
            )


class MPCDisciplineObserver(RecordingObserver):
    """MPC baselines must stay message-passing-only (paper §2's simulation).

    An :class:`MPCRuntime` must hand out inbox-only contexts, and those
    contexts must only ever read their own ``("msg", machine_id)`` inbox.
    Both are structurally enforced; the observer asserts the structure
    held, so a future refactor cannot silently grant baselines adaptive
    reads (which would invalidate the Figure 1 comparison).
    """

    invariant = "mpc-discipline"

    def on_machine_read(self, ctx, key):
        if isinstance(ctx, MPCMachineContext):
            if not (
                isinstance(key, tuple)
                and len(key) == 2
                and key[0] == "msg"
                and key[1] == ctx.machine_id
            ):
                self.record(
                    f"MPC machine {ctx.machine_id} read non-inbox key {key!r}"
                )

    def on_machine_read_batch(self, ctx, namespace, ids):
        if isinstance(ctx, MPCMachineContext):
            self.record(
                f"MPC machine {ctx.machine_id} issued batch adaptive reads "
                f"of {namespace!r} keys"
            )

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        if isinstance(runtime, MPCRuntime):
            for ctx in contexts:
                if not isinstance(ctx, MPCMachineContext):
                    self.record(
                        f"MPC runtime ran non-MPC context "
                        f"{type(ctx).__name__}",
                        stats.tag,
                    )


class TraceObserver(Observer):
    """Records a seed-determinism digest of the execution.

    Collects the model-cost fields of every ledger record (everything except
    wall time, which is host noise) plus per-round store fingerprints. Two
    runs of the same (input, config) must produce equal :meth:`digest`
    values — the runner's seed-determinism check compares them, and
    :mod:`tests.test_verify_determinism` sweeps the seed matrix.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def _stats_event(self, stats: RoundStats) -> tuple:
        return (
            stats.tag,
            stats.kind,
            stats.rounds,
            stats.total_reads,
            stats.total_writes,
            stats.max_machine_reads,
            stats.max_machine_writes,
            stats.n_machines_active,
            stats.budget_violations,
            stats.max_server_load,
        )

    def on_bootstrap(self, runtime, store, count):
        self.events.append(("bootstrap", count, len(store)))

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        self.events.append(
            self._stats_event(stats) + (len(next_store), next_store.n_pairs)
        )

    def on_charge(self, runtime, stats):
        self.events.append(self._stats_event(stats))

    def digest(self) -> str:
        """Stable hex digest of the recorded execution trace."""
        h = hashlib.sha256()
        for event in self.events:
            h.update(repr(event).encode())
        return h.hexdigest()


class InvariantSuite:
    """The standard invariant observers bundled behind one installable unit.

    Args:
        strict: raise :class:`InvariantViolationError` at the first
            violation instead of collecting.
        balance_slack: constant factor of the Lemma 2.1 balance bound.
        trace: also record a :class:`TraceObserver` determinism digest
            (exposed as :attr:`trace`).

    Use as a context manager to observe every runtime constructed in the
    block, or pass ``suite.observers`` to
    :meth:`~repro.core.runtime.AMPCRuntime.attach_observer` one by one.
    """

    def __init__(
        self,
        *,
        strict: bool = False,
        balance_slack: float = 4.0,
        trace: bool = False,
    ) -> None:
        self.strict = strict
        self.balance_slack = balance_slack
        self.violations = []
        self.observers: list[Observer] = [
            BudgetObserver(self.violations, strict),
            StoreDisciplineObserver(self.violations, strict),
            PartitionBalanceObserver(self.violations, strict, balance_slack),
            MPCDisciplineObserver(self.violations, strict),
        ]
        self.trace = TraceObserver() if trace else None
        if self.trace is not None:
            self.observers.append(self.trace)

    def __enter__(self) -> "InvariantSuite":
        for obs in self.observers:
            install_observer(obs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for obs in self.observers:
            uninstall_observer(obs)

    def summary(self) -> dict[str, int]:
        """Violation counts keyed by invariant name."""
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def check(self) -> None:
        """Raise :class:`InvariantViolationError` if any violation occurred."""
        if self.violations:
            listing = "\n".join(f"  - {v}" for v in self.violations[:20])
            extra = (
                f"\n  ... and {len(self.violations) - 20} more"
                if len(self.violations) > 20
                else ""
            )
            raise InvariantViolationError(
                f"{len(self.violations)} invariant violation(s):\n"
                f"{listing}{extra}"
            )
