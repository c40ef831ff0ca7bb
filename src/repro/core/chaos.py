"""Chaos engineering for AMPC deployments (paper §2.1, made adversarial).

The paper's practicality argument says AMPC inherits MapReduce-style
fault tolerance because round stores are immutable. The follow-up
implementation work ("Theory meets Practice", PAPERS.md) runs AMPC on
real clusters where the dominant failures are *not* worker crashes but
DDS serving machines going away and stragglers stretching the tail. This
module makes every one of those failure modes executable and measurable:

* :class:`FaultPlan` — a composable, seed-deterministic description of
  what fails when: machine crashes, DDS server outages, transient read
  timeouts and straggler delays, plus the :class:`RetryPolicy` the
  client side answers them with — and the real worker kills, hangs,
  delayed replies and fork failures the process backend's pool injects.
* :class:`ChaosSession` — the live fault channel connecting a runtime to
  the :class:`~repro.core.dds.ReplicatedDataStore` instances it builds:
  which servers are down right now, the timeout dice, and the recovery
  counters that land in the cost ledger.
* :class:`ChaosMixin` / :class:`ChaosRuntime` / :func:`arm` — the
  runtime layer. Reads fail over to backup replicas while the outage is
  survivable; when it is not (more servers down than the replication
  factor covers, or the retry deadline expires), the *whole round* is
  aborted, rolled back to the :meth:`~repro.core.runtime.AMPCRuntime.checkpoint`
  taken at round entry, and replayed — recovery the immutable-store
  design makes an O(1) pointer swap.

A solve that builds its own runtimes is armed whole through the runtime
factory (:func:`~repro.core.runtime.use_runtime`)::

    with use_runtime(lambda c: ChaosRuntime(c.with_replication(2), plan=plan)):
        repro.bc_labeling(graph)       # every stage's runtime armed

The minimal §2.1 story — worker crashes only — is
``ChaosRuntime(config, plan=FaultPlan.machine_crashes(p))``.

Everything is deterministic in ``FaultPlan.seed`` and independent of the
algorithm's own randomness, so a faulty run must produce *bit-identical*
results to a fault-free run — the property the chaos tests assert while
the recovery ledger records what the recovery cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from .config import AMPCConfig
from .dds import KEY_SLICE, DistributedDataStore, ReplicatedDataStore
from .errors import MachineCrash, RoundAbortedError, ServerUnavailableError
from .machine import (
    TRANSACTIONAL_SLOTS,
    CrashingContext,
    TransactionalContextMixin,
)
from .partition import splitmix64
from .runtime import (
    _FUSED,
    _PER_BLOCK,
    AMPCRuntime,
    RoundResult,
    distinct_ranges,
    expand_ranges,
)

__all__ = [
    "FaultPlan",
    "BoundProcessFaults",
    "RetryPolicy",
    "ChaosSession",
    "ChaosMixin",
    "ChaosRuntime",
    "arm",
]

# Independent fault streams are derived from (plan.seed, salt, ...); the
# salts keep outage draws, crash points, timeout dice and straggler hits
# statistically independent of each other *and* of every algorithm RNG
# (which derives from AMPCConfig.seed instead).
_SALT_OUTAGE = 0x0D1E
_SALT_CRASH = 0xC4A5
_SALT_TIMEOUT = 0x7136
_SALT_STRAGGLER = 0x57A6
_SALT_PROC = 0x9B0C
_SALT_FORK = 0xF08C


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side answer to transient DDS faults.

    Attributes:
        max_read_attempts: attempts per read before the round is declared
            failed (first attempt included).
        base_backoff_s: simulated wait before the first retry.
        backoff_multiplier: exponential growth factor per further retry.
        max_backoff_s: cap on a single backoff wait.
        round_deadline_s: total simulated retry time a single round
            execution may accumulate before it is aborted and replayed
            from checkpoint.
        max_round_attempts: whole-round executions (initial + replays)
            before the runtime gives up and raises
            :class:`~repro.core.errors.RoundAbortedError` to the driver.
    """

    max_read_attempts: int = 6
    base_backoff_s: float = 100e-6
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.05
    round_deadline_s: float = 5.0
    max_round_attempts: int = 8

    def __post_init__(self) -> None:
        if self.max_read_attempts < 1:
            raise ValueError("max_read_attempts must be >= 1")
        if self.max_round_attempts < 1:
            raise ValueError("max_round_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Simulated wait before retry number ``attempt`` (1-based)."""
        wait = self.base_backoff_s * self.backoff_multiplier ** max(
            attempt - 1, 0
        )
        return min(wait, self.max_backoff_s)


#: Rates of the faults a chaos runtime simulates inside the model, and
#: of the real process faults the worker pool injects.
_SIMULATED = ("machine_crash_probability", "server_outage_probability",
              "read_timeout_probability", "straggler_probability")
_PROCESS = ("worker_kill_probability", "worker_hang_probability",
            "reply_delay_probability", "fork_failure_probability")
#: The plan's delays and retry cap: non-negative, composed by max.
_LIMITS = ("straggler_delay_s", "reply_delay_s", "max_machine_retries")


@dataclass(frozen=True)
class FaultPlan:
    """What fails, how often, and how recovery is paced — deterministically.

    A plan is inert data: arm a runtime with it (``ChaosRuntime(config,
    plan=plan)`` or ``arm(RuntimeCls)(config, plan=plan)``) to make it
    bite. All randomness derives from ``seed`` via independent streams,
    so the same plan replays the same faults against the same workload.

    Plans compose: ``FaultPlan.machine_crashes(0.2) |
    FaultPlan.server_outages(0.1)`` combines failure modes, OR-ing the
    probabilities of each fault type as independent events.

    Two kinds of fault share the plan. *Simulated* faults perturb the
    AMPC model inside one interpreter and force serial rounds. *Process*
    faults hit the real OS workers of the ``backend="process"`` pool
    (:mod:`repro.parallel.pool`), which re-runs a lost worker's shard in
    the parent; they are ignored on the serial path, where there is no
    process to kill. A plan with process faults only keeps plain stores
    and shards normally; the runtimes a solve builds itself are armed
    through the runtime factory::

        with use_runtime(lambda c: ChaosRuntime(
                c, plan=plan, backend="process", n_workers=2)):
            repro.maximal_independent_set(graph, seed=0)

    With process faults armed the pool declares a worker lost when it
    has not replied after :data:`~repro.parallel.pool.FAULT_DEADLINE_S`
    (1 s) rather than the plain 60 s, so every injected hang costs one
    second.

    Attributes:
        seed: master seed of every fault stream.
        machine_crash_probability: chance an active machine crashes
            mid-read while running its share of a round (a replacement
            re-runs the machine's items from scratch; replacements can
            crash again, bounded by ``max_machine_retries``).
        server_outage_probability: chance, per DDS serving machine and
            per round execution, that the server is down for that whole
            execution. Reads fail over to backup replicas; a key with
            every replica down aborts the round.
        read_timeout_probability: chance a served read times out
            transiently; each retry waits ``retry.backoff`` and re-rolls.
        straggler_probability: chance a machine finishes the round late
            by ``straggler_delay_s`` (simulated time; results unchanged).
        straggler_delay_s: delay a straggler adds.
        max_machine_retries: replacement machines per machine and round.
        retry: the client-side :class:`RetryPolicy`.
        worker_kill_probability: chance a pool worker SIGKILLs itself
            mid-task, per shard dispatch.
        worker_hang_probability: chance a worker computes but never
            replies (the parent sees a hang).
        reply_delay_probability: chance a worker delays its reply by
            ``reply_delay_s`` (wall time, nothing else).
        reply_delay_s: delay of a delayed reply.
        fork_failure_probability: chance the first fork of a worker
            respawn fails.
    """

    seed: int = 0
    machine_crash_probability: float = 0.0
    server_outage_probability: float = 0.0
    read_timeout_probability: float = 0.0
    straggler_probability: float = 0.0
    straggler_delay_s: float = 0.005
    max_machine_retries: int = 16
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    worker_kill_probability: float = 0.0
    worker_hang_probability: float = 0.0
    reply_delay_probability: float = 0.0
    reply_delay_s: float = 0.02
    fork_failure_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in _SIMULATED + _PROCESS:
            # A simulated fault that always fired would never let a round
            # finish; a lost worker's shard is re-run by the parent.
            p, closed = getattr(self, name), name in _PROCESS
            if not (0.0 <= p < 1.0 or closed and p == 1.0):
                raise ValueError(
                    f"{name} must be in [0, 1{']' if closed else ')'}, "
                    f"got {p}"
                )
        for name in _LIMITS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- constructors ------------------------------------------------------

    @classmethod
    def machine_crashes(
        cls, probability: float, *, seed: int = 0, max_retries: int = 16
    ) -> "FaultPlan":
        """Plan with only worker-machine crashes (the §2.1 story)."""
        return cls(
            seed=seed,
            machine_crash_probability=probability,
            max_machine_retries=max_retries,
        )

    @classmethod
    def server_outages(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Plan with only DDS serving-machine outages."""
        return cls(seed=seed, server_outage_probability=probability)

    @classmethod
    def read_timeouts(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Plan with only transient read timeouts."""
        return cls(seed=seed, read_timeout_probability=probability)

    @classmethod
    def stragglers(
        cls, probability: float, delay_s: float = 0.005, *, seed: int = 0
    ) -> "FaultPlan":
        """Plan with only straggler delays (latency, not correctness)."""
        return cls(
            seed=seed,
            straggler_probability=probability,
            straggler_delay_s=delay_s,
        )

    @classmethod
    def kills(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Plan that SIGKILLs pool workers mid-task."""
        return cls(seed=seed, worker_kill_probability=probability)

    @classmethod
    def hangs(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Plan that drops replies (the parent observes a hung worker)."""
        return cls(seed=seed, worker_hang_probability=probability)

    @classmethod
    def delays(
        cls, probability: float, delay_s: float = 0.02, *, seed: int = 0
    ) -> "FaultPlan":
        """Plan that delays replies (stragglers: wall time, nothing else)."""
        return cls(
            seed=seed,
            reply_delay_probability=probability,
            reply_delay_s=delay_s,
        )

    @classmethod
    def fork_failures(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Plan that fails the first fork of a worker respawn."""
        return cls(seed=seed, fork_failure_probability=probability)

    # -- composition -------------------------------------------------------

    def compose(self, other: "FaultPlan") -> "FaultPlan":
        """Combine two plans: each fault type fires if either plan fires.

        Probabilities OR as independent events (``1 - (1 - p)(1 - q)``);
        delays and retry caps take the larger value; the retry policy of
        the *left* plan wins unless it is the default. Seeds mix
        deterministically, so composing the same plans always replays
        the same faults.
        """
        seed = (
            self.seed
            if other.seed == self.seed
            else splitmix64(self.seed ^ splitmix64(other.seed)) & 0x7FFFFFFF
        )
        return replace(
            self,
            seed=seed,
            retry=self.retry if self.retry != RetryPolicy() else other.retry,
            **{
                name: 1.0 - (1.0 - getattr(self, name))
                * (1.0 - getattr(other, name))
                for name in _SIMULATED + _PROCESS
            },
            **{
                name: max(getattr(self, name), getattr(other, name))
                for name in _LIMITS
            },
        )

    __or__ = compose

    def with_seed(self, seed: int) -> "FaultPlan":
        """Copy of this plan with a different fault seed."""
        return replace(self, seed=seed)

    @property
    def is_null(self) -> bool:
        """True if the plan injects nothing (armed runtime == plain run)."""
        return not any(getattr(self, name) for name in _SIMULATED + _PROCESS)

    @property
    def simulated_is_null(self) -> bool:
        """True if no *simulated* fault can fire (process faults aside).

        Simulated faults must execute serially (crash RNGs advance in
        machine order, replicated stores track per-key failover), so
        this is exactly the condition under which a chaos runtime stays
        :attr:`ChaosMixin.parallel_capable` and keeps plain stores.
        """
        return not any(getattr(self, name) for name in _SIMULATED)

    # -- fault streams -----------------------------------------------------

    def rng(self, *salts: int) -> np.random.Generator:
        """Independent generator for one fault stream."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, *salts)))

    def draw_server_outages(
        self, round_index: int, attempt: int, n_servers: int
    ) -> frozenset[int]:
        """The serving machines down for one round execution.

        Deterministic in (seed, round, attempt). The chaos runtime draws
        this for a round's *first* execution only — an abort replaces
        the failed servers, so replays run on the repaired cluster —
        which is what lets a driver survive losing more servers than the
        replication factor covers.
        """
        p = self.server_outage_probability
        if p <= 0.0 or n_servers <= 0:
            return frozenset()
        rng = self.rng(_SALT_OUTAGE, round_index, attempt)
        mask = rng.random(n_servers) < p
        return frozenset(int(s) for s in np.flatnonzero(mask))

    def directive_for(self, round_index: int, task_index: int) -> tuple | None:
        """The process-fault directive (or None) for the dispatch of one
        shard — decided in the parent, so a fault schedule replays
        exactly."""
        rng = self.rng(_SALT_PROC, round_index, task_index)
        if rng.random() < self.worker_kill_probability:
            return ("kill",)
        if rng.random() < self.worker_hang_probability:
            return ("drop",)
        if rng.random() < self.reply_delay_probability:
            return ("delay", self.reply_delay_s)
        return None

    def fork_fails(
        self, round_index: int, worker_idx: int, respawn_seq: int,
        spawn_attempt: int,
    ) -> bool:
        """Whether one fork attempt of one respawn fails (first attempt
        only, so a respawn retry always converges)."""
        if spawn_attempt > 0 or self.fork_failure_probability <= 0.0:
            return False
        rng = self.rng(_SALT_FORK, round_index, worker_idx, respawn_seq)
        return bool(rng.random() < self.fork_failure_probability)

    def bind(self, round_index: int) -> "BoundProcessFaults":
        """The per-round view the pool's supervisor consumes."""
        return BoundProcessFaults(self, round_index)


class BoundProcessFaults:
    """A :class:`FaultPlan`'s process faults fixed to one logical round —
    the duck-typed ``faults`` argument of ``WorkerPool.run_tasks``."""

    __slots__ = ("plan", "round_index")

    def __init__(self, plan: FaultPlan, round_index: int) -> None:
        self.plan = plan
        self.round_index = round_index

    def directive_for(self, task_index: int) -> tuple | None:
        return self.plan.directive_for(self.round_index, task_index)

    def fork_fails(
        self, worker_idx: int, respawn_seq: int, spawn_attempt: int
    ) -> bool:
        return self.plan.fork_fails(
            self.round_index, worker_idx, respawn_seq, spawn_attempt
        )


#: What recovery cost a session accumulates while a round is in flight;
#: :class:`~repro.core.cost.RoundStats` has a field of each name.
_RECOVERY_COUNTERS = (
    "crashes",
    "server_outages",
    "stragglers",
    "retry_reads",
    "failover_reads",
    "wasted_reads",
    "checkpoint_restores",
    "recovery_wall_s",
)


class ChaosSession:
    """Live fault channel between a chaos runtime and its stores.

    The runtime updates it at each round execution (outage set, timeout
    dice, deadline clock); every :class:`ReplicatedDataStore` built by
    the runtime consults it on every read. Recovery counters accumulate
    here until the round succeeds, then flush into that round's
    :class:`~repro.core.cost.RoundStats`.
    """

    __slots__ = (
        "plan",
        "down",
        "active",
        "rng",
        "crash_rng",
        "simulated_s",
        "attempt_reads",
        *_RECOVERY_COUNTERS,
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.down: frozenset[int] = frozenset()
        self.active = False
        self.rng = plan.rng(_SALT_TIMEOUT)
        self.crash_rng: np.random.Generator | None = None
        self.simulated_s = 0.0
        self.attempt_reads = 0
        for name in _RECOVERY_COUNTERS:
            setattr(self, name, 0)

    # -- runtime-side lifecycle -------------------------------------------

    def begin_attempt(
        self,
        downed: frozenset[int],
        rng: np.random.Generator,
        crash_rng: np.random.Generator | None = None,
    ) -> None:
        """Start one round execution: arm the outage set, the timeout and
        machine-crash dice (``crash_rng`` None: no machine can crash) and
        reset the per-execution clocks."""
        self.down = downed
        self.rng = rng
        self.crash_rng = crash_rng
        self.active = True
        self.simulated_s = 0.0
        self.attempt_reads = 0
        self.server_outages += len(downed)

    def end_round(self) -> None:
        """The round execution ended (sealed or aborted): servers come
        back up, faults disarm."""
        self.down = frozenset()
        self.active = False
        self.attempt_reads = 0

    def note_round_abort(self, wall_wasted_s: float) -> None:
        """Record a whole-round abort: everything read so far is waste."""
        self.checkpoint_restores += 1
        self.wasted_reads += self.attempt_reads
        self.recovery_wall_s += wall_wasted_s
        self.end_round()

    def on_machine_crash(self, wasted_reads: int) -> None:
        """Record one machine crash and the reads its attempt burned."""
        self.crashes += 1
        self.wasted_reads += wasted_reads
        # Those reads are already counted as waste; don't count them again
        # if the whole round aborts later.
        self.attempt_reads -= min(wasted_reads, self.attempt_reads)

    def flush_into(self, stats) -> None:
        """Move accumulated recovery counters into a round's statistics."""
        for name in _RECOVERY_COUNTERS:
            setattr(stats, name, getattr(stats, name) + getattr(self, name))
            setattr(self, name, 0)
        self.end_round()

    # -- store-side hooks (ReplicatedDataStore injector protocol) ---------

    def on_read(self, server: int) -> None:
        """One read served by ``server``; may suffer transient timeouts.

        Each timeout is retried after an exponential backoff (simulated
        time). Exhausting :attr:`RetryPolicy.max_read_attempts` or the
        per-round deadline aborts the round for checkpoint replay.
        """
        if not self.active:
            return
        self.attempt_reads += 1
        p = self.plan.read_timeout_probability
        if p <= 0.0:
            return
        policy = self.plan.retry
        attempt = 1
        while self.rng.random() < p:
            if attempt >= policy.max_read_attempts:
                raise RoundAbortedError(
                    f"read against DDS server {server} timed out "
                    f"{attempt} times (max_read_attempts="
                    f"{policy.max_read_attempts})"
                )
            wait = policy.backoff(attempt)
            self.simulated_s += wait
            self.recovery_wall_s += wait
            self.retry_reads += 1
            self.attempt_reads += 1
            if self.simulated_s > policy.round_deadline_s:
                raise RoundAbortedError(
                    f"round retry deadline exceeded "
                    f"({self.simulated_s:.4f}s simulated > "
                    f"{policy.round_deadline_s}s)"
                )
            attempt += 1

    def on_failover(self, probes: int) -> None:
        """``probes`` replicas had to be skipped before a live one."""
        if self.active:
            self.failover_reads += probes


class ChaosMixin:
    """Chaos layer over any :class:`AMPCRuntime` subclass.

    Combine with a runtime class (see :func:`arm`) or use the premixed
    :class:`ChaosRuntime`. The mixin

    * builds :class:`ReplicatedDataStore` round stores (k =
      ``config.replication_factor``) wired to one :class:`ChaosSession`;
    * runs each machine's program — per-item, per-block or fused — in
      the crash/replacement loop (fresh budget per replacement, waste to
      the ledger);
    * checkpoints before every round and replays the round from the
      checkpoint when it aborts (server losses beyond the replication
      factor, retry deadline exhaustion) — replays run on the repaired
      cluster, so the driver survives arbitrarily deep server losses;
    * draws straggler delays and accounts all recovery work into
      :class:`~repro.core.cost.RoundStats` / ``RunReport.recovery_summary()``.
    """

    def __init__(
        self, config: AMPCConfig, *args, plan: FaultPlan | None = None, **kwargs
    ) -> None:
        super().__init__(config, *args, **kwargs)
        self.plan = FaultPlan() if plan is None else plan
        self.session = ChaosSession(self.plan)
        if not self.plan.is_null:
            # Real process-level faults ride the pool's dispatch path.
            self.process_fault_plan = self.plan

    @property
    def parallel_capable(self) -> bool:
        """Whether this chaos runtime's rounds may shard over the
        process backend.

        Rounds with *simulated* faults never shard: the crash RNG
        advances in machine execution order and replicated stores carry
        per-key failover state, both of which must replay serially for
        fault plans to fire at identical operations. Plans injecting
        only *process-level* faults (worker kills/hangs/delayed replies,
        fork failures) have nothing to simulate in-process — the pool
        re-runs a lost worker's shard in the parent — so those runs shard
        normally.
        """
        return self.plan.simulated_is_null

    # -- store construction ------------------------------------------------

    def _build_store(self, round_index: int) -> DistributedDataStore:
        if self.plan.simulated_is_null:
            # No outage/timeout can fire: keep plain stores, which have
            # no failover state to drive and are exactly what the
            # shared-memory export (hence the process backend) accepts.
            return super()._build_store(round_index)
        return ReplicatedDataStore(
            round_index=round_index,
            n_servers=self.config.n_machines,
            seed=self.config.seed,
            max_words=self.config.max_words,
            replication=self.config.replication_factor,
            injector=self.session,
        )

    # -- convenience mirrors ----------------------------------------------

    @property
    def crashes_injected(self) -> int:
        return self.report.crashes + self.session.crashes

    @property
    def checkpoint_restores(self) -> int:
        return self.report.checkpoint_restores + self.session.checkpoint_restores

    # -- the round loop ----------------------------------------------------

    def _run_round(
        self, shape: str, work: Sequence[Any], worker: Any, **kwargs: Any
    ) -> RoundResult:
        """One AMPC round — any program shape — under the fault plan,
        recovered transparently.

        The first execution runs under the round's drawn outage set;
        reads whose primary is down fail over to backups. If the outage
        exceeds what the replication factor covers (some key's every
        replica down), the execution aborts, the failed servers are
        replaced — their partitions rebuilt from the checkpoint, an O(1)
        pointer swap since the readable store is immutable — and the
        round replays on the repaired cluster. Crash points and timeout
        dice are re-drawn per execution (deterministic in the plan seed,
        the logical round number, and the attempt number), so a
        surviving execution returns results bit-identical to a
        fault-free run.

        The unit of a crash is a machine: one die per active machine per
        execution (:meth:`_run_machine`). A fused program has no machine
        to crash, so under a crash plan it runs as a per-block program,
        one machine's items at a time.
        """
        plan = self.plan
        session = self.session
        logical_round = self._round_counter
        # A replay must stage the same readable store; a one-shot
        # iterable would be exhausted by the first (aborted) execution.
        for staged in ("setup", "setup_arrays"):
            if kwargs.get(staged) is not None:
                kwargs[staged] = list(kwargs[staged])
        crashing = plan.machine_crash_probability > 0.0
        if crashing and shape == _FUSED:
            shape, worker = _PER_BLOCK, _one_machine_at_a_time(worker)
        # Announce the replay point. An execution that raises has already
        # been aborted back to it by the round pipeline.
        self.checkpoint()
        max_attempts = max(1, plan.retry.max_round_attempts)
        last_error: Exception | None = None

        for attempt in range(max_attempts):
            # Outages strike the round's first execution. A replay runs
            # on the repaired cluster (failed servers replaced, their
            # partitions restored from the surviving replicas and the
            # checkpointed previous store) — the MapReduce recovery
            # story §2.1 appeals to. Crash and timeout faults re-roll.
            downed = (
                plan.draw_server_outages(
                    logical_round, attempt, self.config.n_machines
                )
                if attempt == 0
                else frozenset()
            )
            session.begin_attempt(
                downed=downed,
                rng=plan.rng(_SALT_TIMEOUT, logical_round, attempt),
                crash_rng=(
                    plan.rng(_SALT_CRASH, logical_round, attempt)
                    if crashing else None
                ),
            )
            started = time.perf_counter()
            try:
                result = super()._run_round(shape, work, worker, **kwargs)
            except (ServerUnavailableError, RoundAbortedError) as exc:
                last_error = exc
                session.note_round_abort(time.perf_counter() - started)
                continue
            self._draw_stragglers(result.stats, logical_round)
            session.flush_into(result.stats)
            return result

        raise RoundAbortedError(
            f"round {logical_round} ({kwargs['tag']!r}) failed "
            f"all {max_attempts} executions under the fault plan"
        ) from last_error

    # -- internals ---------------------------------------------------------

    def _run_machine(
        self, run: Callable[..., Any], ctx: Any, worker: Any, items: Any
    ) -> Any:
        """One machine's program in the crash/replacement loop: a crashed
        attempt is rolled back whole (fresh budget, waste to the ledger,
        its reads taken back out of the store's load) and a replacement
        machine replays the machine's items. A machine that finishes
        cleanly commits its journaled writes."""
        session = self.session
        crash_rng = session.crash_rng
        # No dice without a crash plan; and the last replacement never
        # crashes, so the bounded simulation terminates.
        replacements = 0 if crash_rng is None else self.plan.max_machine_retries
        read_store = ctx._prev
        while True:
            if replacements and (
                crash_rng.random() < self.plan.machine_crash_probability
            ):
                ctx.crash_at = int(crash_rng.integers(0, 8))
                served = read_store.read_load()
            try:
                out = run(ctx, worker, items)
            except MachineCrash:
                replacements -= 1
                session.on_machine_crash(ctx.rollback())
                read_store.restore_read_load(served)
                continue
            ctx.crash_at = None
            ctx.commit()
            return out

    def _draw_stragglers(self, stats, logical_round: int) -> None:
        p = self.plan.straggler_probability
        if p <= 0.0 or stats.n_machines_active == 0:
            return
        rng = self.plan.rng(_SALT_STRAGGLER, logical_round)
        hit = int((rng.random(stats.n_machines_active) < p).sum())
        if hit:
            self.session.stragglers += hit
            self.session.recovery_wall_s += hit * self.plan.straggler_delay_s


class _MachineLockstep:
    """The :class:`~repro.core.runtime.BatchRoundContext` surface over one
    machine's context: what a fused program sees when it advances a
    single machine's items. That surface is all a fused program may use
    — ``items``, ``machines``, ``read_array``, ``write_array`` and
    ``charge_replayed_reads`` (no ``config``, no budget arrays)."""

    __slots__ = ("items", "machines", "_ctx")

    def __init__(self, ctx: Any, items: np.ndarray) -> None:
        self.items = items
        self.machines = np.full(items.size, ctx.machine_id, dtype=np.int64)
        self._ctx = ctx

    def read_array(
        self, namespace: str, ids: np.ndarray, *, owner: np.ndarray,
        **kwargs: Any,
    ) -> Any:
        return self._ctx.read_array(namespace, ids, **kwargs)

    def write_array(
        self, namespace: str, ids: np.ndarray, values: np.ndarray, *,
        owner: np.ndarray,
    ) -> None:
        self._ctx.write_array(namespace, ids, values)

    def charge_replayed_reads(
        self, namespace: str, starts: np.ndarray, lengths: np.ndarray, *,
        owner: np.ndarray, rows: np.ndarray | None = None,
    ) -> None:
        _, starts, lengths, rows = distinct_ranges(
            owner, starts, lengths, rows
        )
        for key in expand_ranges(starts, lengths, KEY_SLICE, rows):
            self._ctx.charge_read_array(namespace, *key)


def _one_machine_at_a_time(fused_worker: Callable[..., Any]) -> Callable[..., Any]:
    """A fused program as a per-block program. Every machine issues the
    same operations as in lockstep, so results and the ledger are
    unchanged; only the interleaving of different machines' writes is."""
    return lambda ctx, block: fused_worker(_MachineLockstep(ctx, block))


class ChaosRuntime(ChaosMixin, AMPCRuntime):
    """AMPCRuntime armed with a :class:`FaultPlan`.

    Usage::

        plan = (FaultPlan.machine_crashes(0.2)
                | FaultPlan.server_outages(0.1)).with_seed(7)
        rt = ChaosRuntime(config.with_replication(2), plan=plan)
        rt.bootstrap(pairs)
        rt.round(work, worker)           # recovered transparently
        print(rt.report.recovery_summary())
    """

    machine_context_cls = CrashingContext


_ARMED: dict[type, type] = {AMPCRuntime: ChaosRuntime}


def arm(runtime_cls: type) -> type:
    """Chaos-armed subclass of any runtime class.

    ``arm(MPCRuntime)`` returns a class whose constructor accepts the
    usual arguments plus ``plan=FaultPlan(...)``; its machine contexts
    gain journaled writes and crash points (synthesized from the base
    context class), its stores are replicated, and its rounds recover as
    described on :class:`ChaosMixin`. Classes are cached, so repeated
    calls return the same type.
    """
    armed = _ARMED.get(runtime_cls)
    if armed is not None:
        return armed
    base_ctx = runtime_cls.machine_context_cls
    if issubclass(base_ctx, TransactionalContextMixin):
        ctx_cls = base_ctx
    else:
        ctx_cls = type(
            "Chaos" + base_ctx.__name__,
            (TransactionalContextMixin, base_ctx),
            {"__slots__": TRANSACTIONAL_SLOTS},
        )
    armed = type(
        "Chaos" + runtime_cls.__name__,
        (ChaosMixin, runtime_cls),
        {"machine_context_cls": ctx_cls},
    )
    _ARMED[runtime_cls] = armed
    return armed
