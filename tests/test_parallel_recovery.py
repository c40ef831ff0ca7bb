"""Worker loss on the process backend (repro.parallel.pool).

Real-process chaos: workers are genuinely SIGKILLed, SIGSTOPped, have
their replies dropped or delayed, and their respawn forks made to fail.
A lost worker is the paper's §2.1 crash of every machine in its shard:
the pool respawns it and the parent re-runs the shard. Every test still
demands the backend's central contract — results and per-round cost
ledgers bit-identical to the serial path, with the recovery work visible
only in the (digest-excluded) recovery accounting.

The module is ``faultproc``-marked: tests/conftest.py arms a hard
per-test timeout (a pool that fails to deadline a hung worker must fail
the test, not wedge the suite) and the /dev/shm leak check.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import AMPCConfig, AMPCRuntime
from repro.core.chaos import ChaosRuntime, FaultPlan
from repro.core.runtime import use_runtime
from repro.graph import files, generators
from repro.parallel import WorkerPool, shutdown_pool
from repro.parallel import backend as _backend
from repro.parallel import pool as pool_mod
from repro.verify.runner import _summary_without_walltime

pytestmark = pytest.mark.faultproc


@pytest.fixture(autouse=True)
def fresh_pool():
    """Tear the shared pool down after every test.

    Fault tests kill, respawn and break the shared pool's workers; a
    broken pool must not bleed into the next test (or module).
    """
    yield
    shutdown_pool()


def _ledger(report):
    return _summary_without_walltime(report)


# Worker-side tasks for direct-pool tests. Registered at module import,
# i.e. before any test forks a pool — fork inheritance is what ships
# them (pool workers resolve tasks by name from backend.TASKS).


def _task_sleepy(payload: dict):
    if payload.get("boom"):
        raise ValueError(f"boom on {payload['v']}")
    if payload.get("s"):
        time.sleep(payload["s"])
    return payload["v"]


_backend.TASKS.setdefault("_test_sleepy", _task_sleepy)


def _blob(v, s=0.0, boom=False) -> bytes:
    return pickle.dumps({"v": v, "s": s, "boom": boom})


def _read_plus_one(ctx, item):
    return ctx.read(("x", item)) + 1


class _ScriptedFaults:
    """Duck-typed ``faults`` for WorkerPool.run_tasks — and, through
    :meth:`bind`, a runtime's ``process_fault_plan``: exact control of
    which shard gets which directive and how many respawn forks fail —
    no probability in sight."""

    is_null = False

    def __init__(self, directives=None, failing_forks=0):
        self.directives = directives or {}
        self.failing_forks = failing_forks

    def bind(self, round_index: int) -> "_ScriptedFaults":
        return self

    def directive_for(self, index: int):
        return self.directives.get(index)

    def fork_fails(self, worker_idx: int, respawn_seq: int,
                   spawn_attempt: int) -> bool:
        if self.failing_forks > 0:
            self.failing_forks -= 1
            return True
        return False


@pytest.fixture
def short_deadline(monkeypatch):
    """Shorten the armed-plan deadline so hang tests stay fast."""
    monkeypatch.setattr(pool_mod, "FAULT_DEADLINE_S", 0.5)
    return 0.5


def _bootstrapped(config, **kwargs) -> AMPCRuntime:
    runtime = AMPCRuntime(config, **kwargs)
    runtime.bootstrap((("x", i), i) for i in range(16))
    return runtime


# -- end-to-end parity under injected process faults ------------------------


def _armed(plan):
    """Build every runtime inside the ``with`` block on the process
    backend (2 workers), armed with ``plan``."""
    return use_runtime(lambda c: ChaosRuntime(
        c, plan=plan, backend="process", n_workers=2))


def test_kill_fault_mid_round_parity():
    """SIGKILLed workers mid-task: the parent re-runs their shards,
    bit-identical; every machine of a lost shard counts as a crash."""
    g = generators.erdos_renyi_gnm(300, 450, rng=5)
    serial = repro.maximal_independent_set(g, seed=3)
    plan = FaultPlan.kills(0.3, seed=2)
    with _armed(plan):
        faulted = repro.maximal_independent_set(g, seed=3)
    assert np.array_equal(serial.in_mis, faulted.in_mis)
    assert _ledger(serial.report) == _ledger(faulted.report)
    assert faulted.report.worker_respawns > 0
    assert faulted.report.crashes >= faulted.report.worker_respawns
    assert faulted.report.task_retries == faulted.report.crashes
    # Recovery is visible in the accounting but excluded from digests:
    # the ledger comparison above already proved summaries agree.
    assert serial.report.worker_respawns == 0


def test_hang_deadline_triggers_respawn(short_deadline):
    """Dropped replies: the armed-plan deadline fires, never a wedge.
    MIS ships one round of two shards here, and fault seed 1 drops one
    of the two replies."""
    g = generators.erdos_renyi_gnm(300, 450, rng=5)
    serial = repro.maximal_independent_set(g, seed=1)
    plan = FaultPlan.hangs(0.15, seed=1)
    with _armed(plan):
        faulted = repro.maximal_independent_set(g, seed=1)
    assert np.array_equal(serial.in_mis, faulted.in_mis)
    assert _ledger(serial.report) == _ledger(faulted.report)
    assert faulted.report.worker_respawns > 0


def test_delay_fault_parity():
    """Delayed replies (stragglers) change nothing but wall time."""
    g = generators.barabasi_albert(200, 3, rng=11)
    serial = repro.maximal_independent_set(g, seed=1)
    plan = FaultPlan.delays(0.5, delay_s=0.05, seed=6)
    with _armed(plan):
        faulted = repro.maximal_independent_set(g, seed=1)
    assert np.array_equal(serial.in_mis, faulted.in_mis)
    assert _ledger(serial.report) == _ledger(faulted.report)


def test_lost_shard_recovery_wall_covers_the_deadline(small_config,
                                                      short_deadline):
    """A dropped reply is only noticed at the deadline, so the round's
    recovery_wall_s — dispatch to the end of the parent's re-run — is at
    least the deadline."""
    runtime = _bootstrapped(small_config, backend="process", n_workers=2)
    runtime.process_fault_plan = _ScriptedFaults({0: ("drop",)})
    results = runtime.round(list(range(16)), _read_plus_one).results
    assert results == [i + 1 for i in range(16)]
    stats = runtime.report.rounds[-1]
    assert stats.worker_respawns == 1
    assert stats.crashes > 0
    assert stats.recovery_wall_s >= short_deadline


def _read_as_closure(ctx, item):
    value = ctx.read(("x", item))
    return lambda: value + 1  # unpicklable: a worker cannot ship it back


def test_lost_shard_counted_when_round_falls_back_to_serial(small_config):
    """Shard 0's worker is killed and re-run in the parent while shard 1's
    reply cannot be shipped, so the round falls back to the serial loop.
    The lost worker still reaches the round's ledger."""
    runtime = _bootstrapped(small_config, backend="process", n_workers=2)
    runtime.process_fault_plan = _ScriptedFaults({0: ("kill",)})
    results = runtime.round(list(range(16)), _read_as_closure).results
    assert [f() for f in results] == [i + 1 for i in range(16)]
    assert runtime.parallel_fallbacks == 1
    stats = runtime.report.rounds[-1]
    assert stats.worker_respawns == 1
    assert stats.crashes > 0


def test_null_plan_keeps_the_plain_deadline(small_config, monkeypatch):
    """A plan that injects nothing is not passed to the pool, so it does
    not shorten the deadline of a healthy run."""
    seen = []
    real = WorkerPool.run_tasks

    def spy(self, task_name, blobs, faults=None, lost=None):
        seen.append(faults)
        return real(self, task_name, blobs, faults=faults, lost=lost)

    monkeypatch.setattr(WorkerPool, "run_tasks", spy)
    runtime = _bootstrapped(small_config, backend="process", n_workers=2)
    runtime.process_fault_plan = FaultPlan()
    results = runtime.round(list(range(16)), _read_plus_one).results
    assert results == [i + 1 for i in range(16)]
    assert seen == [None]


def test_chaos_cli_hang_worker_waits_the_plan_deadline(tmp_path, capsys):
    """``repro chaos --hang-worker`` waits the armed-plan deadline (1 s)
    per hang, not the plain 60 s, and still answers bit-identically."""
    path = tmp_path / "g.txt"
    files.write_edge_list(generators.erdos_renyi_gnm(300, 450, rng=5), path)
    began = time.monotonic()
    rc = main(["chaos", "mis", str(path), "--backend", "process",
               "--workers", "2", "--crash", "0", "--outage", "0",
               "--timeout", "0", "--straggler", "0", "--hang-worker", "0.5",
               "--fault-seed", "1", "--no-ledger"])
    elapsed = time.monotonic() - began
    assert rc == 0
    assert "bit-identical to fault-free run: True" in capsys.readouterr().out
    assert elapsed < 15.0


# -- supervisor behaviour, direct pool --------------------------------------


def test_sigstop_hung_worker_deadlined_and_respawned(short_deadline):
    """A genuinely stopped (not dead) worker: is_alive() stays True and
    no sentinel fires — only the deadline can save the round."""
    pool = WorkerPool(2)
    try:
        victim = pool._procs[0]
        os.kill(victim.pid, signal.SIGSTOP)
        lost = {}
        outcome = pool.run_tasks("_test_sleepy",
                                 [_blob(i) for i in range(4)],
                                 faults=_ScriptedFaults(), lost=lost)
        assert outcome.results == [0, 1, 2, 3]
        # Shard 0 went to the stopped worker; the parent re-ran it.
        assert list(lost) == [0]
        assert outcome.worker_of[0] == pool_mod.PARENT
        assert not victim.is_alive()  # respawn SIGKILLs the stopped twin
    finally:
        pool.close()


def test_overdue_worker_reply_is_taken_not_lost(monkeypatch):
    """Worker 0 is killed and the parent's re-run of its shard outlasts
    the deadline. Worker 1 replied meanwhile; its reply is used, not
    thrown away with a second respawn."""
    monkeypatch.setattr(pool_mod, "FAULT_DEADLINE_S", 0.3)
    pool = WorkerPool(2)
    try:
        lost = {}
        outcome = pool.run_tasks("_test_sleepy",
                                 [_blob(0, s=0.8), _blob(1, s=0.05)],
                                 faults=_ScriptedFaults({0: ("kill",)}),
                                 lost=lost)
        assert outcome.results == [0, 1]
        assert list(lost) == [0]
        assert outcome.worker_of == [pool_mod.PARENT, 1]
    finally:
        pool.close()


def test_injected_fork_failure_is_retried():
    """A failed respawn fork is retried, not fatal."""
    pool = WorkerPool(2)
    try:
        faults = _ScriptedFaults(directives={0: ("kill",)}, failing_forks=1)
        lost = {}
        outcome = pool.run_tasks("_test_sleepy",
                                 [_blob(i) for i in range(4)],
                                 faults=faults, lost=lost)
        assert outcome.results == [0, 1, 2, 3]
        assert list(lost) == [0]
        assert faults.failing_forks == 0
        assert not pool.broken
    finally:
        pool.close()


def test_error_stops_new_dispatch():
    """An application error on the lowest shard aborts the round without
    waiting out (or newly dispatching) higher-index slow shards."""
    pool = WorkerPool(2)
    try:
        blobs = [_blob(0, boom=True)] + [_blob(i, s=2.0)
                                         for i in range(1, 6)]
        began = time.monotonic()
        with pytest.raises(ValueError, match="boom on 0"):
            pool.run_tasks("_test_sleepy", blobs)
        elapsed = time.monotonic() - began
        # Serial execution of the five 2s sleepers would take >= 10s;
        # aborting after the first error must stay well under that.
        assert elapsed < 8.0
    finally:
        pool.close()


def test_close_escalates_to_kill_for_wedged_worker():
    """close() must not leave a stopped worker behind: cooperative stop
    and SIGTERM are both undeliverable, SIGKILL is not."""
    pool = WorkerPool(2)
    victim = pool._procs[0]
    os.kill(victim.pid, signal.SIGSTOP)
    pool.close(timeout=0.2)
    assert not victim.is_alive()
    assert pool.broken


def test_get_pool_survives_raising_close(monkeypatch):
    """get_pool nulls the module slot before closing the stale pool, so
    a close() that raises cannot wedge every future parallel round."""
    first = pool_mod.get_pool(2)
    real_close = first.close

    def exploding_close(timeout: float = 2.0) -> None:
        real_close(timeout)  # actually release the workers (no leaks)
        raise RuntimeError("injected close failure")

    monkeypatch.setattr(first, "close", exploding_close)
    try:
        replacement = pool_mod.get_pool(3)  # size change forces rebuild
        assert replacement is not first
        assert replacement.n_workers == 3
        outcome = replacement.run_tasks("_test_sleepy",
                                        [_blob(i) for i in range(3)])
        assert outcome.results == [0, 1, 2]
    finally:
        shutdown_pool()


# -- every shard lost, and a pool that cannot respawn -----------------------


def test_every_dispatch_hung_reruns_every_shard_in_parent(small_config,
                                                          short_deadline):
    """Every dispatch hangs: every shard is re-run in the parent, the
    round never falls back to the serial loop, and the answer is still
    correct — with every machine of the round on the ledger as a crash."""
    runtime = _bootstrapped(small_config, backend="process", n_workers=2)
    runtime.process_fault_plan = FaultPlan.hangs(1.0, seed=9)
    results = runtime.round(list(range(16)), _read_plus_one).results
    assert results == [i + 1 for i in range(16)]
    assert runtime.parallel_fallbacks == 0
    stats = runtime.report.rounds[-1]
    assert stats.crashes == stats.n_machines_active > 0
    assert stats.worker_respawns > 0


def test_failed_respawn_breaks_pool_and_round_still_matches(small_config):
    """A respawn whose every fork fails: the pool is marked broken, the
    lost shard still runs in the parent, the round is bit-identical, and
    the next get_pool builds a fresh pool."""
    serial = _bootstrapped(small_config)
    runtime = _bootstrapped(small_config, backend="process", n_workers=2)
    runtime.process_fault_plan = _ScriptedFaults(
        {0: ("kill",)}, failing_forks=pool_mod.MAX_SPAWN_ATTEMPTS
    )
    expected = serial.round(list(range(16)), _read_plus_one).results
    assert runtime.round(list(range(16)), _read_plus_one).results == expected
    assert _ledger(runtime.report) == _ledger(serial.report)
    broken = pool_mod._POOL
    assert broken.broken
    fresh = pool_mod.get_pool(2)
    assert fresh is not broken and not fresh.broken
    assert fresh.run_tasks("_test_sleepy",
                           [_blob(i) for i in range(3)]).results == [0, 1, 2]


# -- chaos-plan integration --------------------------------------------------


def test_process_only_chaos_plan_keeps_parallel_capable():
    """A FaultPlan carrying only real process faults shards normally —
    the blanket serial pin applies to *simulated* faults only."""
    g = generators.erdos_renyi_gnm(250, 375, rng=8)
    clean = repro.maximal_independent_set(g, seed=2)

    config = AMPCConfig.for_input(g.n + g.m, epsilon=0.5, seed=2)
    plan = FaultPlan.kills(0.2, seed=5)
    rt = ChaosRuntime(config, plan=plan, backend="process", n_workers=2)
    assert rt.parallel_capable
    faulted = repro.maximal_independent_set(g, runtime=rt)
    assert np.array_equal(clean.in_mis, faulted.in_mis)

    # A simulated-fault plan still pins serial.
    sim = ChaosRuntime(config, plan=FaultPlan.machine_crashes(0.1),
                       backend="process", n_workers=2)
    assert not sim.parallel_capable


def test_single_fault_digest_property(short_deadline):
    """Property sweep: one fault kind at a time, several seeds — the
    process run's answer and ledger always match serial exactly."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    g = generators.erdos_renyi_gnm(80, 160, rng=5)
    serial = repro.maximal_independent_set(g, seed=0)
    serial_ledger = _ledger(serial.report)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["kill", "hang", "delay"]),
           fault_seed=st.integers(min_value=0, max_value=2 ** 20))
    def check(kind: str, fault_seed: int) -> None:
        if kind == "kill":
            plan = FaultPlan.kills(0.25, seed=fault_seed)
        elif kind == "hang":
            plan = FaultPlan.hangs(0.2, seed=fault_seed)
        else:
            plan = FaultPlan.delays(0.4, delay_s=0.01,
                                           seed=fault_seed)
        with _armed(plan):
            faulted = repro.maximal_independent_set(g, seed=0)
        assert np.array_equal(serial.in_mis, faulted.in_mis)
        assert _ledger(faulted.report) == serial_ledger

    check()


def test_process_fault_cell_without_a_sharded_round_is_flagged():
    """A process-fault verify cell counts the rounds that shipped. A
    fused-only case ships none, so it is exempt and runs unarmed; a case
    whose rounds shard is a real recovery cell. Either declaration
    fails its cell once the rounds say otherwise."""
    from dataclasses import replace

    from repro.verify.oracles import CASES
    from repro.verify.runner import _run_cell

    plan = FaultPlan.delays(0.5, delay_s=0.001, seed=1)

    def cell(case):
        return _run_cell(case, "er", 48, 0, balance_slack=4.0, chaos=False,
                         backend="process", workers=2, process_faults=plan)

    fused, sharded = cell(CASES["connectivity"]), cell(CASES["mis"])
    assert fused.ok and sharded.ok
    assert fused.shipped_rounds == 0 and fused.process_exempt
    assert not fused.process_faults
    assert sharded.shipped_rounds > 0 and sharded.process_faults
    assert fused.to_dict()["shipped_rounds"] == 0
    unexempt = cell(replace(CASES["connectivity"], process_exempt=""))
    assert unexempt.process_faults and not unexempt.ok
    assert "no round shipped" in unexempt.failures()[0]
    stale = cell(replace(CASES["mis"], process_exempt="fused-only"))
    assert not stale.process_faults and not stale.ok
    assert "rounds shipped" in stale.failures()[0]
