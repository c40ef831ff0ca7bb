"""Chaos-engineering layer tests: fault plans, replicated stores with
failover, checkpointed round replay, and the bit-identity property.

The headline property (paper §2.1): for every fault-plan seed, a run
under machine crashes + DDS server outages + read timeouts + stragglers
produces results AND sealed-store contents bit-identical to a fault-free
run, with the recovery cost itemized in the ledger.
"""

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime
from repro.core.chaos import (
    ChaosRuntime,
    ChaosSession,
    FaultPlan,
    RetryPolicy,
    arm,
)
from repro.core.dds import ReplicatedDataStore
from repro.core.errors import (
    RoundAbortedError,
    RoundProtocolError,
    ServerUnavailableError,
)
from repro.core.partition import replica_servers, server_of
from repro.core.runtime import MPCRuntime


def config(seed=2, replication=2, n_input=240):
    return AMPCConfig.for_input(n_input, seed=seed,
                                replication_factor=replication)


# ---------------------------------------------------------------------------
# FaultPlan / RetryPolicy
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_constructors_and_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan.machine_crashes(0.1).is_null
        assert FaultPlan.server_outages(0.2).server_outage_probability == 0.2
        assert FaultPlan.read_timeouts(0.3).read_timeout_probability == 0.3
        assert FaultPlan.stragglers(0.4, 0.01).straggler_delay_s == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(machine_crash_probability=1.0)
        with pytest.raises(ValueError):
            FaultPlan(server_outage_probability=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggler_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_read_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_composition_ors_probabilities(self):
        combined = FaultPlan.machine_crashes(0.5) | FaultPlan.machine_crashes(0.5)
        assert combined.machine_crash_probability == pytest.approx(0.75)
        mixed = FaultPlan.machine_crashes(0.2) | FaultPlan.server_outages(0.1)
        assert mixed.machine_crash_probability == pytest.approx(0.2)
        assert mixed.server_outage_probability == pytest.approx(0.1)

    def test_one_plan_composes_simulated_and_process_faults(self):
        plan = (FaultPlan.machine_crashes(0.5, max_retries=3)
                | FaultPlan.kills(0.5) | FaultPlan.kills(0.5)
                | FaultPlan.delays(0.1, delay_s=0.5)
                | FaultPlan.stragglers(0.1, delay_s=0.2))
        assert plan.machine_crash_probability == pytest.approx(0.5)
        assert plan.worker_kill_probability == pytest.approx(0.75)
        assert plan.reply_delay_s == 0.5 and plan.straggler_delay_s == 0.2
        assert plan.max_machine_retries == 16
        assert not plan.simulated_is_null and not plan.is_null
        process_only = FaultPlan.hangs(1.0) | FaultPlan.fork_failures(0.2)
        assert process_only.simulated_is_null and not process_only.is_null
        with pytest.raises(ValueError, match="worker_kill_probability"):
            FaultPlan.kills(1.5)
        with pytest.raises(ValueError, match="reply_delay_s"):
            FaultPlan.delays(0.1, delay_s=-1.0)

    def test_composition_is_deterministic(self):
        a = FaultPlan.machine_crashes(0.2, seed=3)
        b = FaultPlan.server_outages(0.1, seed=8)
        assert (a | b) == (a | b)

    def test_with_seed(self):
        plan = FaultPlan.machine_crashes(0.2).with_seed(42)
        assert plan.seed == 42
        assert plan.machine_crash_probability == 0.2

    def test_outage_draw_deterministic_and_attempt_dependent(self):
        plan = FaultPlan.server_outages(0.3, seed=5)
        a = plan.draw_server_outages(2, 0, 40)
        assert a == plan.draw_server_outages(2, 0, 40)
        draws = {plan.draw_server_outages(r, 0, 40) for r in range(6)}
        assert len(draws) > 1
        assert plan.draw_server_outages(0, 0, 40) != \
            plan.draw_server_outages(0, 1, 40) or True  # both valid draws
        assert FaultPlan().draw_server_outages(0, 0, 40) == frozenset()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.01, backoff_multiplier=2.0,
                             max_backoff_s=0.05)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(10) == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# Replica placement and failover reads
# ---------------------------------------------------------------------------


class TestReplicaPlacement:
    def test_primary_matches_unreplicated_placement(self):
        for key in ("a", ("x", 3), 17):
            assert replica_servers(key, 16, seed=4, replication=3)[0] == \
                server_of(key, 16, seed=4)

    def test_replicas_distinct_and_clamped(self):
        reps = replica_servers("k", 8, seed=1, replication=5)
        assert len(reps) == 5 and len(set(reps)) == 5
        assert len(replica_servers("k", 3, seed=1, replication=9)) == 3


class TestReplicatedDataStore:
    def _store(self, replication=2, n_servers=8):
        s = ReplicatedDataStore(0, n_servers, seed=3, replication=replication)
        for i in range(40):
            s.write(("k", i), i)
        s.seal()
        return s

    def test_failover_to_backup(self):
        s = self._store()
        primary = s.replicas_of(("k", 0))[0]
        s.set_down([primary])
        assert s.get(("k", 0)) == 0
        assert s.failover_reads >= 1

    def test_all_replicas_down_raises(self):
        s = self._store()
        s.set_down(s.replicas_of(("k", 0)))
        with pytest.raises(ServerUnavailableError) as exc:
            s.get(("k", 0))
        assert exc.value.key == ("k", 0)
        s.restore_all()
        assert s.get(("k", 0)) == 0

    def test_replication_one_matches_base_placement(self):
        s = self._store(replication=1)
        base = ReplicatedDataStore(0, 8, seed=3, replication=1)
        for i in range(40):
            assert s.replicas_of(("k", i)) == (server_of(("k", i), 8, 3),)

    def test_items_counted_on_every_replica(self):
        s = self._store(replication=2)
        assert int(s.server_item_loads.sum()) == 2 * 40

    def test_injector_outage_respected(self):
        session = ChaosSession(FaultPlan())
        s = ReplicatedDataStore(0, 8, seed=3, replication=2,
                                injector=session)
        s.write(("x", 0), 1)
        s.seal()
        session.begin_attempt(
            downed=frozenset(s.replicas_of(("x", 0))[:1]),
            rng=np.random.default_rng(0),
        )
        assert s.get(("x", 0)) == 1
        assert session.failover_reads >= 1


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------


class TestCheckpointRestore:
    def test_restore_rewinds_counters_and_ledger(self):
        rt = AMPCRuntime(config(replication=1))
        rt.bootstrap([(("k", 0), 7)])
        cp = rt.checkpoint()
        rt.round([0], lambda ctx, v: ctx.read(("k", 0)), tag="doomed")
        assert len(rt.report.rounds) == 2
        rt.restore(cp)
        assert len(rt.report.rounds) == 1
        assert rt._round_counter == cp.round_counter
        # Replay produces the same answer against the same store.
        result = rt.round([0], lambda ctx, v: ctx.read(("k", 0)), tag="replay")
        assert result.results == [7]

    def test_restore_refuses_unsealed_store(self):
        rt = AMPCRuntime(config(replication=1))
        rt.bootstrap([(("k", 0), 1)])
        cp = rt.checkpoint()
        cp.store._sealed = False
        with pytest.raises(RoundProtocolError):
            rt.restore(cp)


# ---------------------------------------------------------------------------
# The chaos runtime
# ---------------------------------------------------------------------------


def _pipeline(rt, n=120):
    """Three-round scratch-free driver: adaptive hops, a dependent round,
    and a per-machine round. Returns (results, per-round store contents)."""
    rt.bootstrap(((("a", i), (i * 13) % n) for i in range(n)))

    def hop(ctx, i):
        cur = i
        for _ in range(3):
            cur = ctx.read(("a", cur))
        ctx.write(("b", i), cur)
        return None

    r1 = rt.round(list(range(n)), hop, tag="hop")

    def emit(ctx, i):
        v = ctx.read(("b", i))
        ctx.write(("c", i), (v * 2) % n)
        return (i, v)

    r2 = rt.round(list(range(n)), emit, tag="emit")

    def local(ctx):
        v = ctx.read(("c", ctx.machine_id % n))
        ctx.write(("d", ctx.machine_id), v)
        return v

    r3 = rt.round(per_machine=local, tag="local")
    stores = [sorted(r.store.items()) for r in (r1, r2, r3)]
    return r2.results, stores


_FULL_PLAN = (
    FaultPlan.machine_crashes(0.25)
    | FaultPlan.server_outages(0.12)
    | FaultPlan.read_timeouts(0.03)
    | FaultPlan.stragglers(0.05)
)


class TestChaosRuntime:
    @pytest.mark.chaos
    @pytest.mark.parametrize("fault_seed", range(6))
    def test_bit_identity_per_fault_seed(self, fault_seed):
        """Property: for every fault seed, results AND sealed-store
        contents match the fault-free run exactly."""
        clean_results, clean_stores = _pipeline(AMPCRuntime(config()))
        rt = ChaosRuntime(config(), plan=_FULL_PLAN.with_seed(fault_seed))
        faulty_results, faulty_stores = _pipeline(rt)
        assert faulty_results == clean_results
        assert faulty_stores == clean_stores

    @pytest.mark.chaos
    def test_faults_actually_bite_and_are_itemized(self):
        rt = ChaosRuntime(config(), plan=_FULL_PLAN.with_seed(1))
        _pipeline(rt)
        summary = rt.report.recovery_summary()
        assert summary["crashes"] > 0
        assert summary["server_outages"] > 0
        assert summary["recovery_reads"] > 0
        assert summary["overhead_reads_pct"] > 0
        # Itemization reaches the serialized ledger and the table.
        assert rt.report.to_dict()["recovery"] == summary
        assert "recovery:" in rt.report.format_table()

    @pytest.mark.chaos
    def test_outage_without_replication_recovers_via_checkpoint(self):
        """Replication 1 leaves no failover path: any outage hitting a
        read must abort the round and replay it from the checkpoint."""
        clean_results, clean_stores = _pipeline(AMPCRuntime(config()))
        rt = ChaosRuntime(
            config(replication=1),
            plan=FaultPlan.server_outages(0.25, seed=3),
        )
        faulty_results, faulty_stores = _pipeline(rt)
        assert faulty_results == clean_results
        assert faulty_stores == clean_stores
        assert rt.report.checkpoint_restores > 0
        assert rt.report.failover_reads == 0

    @pytest.mark.chaos
    def test_timeouts_retry_with_backoff(self):
        clean_results, _ = _pipeline(AMPCRuntime(config()))
        rt = ChaosRuntime(config(), plan=FaultPlan.read_timeouts(0.2, seed=4))
        faulty_results, _ = _pipeline(rt)
        assert faulty_results == clean_results
        summary = rt.report.recovery_summary()
        assert summary["retry_reads"] > 0
        assert summary["recovery_wall_s"] > 0

    @pytest.mark.chaos
    def test_stragglers_cost_time_not_correctness(self):
        rt = ChaosRuntime(
            config(), plan=FaultPlan.stragglers(0.5, 0.01, seed=5)
        )
        results, _ = _pipeline(rt)
        clean_results, _ = _pipeline(AMPCRuntime(config()))
        assert results == clean_results
        summary = rt.report.recovery_summary()
        assert summary["stragglers"] > 0
        assert summary["recovery_wall_s"] > 0
        assert summary["retry_reads"] == 0

    @pytest.mark.chaos
    def test_null_plan_leaves_ledger_clean(self):
        rt = ChaosRuntime(config(), plan=FaultPlan())
        results, stores = _pipeline(rt)
        clean_results, clean_stores = _pipeline(AMPCRuntime(config()))
        assert results == clean_results and stores == clean_stores
        assert rt.report.recovery_summary()["recovery_reads"] == 0
        assert rt.report.checkpoint_restores == 0

    @pytest.mark.chaos
    def test_chaos_runs_are_reproducible(self):
        plan = _FULL_PLAN.with_seed(7)
        first = ChaosRuntime(config(), plan=plan)
        second = ChaosRuntime(config(), plan=plan)
        assert _pipeline(first) == _pipeline(second)
        a = first.report.recovery_summary()
        b = second.report.recovery_summary()
        # recovery_wall_s includes *measured* re-execution time, which is
        # real wall clock; every simulated quantity must match exactly.
        a.pop("recovery_wall_s")
        b.pop("recovery_wall_s")
        assert a == b

    def test_unrecoverable_round_raises(self):
        # Timeout probability ~1 with a tiny retry budget: every
        # execution aborts, and after max_round_attempts the driver
        # sees RoundAbortedError.
        plan = FaultPlan(
            seed=1,
            read_timeout_probability=0.99,
            retry=RetryPolicy(max_read_attempts=2, max_round_attempts=2),
        )
        rt = ChaosRuntime(config(), plan=plan)
        rt.bootstrap([(("k", 0), 1)])
        with pytest.raises(RoundAbortedError):
            rt.round([0, 1, 2], lambda ctx, v: ctx.read(("k", 0)))


class TestArm:
    def test_arm_ampc_is_premixed_class(self):
        assert arm(AMPCRuntime) is ChaosRuntime
        assert arm(MPCRuntime) is arm(MPCRuntime)

    @pytest.mark.chaos
    def test_armed_mpc_runtime_recovers(self):
        cfg = config(seed=6)
        plan = (FaultPlan.machine_crashes(0.3)
                | FaultPlan.server_outages(0.15)).with_seed(2)

        def run(runtime):
            def program(ctx):
                out = 0
                for m in ctx.inbox():
                    out += m
                    ctx.send((ctx.machine_id + 1) % ctx.n_machines, m + 1)
                return out

            runtime.message_round(
                program,
                messages=[(i % cfg.n_machines, i) for i in range(60)],
            )
            result = runtime.message_round(program)
            return sorted(result.results)

        clean = run(MPCRuntime(cfg))
        armed_rt = arm(MPCRuntime)(cfg, plan=plan)
        assert run(armed_rt) == clean
        assert armed_rt.report.crashes > 0


@pytest.mark.chaos
def test_chaos_smoke():
    """Quick end-to-end smoke: a real algorithm under the ISSUE's
    reference plan (20% crash, 10% outage, replication 2)."""
    from repro.algorithms.list_ranking import list_ranking

    from repro.graph import generators

    succ = generators.linked_list(512, rng=3)
    cfg = AMPCConfig.for_input(512, seed=2, replication_factor=2)
    plan = (FaultPlan.machine_crashes(0.2)
            | FaultPlan.server_outages(0.1)).with_seed(1)
    clean = list_ranking(succ, config=cfg)
    chaotic = list_ranking(succ, runtime=ChaosRuntime(cfg, plan=plan))
    assert np.array_equal(chaotic.ranks, clean.ranks)
    assert chaotic.report.recovery_summary()["recovery_reads"] > 0


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ["connectivity", "list_ranking", "mis"])
def test_composed_plan_bit_identical(algorithm):
    """Crashes, outages and read timeouts composed (20% / 10% / 2%,
    replication 2): every algorithm's answer equals its fault-free run."""
    from repro.algorithms.connectivity import connectivity
    from repro.algorithms.list_ranking import list_ranking
    from repro.algorithms.mis import maximal_independent_set
    from repro.graph import generators

    graph = generators.erdos_renyi_gnm(200, 500, rng=7)
    solve, workload, answer = {
        "connectivity": (connectivity, graph, "labels"),
        "list_ranking": (list_ranking, generators.linked_list(512, rng=7),
                         "ranks"),
        "mis": (maximal_independent_set, graph, "in_mis"),
    }[algorithm]
    cfg = AMPCConfig.for_input(700, seed=5, replication_factor=2)
    plan = (FaultPlan.machine_crashes(0.2)
            | FaultPlan.server_outages(0.1)
            | FaultPlan.read_timeouts(0.02)).with_seed(23)
    clean = solve(workload, config=cfg)
    chaotic = solve(workload, runtime=ChaosRuntime(cfg, plan=plan))
    assert np.array_equal(getattr(chaotic, answer), getattr(clean, answer))
    assert chaotic.report.recovery_summary()["recovery_reads"] > 0


# ---------------------------------------------------------------------------
# the attempt journal: a faulty run stores what a fault-free run stores
# ---------------------------------------------------------------------------

_JOURNAL_PLANS = {
    "null": FaultPlan(),
    "outages": FaultPlan.server_outages(0.3, seed=1),
    "crashes": FaultPlan.machine_crashes(0.3, seed=3),
}


def _stored(rt, program, *, fused=False):
    """The ``"out"`` rows a buffer-reusing program leaves in the store,
    sorted by id (machines may interleave their writes differently)."""
    ids = np.arange(40, dtype=np.int64)
    result = rt.round_batch(
        ids, program, fused=fused,
        setup_arrays=[("in", ids, ids * 10)],
    )
    got_ids, values = result.store.read_namespace("out")
    order = np.argsort(got_ids, kind="stable")
    return got_ids[order].tolist(), values[order].tolist()


def _reuse_block(ctx, block):
    buf = np.empty(block.size, dtype=np.int64)
    buf[:] = ctx.read_array("in", block)
    ctx.write_array("out", block, buf)
    buf[:] = -1


def _reuse_fused(gctx):
    buf = np.empty(gctx.items.size, dtype=np.int64)
    buf[:] = gctx.read_array("in", gctx.items, owner=gctx.machines)
    gctx.write_array("out", gctx.items, buf, owner=gctx.machines)
    buf[:] = -1


class TestAttemptJournal:
    @pytest.mark.parametrize("plan", list(_JOURNAL_PLANS))
    def test_reused_write_buffer_stores_what_a_fault_free_run_stores(
            self, plan):
        clean = _stored(AMPCRuntime(config()), _reuse_block)
        assert clean[1] == [10 * i for i in range(40)]
        chaotic = ChaosRuntime(config(), plan=_JOURNAL_PLANS[plan])
        assert _stored(chaotic, _reuse_block) == clean

    def test_fused_program_under_crashes_copies_its_writes(self):
        clean = _stored(AMPCRuntime(config()), _reuse_fused, fused=True)
        assert clean[1] == [10 * i for i in range(40)]
        chaotic = ChaosRuntime(config(), plan=_JOURNAL_PLANS["crashes"])
        assert _stored(chaotic, _reuse_fused, fused=True) == clean
        assert chaotic.report.crashes > 0

    @pytest.mark.parametrize("armed", [False, True])
    def test_oversized_scalar_write_raises_at_the_op(self, armed):
        from repro.core.errors import ValueSizeError

        ran = []

        def program(ctx, block):
            for item in block.tolist():
                if not ran:
                    ran.append(item)
                    ctx.write(("big", item), tuple(range(20)))
                else:
                    ran.append(item)

        rt = (ChaosRuntime(config(), plan=FaultPlan()) if armed
              else AMPCRuntime(config()))
        with pytest.raises(ValueSizeError):
            rt.round_batch(np.arange(40, dtype=np.int64), program)
        assert len(ran) == 1
