"""Scheduler admission control, rejection accounting, latency
percentiles, and concurrent-request determinism under a seed matrix."""

from __future__ import annotations

import pytest

from repro.algorithms.mis import sequential_lfmis
from repro.graph import generators
from repro.serve import (
    STANDARD_WORKLOADS,
    AdmissionControl,
    RequestScheduler,
    ServeRequest,
    ServingEngine,
    run_loadgen,
    workload_config,
)

pytestmark = pytest.mark.serve


def make_engine(seed=0, n=60):
    return ServingEngine(generators.erdos_renyi_gnm(n, 2 * n, rng=0),
                         seed=seed)


class TestAdmissionControl:
    def test_bounded_queue_sheds_overflow(self):
        engine = make_engine()
        sched = RequestScheduler(engine, admission=AdmissionControl(
            max_queue=8, batch_window=4))
        outcomes = [sched.submit(ServeRequest("component_of", v % engine.n),
                                 now=0.0)
                    for v in range(20)]
        assert outcomes == [True] * 8 + [False] * 12
        assert sched.counts() == {"accepted": 8, "rejected": 12,
                                  "completed": 0, "pending": 8}

    def test_every_submit_accounted_after_drain(self):
        engine = make_engine()
        sched = RequestScheduler(engine, admission=AdmissionControl(
            max_queue=8, batch_window=4))
        for v in range(20):
            sched.submit(ServeRequest("component_of", v % engine.n), now=0.0)
        responses = sched.drain(now=0.0)
        counts = sched.counts()
        assert counts["completed"] == counts["accepted"] == len(responses)
        assert counts["rejected"] == 20 - counts["accepted"]
        assert counts["pending"] == 0
        metrics = engine.metrics.snapshot()["counters"]
        assert metrics["serve.rejected"] == counts["rejected"]
        assert metrics["serve.accepted"] == counts["accepted"]

    def test_queue_frees_as_ticks_complete(self):
        engine = make_engine()
        sched = RequestScheduler(engine, admission=AdmissionControl(
            max_queue=2, batch_window=2))
        assert sched.submit(ServeRequest("component_of", 0), now=0.0)
        assert sched.submit(ServeRequest("component_of", 1), now=0.0)
        assert not sched.submit(ServeRequest("component_of", 2), now=0.0)
        sched.step(now=0.0)
        assert sched.submit(ServeRequest("component_of", 2), now=0.0)

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionControl(batch_window=0)


class TestLatency:
    def test_latency_includes_queue_wait_on_virtual_clock(self):
        engine = make_engine()
        sched = RequestScheduler(engine, admission=AdmissionControl(
            max_queue=16, batch_window=2))
        for v in range(6):
            sched.submit(ServeRequest("component_of", v), now=0.0)
        responses = sched.drain(now=10.0)
        # Ticks run back to back from t=10; later ticks wait longer.
        by_tick = {}
        for resp in responses:
            by_tick.setdefault(resp.tick, []).append(resp.latency_s)
        ticks = sorted(by_tick)
        assert len(ticks) == 3
        means = [sum(by_tick[t]) / len(by_tick[t]) for t in ticks]
        assert means == sorted(means)
        assert all(lat >= 10.0 for lats in by_tick.values() for lat in lats)

    def test_percentiles_from_observe_histogram(self):
        engine = make_engine()
        sched = RequestScheduler(engine)
        for v in range(10):
            sched.submit(ServeRequest("component_of", v), now=0.0)
        sched.drain(now=0.0)
        pct = sched.percentiles()
        assert set(pct) == {"p50", "p95", "p99"}
        assert all(v is not None and v >= 0 for v in pct.values())
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        hist = engine.metrics.histogram("serve.latency_s")
        assert hist.count == 10


class TestDeterminism:
    """Concurrent request streams are deterministic under a seed matrix.

    Tick composition in ``run_loadgen`` follows the virtual clock, which
    advances by *measured* service time — so the bit-exact comparisons
    pin the tick boundaries explicitly (fixed windows over the workload
    stream) and the loadgen-level check compares the timing-independent
    quantities (answers, admission accounting, reconciliation).
    """

    @pytest.mark.parametrize("engine_seed", [0, 1, 2])
    @pytest.mark.parametrize("workload_seed", [0, 7])
    def test_concurrent_ticks_bit_identical_across_replays(
            self, engine_seed, workload_seed):
        from repro.serve import generate

        graph = generators.erdos_renyi_gnm(60, 120, rng=1)
        cfg = workload_config("poisson-zipf", n_requests=40,
                              seed=workload_seed)
        stream = [e.request for e in generate(cfg, graph.n)]

        def run():
            engine = ServingEngine(graph, seed=engine_seed)
            responses = []
            for i in range(0, len(stream), 8):  # fixed concurrent ticks
                responses += engine.execute(stream[i:i + 8])
            rows = [(r.total_reads, r.total_writes, r.max_machine_reads,
                     r.max_server_load, r.n_machines_active)
                    for r in engine.serve_report.rounds]
            return ([(r.request, r.value, r.reads, r.query_calls)
                     for r in responses], rows, engine.reconcile())

        first, second = run(), run()
        assert first == second
        assert first[2] == []

    def test_loadgen_answers_identical_across_runs(self):
        graph = generators.erdos_renyi_gnm(60, 120, rng=1)
        cfg = workload_config("poisson-zipf", n_requests=40, seed=3)

        def run():
            result = run_loadgen(ServingEngine(graph, seed=0), cfg)
            return ([(r.request, r.value) for r in result.responses],
                    result.reconcile_problems)

        first, second = run(), run()
        assert first == second
        assert first[1] == []

    def test_batch_window_does_not_change_answers(self):
        graph = generators.erdos_renyi_gnm(60, 120, rng=1)
        cfg = workload_config("poisson-uniform", n_requests=30, seed=5)

        def answers(window):
            engine = ServingEngine(graph, seed=0)
            result = run_loadgen(
                engine, cfg,
                admission=AdmissionControl(max_queue=256,
                                           batch_window=window))
            return [(r.request, r.value) for r in result.responses]

        assert answers(1) == answers(8) == answers(32)


class TestLoadgen:
    def test_summary_schema_and_reconciliation(self):
        engine = make_engine()
        in_mis = sequential_lfmis(engine.graph, engine.pi)
        for name in sorted(STANDARD_WORKLOADS):
            result = run_loadgen(engine, workload_config(
                name, n_requests=50, seed=2))
            row = result.summary()
            for field in ("workload", "qps", "p50_ms", "p95_ms", "p99_ms",
                          "accepted", "rejected", "completed", "reconciled"):
                assert field in row
            assert row["completed"] == 50
            assert row["reconciled"] is True, result.reconcile_problems
            assert row["qps"] > 0
            for resp in result.responses:
                if resp.request.kind == "mis_member":
                    assert resp.value == bool(in_mis[resp.request.key])

    def test_overload_sheds_and_still_reconciles(self):
        engine = make_engine()
        result = run_loadgen(
            engine, workload_config("bursty-hotspot", n_requests=120,
                                    seed=0, burst_size=64),
            admission=AdmissionControl(max_queue=16, batch_window=4),
        )
        row = result.summary()
        assert row["rejected"] > 0
        assert row["completed"] + row["rejected"] == 120
        assert row["reconciled"] is True
