"""Metrics instruments, registry, and the ledger-identity contract."""

import json

import numpy as np
import pytest

import repro
from repro.graph import generators
from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    TracingSession,
    reconcile_metrics,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(5)
        assert c.snapshot() == 6

    def test_gauge_set_and_set_max(self):
        g = Gauge("g")
        assert g.snapshot() is None
        g.set_max(3)
        g.set_max(1)
        assert g.snapshot() == 3
        g.set(0)
        assert g.snapshot() == 0

    def test_histogram_base2_buckets(self):
        h = Histogram("h")
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == 110.0
        assert snap["min"] == 0.0 and snap["max"] == 100.0
        # frexp buckets: 0 -> "0"; 1 -> "2"; 2,3 -> "4"; 4 -> "8";
        # 100 -> "128" (exact powers of two land in the next bucket).
        assert snap["buckets"] == {"0": 1, "2": 1, "4": 2, "8": 1,
                                   "128": 1}

    def test_observe_many_matches_scalar_observe(self):
        values = np.array([0, 1, 5, 5, 17, 1024, 0], dtype=np.int64)
        one = Histogram("one")
        many = Histogram("many")
        for v in values:
            one.observe(int(v))
        many.observe_many(values)
        assert one.snapshot() == many.snapshot()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is not reg.counter("h")

    def test_snapshot_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        reg.histogram("c").observe(3)
        assert json.loads(reg.to_json()) == reg.snapshot()

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a")
        c.inc(100)
        reg.gauge("g").set_max(5)
        reg.histogram("h").observe_many(np.arange(10))
        assert c.value == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}


class TestLedgerIdentity:
    @pytest.mark.parametrize("vectorized", [False, True],
                             ids=["scalar", "vectorized"])
    def test_totals_bit_identical_to_run_report(self, vectorized):
        graph = generators.erdos_renyi_gnm(150, 225, 0)
        with TracingSession() as session:
            result = repro.connectivity(graph, seed=0,
                                        vectorized=vectorized)
        assert reconcile_metrics(session.snapshot, result.report) == []
        counters = session.snapshot["counters"]
        assert counters["model.reads"] == result.report.total_reads
        assert counters["model.writes"] == result.report.total_writes
        assert counters["model.rounds"] == result.report.n_rounds

    def test_batch_counters_split_by_execution_path(self):
        # Matching runs per-item programs (scalar ops), connectivity a
        # per-block one (array ops).
        graph = generators.erdos_renyi_gnm(150, 225, 0)
        with TracingSession() as scalar_session:
            repro.maximal_matching(graph, seed=0)
        with TracingSession() as batch_session:
            repro.connectivity(graph, seed=0)
        s = scalar_session.snapshot["counters"]
        b = batch_session.snapshot["counters"]
        assert s.get("ops.batch_read_elems", 0) == 0
        assert b["ops.batch_read_elems"] > 0
        assert b["ops.batch_write_elems"] > 0
        # Both paths charge the same ledger, so scalar + batch = total.
        assert (b["ops.scalar_reads"] + b["ops.batch_read_elems"]
                >= b["model.reads"])
        assert s["ops.scalar_reads"] > 0

    def test_contention_histogram_observes_every_round_store(self):
        graph = generators.erdos_renyi_gnm(150, 225, 0)
        with TracingSession() as session:
            repro.connectivity(graph, seed=0)
        hist = session.snapshot["histograms"]["server.contention"]
        assert hist["count"] > 0
        assert hist["max"] is not None

    def test_finalize_is_idempotent(self):
        obs = MetricsObserver()
        graph = generators.erdos_renyi_gnm(80, 120, 0)
        from repro.core.runtime import install_observer, uninstall_observer

        install_observer(obs)
        try:
            result = repro.connectivity(graph, seed=0)
        finally:
            uninstall_observer(obs)
        first = obs.finalize()
        second = obs.finalize()
        assert first == second
        assert first["counters"]["model.reads"] == result.report.total_reads

    def test_recovery_counters_appear_under_chaos(self):
        from repro.core.chaos import FaultPlan, arm
        from repro.core.config import AMPCConfig
        from repro.core.runtime import AMPCRuntime

        graph = generators.erdos_renyi_gnm(150, 225, 3)
        config = AMPCConfig.for_input(
            graph.n + graph.m, seed=3, replication_factor=2
        )
        plan = FaultPlan(
            seed=7,
            machine_crash_probability=0.15,
            server_outage_probability=0.05,
        )
        with TracingSession() as session:
            runtime = arm(AMPCRuntime)(config, plan=plan)
            result = repro.connectivity(graph, runtime=runtime)
        assert result.report.crashes > 0
        counters = session.snapshot["counters"]
        assert counters["recovery.crashes"] == result.report.crashes
        assert reconcile_metrics(session.snapshot, result.report) == []
