"""Tracer behavior: span structure, detail levels, chaos composition."""

import numpy as np
import pytest

import repro
from repro.core.chaos import FaultPlan, arm
from repro.core.config import AMPCConfig
from repro.core.runtime import AMPCRuntime
from repro.graph import generators
from repro.observe import (
    OpTracer,
    Tracer,
    TracingSession,
    make_tracer,
    reconcile_with_report,
    trace_totals,
)
from repro.verify.invariants import InvariantSuite


def _traced_connectivity(n=120, m=180, seed=0, **session_kw):
    graph = generators.erdos_renyi_gnm(n, m, seed)
    with TracingSession(**session_kw) as session:
        result = repro.connectivity(graph, seed=seed)
    return result, session


class TestSpanStructure:
    def test_every_ledger_row_is_traced_exactly_once(self):
        # Executed rounds become spans; analytically-charged primitives
        # and the bootstrap become instants. Together they cover the
        # RunReport ledger row-for-row.
        result, session = _traced_connectivity()
        traced = sorted(
            (e.attrs["tag"], e.attrs["kind"], e.attrs["reads"],
             e.attrs["writes"])
            for e in session.events
            if e.cat in ("round", "charge", "bootstrap")
            and not e.attrs.get("aborted")
        )
        ledger = sorted(
            (s.tag, s.kind, s.total_reads, s.total_writes)
            for s in result.report.rounds
        )
        assert traced == ledger
        for span in (e for e in session.events if e.cat == "round"):
            assert span.type == "span" and span.dur_us >= 0

    def test_machine_spans_nest_inside_their_round(self):
        _, session = _traced_connectivity()
        machines = [e for e in session.events if e.cat == "machine"]
        assert machines, "machine detail must emit machine spans"
        rounds = [e for e in session.events if e.cat == "round"]
        for m in machines:
            assert any(
                r.ts_us <= m.ts_us and m.ts_us + m.dur_us <= r.ts_us + r.dur_us
                for r in rounds
            ), f"machine span {m.name} is not inside any round span"

    def test_round_detail_drops_machine_spans(self):
        _, session = _traced_connectivity(detail="round")
        assert not [e for e in session.events if e.cat == "machine"]
        assert [e for e in session.events if e.cat == "round"]

    def test_run_span_covers_everything(self):
        _, session = _traced_connectivity()
        runs = [e for e in session.events if e.name == "run"]
        assert len(runs) == 1
        (run,) = runs
        for e in session.events:
            assert e.ts_us >= run.ts_us
            assert e.ts_us + (e.dur_us or 0) <= run.ts_us + run.dur_us

    def test_bootstrap_and_charge_instants_carry_ledger_attrs(self):
        result, session = _traced_connectivity()
        boot = [e for e in session.events if e.cat == "bootstrap"]
        charges = [e for e in session.events if e.cat == "charge"]
        n_boot_rows = sum(
            1 for s in result.report.rounds if s.kind == "bootstrap"
        )
        assert len(boot) == n_boot_rows and charges
        for e in boot + charges:
            assert e.type == "instant"
            assert {"tag", "kind", "reads", "writes"} <= e.attrs.keys()
        # connectivity charges both primitives and the resolve-pointers
        # adaptive walk analytically
        assert {e.attrs["kind"] for e in charges} == {
            "primitive", "adaptive"
        }

    def test_trace_totals_reconcile_with_report(self):
        result, session = _traced_connectivity()
        assert reconcile_with_report(session.events, result.report) == []
        totals = trace_totals(session.events)
        assert totals["reads"] == result.report.total_reads
        assert totals["writes"] == result.report.total_writes
        assert totals["rounds"] == result.report.n_rounds


class TestDetailLevels:
    def test_make_tracer_dispatch(self):
        assert isinstance(make_tracer("op"), OpTracer)
        assert isinstance(make_tracer("round"), Tracer)
        assert make_tracer("round").detail == "round"

    def test_bad_detail_rejected(self):
        with pytest.raises(ValueError):
            Tracer(detail="nope")

    def test_op_detail_emits_per_operation_events(self):
        # Connectivity runs a block program (array ops); matching runs
        # per-item programs (scalar ops).
        _, session = _traced_connectivity(n=60, m=90, detail="op")
        ops = [e for e in session.events if e.cat == "op"]
        assert {e.name for e in ops} >= {"read_batch", "write_batch"}
        graph = generators.erdos_renyi_gnm(60, 90, 0)
        with TracingSession(detail="op") as scalar_session:
            repro.maximal_matching(graph, seed=0)
        scalar_ops = [e for e in scalar_session.events if e.cat == "op"]
        assert {e.name for e in scalar_ops} >= {"read", "write"}
        # op events still reconcile at the round level
        assert [e for e in session.events if e.cat == "round"]


class TestLifecycle:
    def test_finish_is_idempotent(self):
        _, session = _traced_connectivity()
        assert session.tracer.finish() == session.events

    def test_consumers_stream_every_event(self):
        streamed = []

        class Consumer:
            def on_event(self, event):
                streamed.append(event)

        graph = generators.erdos_renyi_gnm(80, 120, 0)
        with TracingSession(consumers=[Consumer()]) as session:
            repro.connectivity(graph, seed=0)
        # Everything but the enclosing run span streams at completion.
        assert [e for e in session.events if e.name != "run"] == streamed

    def test_invariant_observers_mount_as_extra_observers(self):
        suite = InvariantSuite()
        graph = generators.erdos_renyi_gnm(80, 120, 0)
        with TracingSession(observers=suite.observers) as session:
            result = repro.connectivity(graph, seed=0)
        assert suite.violations == []
        assert reconcile_with_report(session.events, result.report) == []


class TestChaosComposition:
    def test_aborted_rounds_are_excluded_from_totals(self):
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
        assert result.report.checkpoint_restores > 0, (
            "fault plan produced no restores; raise the probabilities"
        )
        aborted = [
            e for e in session.events if e.attrs.get("aborted")
        ]
        assert aborted, "restores must close aborted spans"
        restores = [e for e in session.events if e.name == "restore"]
        assert len(restores) == result.report.checkpoint_restores
        assert [e for e in session.events if e.name == "checkpoint"]
        # Aborted attempts are excluded, so totals still match the ledger.
        assert reconcile_with_report(session.events, result.report) == []

    def test_chaos_answer_matches_clean_traced_answer(self):
        graph = generators.erdos_renyi_gnm(120, 180, 1)
        config = AMPCConfig.for_input(
            graph.n + graph.m, seed=1, replication_factor=2
        )
        plan = FaultPlan(seed=2, machine_crash_probability=0.1)
        with TracingSession():
            runtime = arm(AMPCRuntime)(config, plan=plan)
            chaotic = repro.connectivity(graph, runtime=runtime)
        clean = repro.connectivity(graph, config=config)
        assert np.array_equal(chaotic.labels, clean.labels)
