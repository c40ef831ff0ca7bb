"""Resident serving engine: oracle correctness, sealed-state reuse
bit-identity, ledger reconciliation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.mis import sequential_lfmis
from repro.graph import generators, validation
from repro.serve import ServeRequest, ServingEngine

pytestmark = pytest.mark.serve


def make_graph(seed=0, n=60):
    return generators.erdos_renyi_gnm(n, 2 * n, rng=seed)


def ledger_key(row):
    """The deterministic fields of a RoundStats row (wall time excluded)."""
    return (row.kind, row.rounds, row.total_reads, row.total_writes,
            row.max_machine_reads, row.max_machine_writes,
            row.n_machines_active, row.budget_violations,
            row.max_server_load)


def mixed_requests(n):
    return (
        [ServeRequest("mis_member", v) for v in range(0, n, 5)]
        + [ServeRequest("component_of", v) for v in range(0, n, 11)]
        + [ServeRequest("same_component", v, (v * 7 + 3) % n)
           for v in range(0, n, 13)]
        + [ServeRequest("subtree_size", v) for v in range(0, n, 9)]
    )


class TestAnswers:
    def test_mis_membership_matches_sequential_lfmis(self):
        graph = make_graph()
        engine = ServingEngine(graph, seed=0)
        want = sequential_lfmis(graph, engine.pi)
        got = [engine.execute_one(ServeRequest("mis_member", v)).value
               for v in range(graph.n)]
        assert got == [bool(b) for b in want]

    def test_component_answers_match_bfs_reference(self):
        graph = make_graph(seed=3)
        engine = ServingEngine(graph, seed=0)
        reference = validation.components_reference(graph)
        assert validation.same_partition(engine.labels, reference)
        for v in range(0, graph.n, 7):
            u = (v * 5 + 2) % graph.n
            resp = engine.execute_one(ServeRequest("same_component", v, u))
            assert resp.value == bool(reference[v] == reference[u])
            resp = engine.execute_one(ServeRequest("component_of", v))
            assert resp.value == int(engine.labels[v])

    def test_subtree_sizes_cover_components(self):
        graph = make_graph(seed=5)
        engine = ServingEngine(graph, seed=0)
        sizes = [engine.execute_one(ServeRequest("subtree_size", v)).value
                 for v in range(graph.n)]
        assert sizes == engine.subtree_size.tolist()
        # Each root's subtree is its whole component.
        reference = validation.components_reference(graph)
        for root in np.unique(engine.root_of):
            assert sizes[root] == int((reference == reference[root]).sum())

    def test_rejects_malformed_requests(self):
        engine = ServingEngine(make_graph(), seed=0)
        with pytest.raises(ValueError):
            engine.execute_one(ServeRequest("frobnicate", 0))
        with pytest.raises(ValueError):
            engine.execute_one(ServeRequest("mis_member", engine.n))
        with pytest.raises(ValueError):
            engine.execute_one(ServeRequest("same_component", 0, -1))


class TestResidentReuse:
    """Sealed-state reuse is bit-identical to fresh per-request runs."""

    def test_results_and_ledgers_bit_identical_to_fresh_engines(self):
        graph = make_graph(seed=1)
        reqs = mixed_requests(graph.n)

        resident = ServingEngine(graph, seed=0)
        res_answers = [resident.execute_one(r) for r in reqs]
        res_rows = [ledger_key(row) for row in resident.serve_report.rounds]

        fresh_answers, fresh_rows = [], []
        for r in reqs:
            engine = ServingEngine(graph, seed=0)
            fresh_answers.append(engine.execute_one(r))
            fresh_rows.append(ledger_key(engine.serve_report.rounds[0]))

        for a, b in zip(res_answers, fresh_answers):
            assert (a.value, a.reads, a.writes, a.query_calls) == \
                   (b.value, b.reads, b.writes, b.query_calls)
        assert res_rows == fresh_rows

    def test_runtime_rolls_back_to_resident_checkpoint_every_tick(self):
        engine = ServingEngine(make_graph(), seed=0)
        baseline_rounds = len(engine.runtime.report.rounds)
        counter = engine.runtime._round_counter
        for v in range(6):
            engine.execute_one(ServeRequest("component_of", v))
            assert len(engine.runtime.report.rounds) == baseline_rounds
            assert engine.runtime._round_counter == counter
        assert engine.ticks == 6
        assert engine.serve_report.n_rounds == 6


    def test_aborted_tick_leaves_nothing_behind_for_the_next(self):
        """A tick whose worker raises rolls back like one that succeeds:
        the next tick's ledger row equals a fresh engine's first."""
        from repro.core import AMPCConfig, AMPCRuntime

        ids = np.arange(1000)

        def build():
            runtime = AMPCRuntime(AMPCConfig.for_input(1000, seed=3))
            return runtime, runtime.publish_state(
                arrays=[("comp", ids, ids % 7)])

        def tick(runtime, resident, fail_at=None):
            def worker(ctx, v):
                label = int(ctx.read(("comp", v % 3)))
                if v == fail_at:
                    raise RuntimeError("worker failed mid-tick")
                return label

            return runtime.query_round(
                list(range(10)), worker, resident=resident)

        fresh_runtime, fresh_resident = build()
        fresh_result, fresh_rows = tick(fresh_runtime, fresh_resident)

        runtime, resident = build()
        with pytest.raises(RuntimeError, match="mid-tick"):
            tick(runtime, resident, fail_at=5)
        assert resident.store.n_reads == 0
        assert runtime._store_counter == resident.store_counter
        result, rows = tick(runtime, resident)
        assert result.results == fresh_result.results
        assert [ledger_key(r) for r in rows] == \
               [ledger_key(r) for r in fresh_rows]


class TestLedgers:
    def test_per_request_ledgers_reconcile(self):
        graph = make_graph(seed=2)
        engine = ServingEngine(graph, seed=0)
        responses = engine.execute(mixed_requests(graph.n))
        assert engine.reconcile() == []
        assert sum(r.reads for r in responses) == \
            engine.serve_report.total_reads
        assert sum(r.writes for r in responses) == \
            engine.serve_report.total_writes
        counters = engine.metrics.snapshot()["counters"]
        assert counters["serve.requests"] == len(responses)
        assert counters["serve.reads"] == engine.serve_report.total_reads

    def test_point_lookups_cost_exactly_their_reads(self):
        engine = ServingEngine(make_graph(), seed=0)
        assert engine.execute_one(ServeRequest("component_of", 1)).reads == 1
        assert engine.execute_one(ServeRequest("subtree_size", 2)).reads == 1
        assert engine.execute_one(
            ServeRequest("same_component", 3, 4)).reads == 2

    def test_build_report_separate_from_serve_report(self):
        engine = ServingEngine(make_graph(), seed=0)
        build_rounds = engine.build_report.n_rounds
        assert build_rounds > 0
        engine.execute_one(ServeRequest("component_of", 0))
        assert engine.build_report.n_rounds == build_rounds
        assert engine.serve_report.n_rounds == 1

    def test_explicit_config_sizes_the_spanning_forest_build_too(self):
        import dataclasses

        from repro.core import AMPCConfig

        graph = generators.erdos_renyi_gnm(300, 600, rng=0)
        config = dataclasses.replace(
            AMPCConfig.for_input(graph.n + graph.m, seed=1), n_machines=60
        )
        engine = ServingEngine(graph, config=config)

        def machines(prefix):
            return max(row.n_machines_active
                       for row in engine.build_report.rounds
                       if row.tag.startswith(prefix))

        assert machines("increase-deg:") == 60
        assert machines("prim:") == 60


@pytest.mark.parallel
def test_ambient_process_backend_does_not_reach_the_serving_runtime():
    from functools import partial

    from repro.core.runtime import AMPCRuntime, use_runtime

    with use_runtime(partial(AMPCRuntime, backend="process", n_workers=2)):
        engine = ServingEngine(make_graph(seed=4), seed=0)
    assert engine.runtime.backend == "serial"
