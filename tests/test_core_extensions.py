"""Tests for the §2 extension machinery: parallel slackness, the PRAM
simulation, and the spanning-forest corollary."""

import numpy as np
import pytest

from repro.core import (
    AMPCConfig,
    PRAMSimulator,
    SlacknessModel,
    estimate_run,
)
from repro.graph import generators, validation


class TestSlacknessModel:
    def test_no_slack_is_fully_serial(self):
        model = SlacknessModel(virtual_per_physical=8,
                               remote_latency_us=2.0, compute_us=0.1)
        assert model.round_time_us(100, slack=False) == pytest.approx(210.0)

    def test_slack_overlaps_latency(self):
        model = SlacknessModel(virtual_per_physical=8,
                               remote_latency_us=2.0, compute_us=0.1)
        # 100 queries: 100*0.1 compute + ceil(100/8)=13 latency batches.
        assert model.round_time_us(100, slack=True) == pytest.approx(36.0)

    def test_speedup_approaches_latency_ratio(self):
        model = SlacknessModel(virtual_per_physical=1024,
                               remote_latency_us=2.0, compute_us=0.1)
        # With huge slackness, time ~ compute only: speedup -> 21x.
        assert model.speedup(10_000) > 15

    def test_v_equals_one_gives_no_speedup(self):
        model = SlacknessModel(virtual_per_physical=1)
        assert model.speedup(500) == pytest.approx(1.0)

    def test_zero_queries(self):
        model = SlacknessModel()
        assert model.round_time_us(0) == 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SlacknessModel(virtual_per_physical=0)
        with pytest.raises(ValueError):
            SlacknessModel(remote_latency_us=-1)

    def test_estimate_on_real_run(self):
        from repro.algorithms.two_cycle import two_cycle

        g, _ = generators.two_cycle_instance(1024, True, rng=1)
        res = two_cycle(g, seed=1)
        estimate = estimate_run(res.report, SlacknessModel(16))
        assert estimate.total_us_with_slack < estimate.total_us_no_slack
        assert estimate.speedup > 2
        assert len(estimate.per_round_us) == len(res.report.rounds)


class TestPRAMSimulation:
    def test_one_round_per_step(self):
        sim = PRAMSimulator(8, memory={i: i for i in range(8)})
        for _ in range(5):
            sim.step(lambda pid, read: [(pid, read(pid) + 1)])
        assert sim.rounds_used == 5
        assert sim.memory == {i: i + 5 for i in range(8)}

    def test_concurrent_reads_allowed(self):
        # CREW: every processor reads cell 0 in the same step.
        sim = PRAMSimulator(16, memory={0: 42})
        sim.step(lambda pid, read: [(100 + pid, read(0))])
        assert all(sim.memory[100 + pid] == 42 for pid in range(16))

    def test_common_crcw_conflict_resolution(self):
        sim = PRAMSimulator(8, memory={})
        sim.step(lambda pid, read: [(7, pid)])
        assert sim.memory[7] == 0  # minimum write wins

    def test_pointer_jumping_as_pram_program(self):
        """Wyllie's algorithm written as a PRAM program: distance-to-tail
        in ceil(log2 n) steps, each one AMPC round."""
        n = 32
        succ = generators.linked_list(n, rng=3)
        tail = int(np.flatnonzero(succ < 0)[0])
        # ptr(v) lives at address v, dist(v) at address n + v.
        memory = {}
        for v in range(n):
            memory[v] = int(succ[v]) if succ[v] >= 0 else v
            memory[n + v] = 1 if succ[v] >= 0 else 0
        sim = PRAMSimulator(n, memory=memory)

        def jump(pid, read):
            ptr = read(pid)
            dist = read(n + pid)
            ptr2 = read(ptr)
            dist2 = read(n + ptr)
            return [(pid, ptr2), (n + pid, dist + dist2)]

        steps = int(np.ceil(np.log2(n)))
        for _ in range(steps):
            sim.step(jump)
        assert sim.rounds_used == steps
        from repro.algorithms.list_ranking import sequential_list_ranks

        ranks = sequential_list_ranks(succ)
        for v in range(n):
            assert sim.memory[v] == tail
            assert sim.memory[n + v] == (n - 1) - ranks[v]

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            PRAMSimulator(0)


class TestSpanningForest:
    def test_spanning_forest_spans(self):
        from repro.algorithms.msf import spanning_forest
        from repro.graph.graph import Graph

        g = generators.erdos_renyi_gnm(300, 700, rng=5)
        edges, result = spanning_forest(g, seed=1)
        forest = Graph.from_edges(g.n, edges)
        assert validation.is_forest(forest)
        assert validation.same_partition(
            validation.components_reference(forest),
            validation.components_reference(g),
        )

    def test_spanning_forest_edge_count(self):
        from repro.algorithms.msf import spanning_forest

        g = generators.erdos_renyi_gnm(100, 60, rng=6)
        comps = np.unique(validation.components_reference(g)).size
        edges, _ = spanning_forest(g, seed=2)
        assert edges.shape[0] == g.n - comps
