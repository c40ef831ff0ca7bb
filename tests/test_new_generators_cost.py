"""Tests for the SBM/small-world/bipartite generators and the report
serialization / diff helpers."""

import json

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime
from repro.core.cost import compare_reports
from repro.graph import generators, validation


class TestStochasticBlockModel:
    def test_block_labels_cover_sizes(self):
        g, block = generators.stochastic_block_model(
            [10, 15, 5], 0.5, 0.01, rng=1
        )
        assert g.n == 30
        assert np.bincount(block).tolist() == [10, 15, 5]

    def test_in_block_denser_than_cross(self):
        g, block = generators.stochastic_block_model(
            [30, 30], 0.4, 0.02, rng=2
        )
        edges = g.edges()
        same = int((block[edges[:, 0]] == block[edges[:, 1]]).sum())
        cross = g.m - same
        assert same > 3 * cross

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            generators.stochastic_block_model([5, 5], 0.1, 0.5, rng=1)

    def test_affinity_recovers_blocks(self):
        from repro.algorithms.affinity import affinity_clustering
        from repro.graph.graph import WeightedGraph

        g, block = generators.stochastic_block_model(
            [20, 20, 20], 0.4, 0.01, rng=3
        )
        rng = np.random.default_rng(3)
        edges = g.edges()
        same = block[edges[:, 0]] == block[edges[:, 1]]
        w = np.where(same, rng.uniform(0, 1, g.m), rng.uniform(10, 11, g.m))
        w += rng.permutation(g.m) * 1e-9
        wg = WeightedGraph.from_weighted_edges(g.n, edges, w)
        res = affinity_clustering(wg, seed=1)
        # All merges stay inside planted blocks until fewer clusters than
        # blocks remain: every level with >= 3 clusters must be a
        # refinement of the block partition (100% purity).
        refined_levels = 0
        for lv in res.levels:
            if np.unique(lv).size < 3:
                continue
            refined_levels += 1
            for lab in np.unique(lv):
                members = np.flatnonzero(lv == lab)
                assert np.unique(block[members]).size == 1
        assert refined_levels >= 1


class TestWattsStrogatz:
    def test_degree_structure_at_beta_zero(self):
        g = generators.watts_strogatz(30, 4, 0.0, rng=1)
        assert np.all(g.degrees == 4)

    def test_rewiring_preserves_edge_count_roughly(self):
        g0 = generators.watts_strogatz(60, 4, 0.0, rng=2)
        g1 = generators.watts_strogatz(60, 4, 0.5, rng=2)
        assert abs(g0.m - g1.m) <= g0.m // 4

    def test_validation(self):
        with pytest.raises(ValueError):
            generators.watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(ValueError):
            generators.watts_strogatz(10, 4, 1.5)

    def test_algorithms_run_on_small_world(self):
        import repro

        g = generators.watts_strogatz(100, 4, 0.2, rng=3)
        res = repro.connectivity(g, seed=1)
        assert validation.same_partition(
            res.labels, validation.components_reference(g)
        )


class TestBipartite:
    def test_edges_cross_sides_only(self):
        g = generators.bipartite_random(10, 15, 40, rng=1)
        for u, v in g.edges():
            assert (u < 10) != (v < 10)

    def test_exact_edge_count(self):
        g = generators.bipartite_random(8, 8, 20, rng=2)
        assert g.m == 20

    def test_greedy_coloring_uses_two_colors(self):
        from repro.algorithms.coloring import greedy_coloring

        g = generators.bipartite_random(20, 20, 80, rng=3)
        res = greedy_coloring(g, seed=1)
        # Greedy on bipartite is not guaranteed 2, but must be proper;
        # with random order it is small.
        for u, v in g.edges():
            assert res.colors[u] != res.colors[v]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generators.bipartite_random(2, 2, 5)


class TestReportSerialization:
    def make_report(self):
        rt = AMPCRuntime(AMPCConfig(space=32, n_machines=2, seed=1))
        rt.bootstrap([(("k", 0), 1)])
        rt.round([0, 1], lambda ctx, v: ctx.read(("k", 0)), tag="stage-a")
        rt.charge("stage-b", rounds=2, reads=10, writes=5)
        return rt.report

    def test_to_dict_round_trips_through_json(self):
        report = self.make_report()
        data = json.loads(report.to_json())
        assert data["summary"]["rounds"] == report.n_rounds
        assert [r["tag"] for r in data["rounds"]] == [
            "bootstrap", "stage-a", "stage-b",
        ]

    def test_to_dict_preserves_costs(self):
        report = self.make_report()
        data = report.to_dict()
        stage_b = data["rounds"][-1]
        assert stage_b["reads"] == 10 and stage_b["rounds"] == 2

    def test_compare_reports_diffs_changed_metrics(self):
        a = self.make_report()
        rt = AMPCRuntime(AMPCConfig(space=32, n_machines=2, seed=1))
        rt.bootstrap([(("k", 0), 1)])
        rt.round([0, 1], lambda ctx, v: ctx.read(("k", 0)), tag="stage-a")
        rt.charge("stage-b", rounds=4, reads=10, writes=5)
        diff = compare_reports(a, rt.report)
        assert diff["rounds"] == (3, 5)
        assert "reads" not in diff  # unchanged
