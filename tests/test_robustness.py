"""Robustness and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime, Timer
from repro.graph import generators, validation
from repro.graph.graph import WeightedGraph


class TestRuntimeFailureInjection:
    def test_worker_exception_propagates(self):
        rt = AMPCRuntime(AMPCConfig(space=32, n_machines=2, seed=1))
        rt.bootstrap([])

        def boom(ctx, item):
            raise RuntimeError("injected failure")

        with pytest.raises(RuntimeError, match="injected failure"):
            rt.round([1, 2, 3], boom)

    def test_store_not_advanced_is_not_left_unsealed(self):
        # Even after a mid-round crash, a fresh round can run: the
        # runtime's readable store is still the last *sealed* one.
        rt = AMPCRuntime(AMPCConfig(space=32, n_machines=2, seed=1))
        rt.bootstrap([(("k", 0), 1)])
        with pytest.raises(ValueError):
            rt.round([0], lambda ctx, v: (_ for _ in ()).throw(ValueError()))
        # Recovery path: the paper's fault-tolerance story — restart the
        # round from scratch against the same immutable inputs.
        result = rt.round([0], lambda ctx, v: ctx.read(("k", 0)))
        assert result.results == [1]

    def test_nested_tuple_keys_are_rejected(self):
        # A DDS key is (str, int64[, int64]): a nested one is no word, and
        # staging it fails before any round is recorded.
        rt = AMPCRuntime(AMPCConfig(space=32, n_machines=4, seed=1))
        with pytest.raises(TypeError, match="not \\(str, int64"):
            rt.bootstrap([((("a", (1, 2)), 3), 4)])
        assert rt.report.n_rounds == 0
        rt.bootstrap([(("a", 3), 4)])
        out = rt.round([0], lambda ctx, v: ctx.read(("a", 3)))
        assert out.results == [4]

    def test_timer_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0


class TestAlgorithmEdgeInputs:
    def test_mis_on_fully_disconnected(self):
        from repro.algorithms.mis import maximal_independent_set

        g = generators.erdos_renyi_gnm(40, 0, rng=1)
        res = maximal_independent_set(g, seed=1)
        assert res.in_mis.all()

    def test_connectivity_single_vertex(self):
        from repro.algorithms.connectivity import connectivity

        g = generators.erdos_renyi_gnm(1, 0, rng=1)
        res = connectivity(g, seed=1)
        assert res.n_components == 1

    def test_msf_with_negative_weights(self):
        from repro.algorithms.msf import (
            minimum_spanning_forest,
            sequential_msf_ids,
        )

        g = generators.erdos_renyi_gnm(60, 140, rng=2)
        edges = g.edges()
        rng = np.random.default_rng(2)
        weights = rng.permutation(edges.shape[0]).astype(np.float64) - 100.0
        wg = WeightedGraph.from_weighted_edges(g.n, edges, weights)
        res = minimum_spanning_forest(wg, seed=1)
        assert np.array_equal(res.edge_ids, sequential_msf_ids(wg))
        assert res.total_weight < 0

    def test_two_cycle_smallest_instance(self):
        from repro.algorithms.two_cycle import two_cycle

        g, truth = generators.two_cycle_instance(6, True, rng=1)
        assert two_cycle(g, seed=1).is_two_cycles == truth

    def test_list_ranking_two_elements(self):
        from repro.algorithms.list_ranking import list_ranking

        succ = np.array([1, -1], dtype=np.int64)
        res = list_ranking(succ, seed=1)
        assert res.ranks.tolist() == [0, 1]

    def test_forest_connectivity_single_edge(self):
        from repro.algorithms.forest import forest_connectivity

        g = generators.path(2)
        res = forest_connectivity(g, seed=1)
        assert res.n_trees == 1

    def test_bc_labeling_two_triangles_disconnected(self):
        from repro.algorithms.biconnectivity import bc_labeling

        g = generators.disjoint_union(
            [generators.cycle(3), generators.cycle(3)]
        )
        res = bc_labeling(g, seed=1)
        assert res.bridges.size == 0
        assert len(res.bcc_vertex_sets) == 2

    def test_matching_triangle(self):
        from repro.algorithms.matching import maximal_matching

        res = maximal_matching(generators.cycle(3), seed=1)
        assert res.edge_ids.size == 1


class TestChaosEndToEnd:
    """Acceptance workloads under the reference fault plan: 20% machine
    crashes + 10% server outages, replication factor 2 — results must be
    bit-identical to the fault-free run, with recovery itemized."""

    def _plan(self, seed):
        from repro.core.chaos import FaultPlan

        return (FaultPlan.machine_crashes(0.2)
                | FaultPlan.server_outages(0.1)).with_seed(seed)

    @pytest.mark.chaos
    def test_connectivity_bit_identical_under_faults(self):
        from repro.algorithms.connectivity import connectivity
        from repro.core.chaos import ChaosRuntime

        g = generators.erdos_renyi_gnm(200, 500, rng=4)
        cfg = AMPCConfig.for_input(g.n + g.m, seed=3, replication_factor=2)
        clean = connectivity(g, config=cfg)
        rt = ChaosRuntime(cfg, plan=self._plan(5))
        chaotic = connectivity(g, runtime=rt)
        assert np.array_equal(chaotic.labels, clean.labels)
        assert chaotic.n_components == clean.n_components
        assert rt.report.recovery_summary()["recovery_reads"] > 0

    @pytest.mark.chaos
    def test_mis_bit_identical_under_faults(self):
        from repro.algorithms.mis import maximal_independent_set
        from repro.core.chaos import ChaosRuntime

        g = generators.erdos_renyi_gnm(200, 500, rng=4)
        cfg = AMPCConfig.for_input(g.n + g.m, seed=3, replication_factor=2)
        clean = maximal_independent_set(g, config=cfg)
        rt = ChaosRuntime(cfg, plan=self._plan(6))
        chaotic = maximal_independent_set(g, runtime=rt)
        assert np.array_equal(chaotic.in_mis, clean.in_mis)
        assert rt.report.crashes > 0


class TestSeedIsolation:
    """Different algorithm stages must not share randomness streams."""

    def test_connectivity_and_mis_draw_independently(self):
        from repro.algorithms.connectivity import connectivity
        from repro.algorithms.mis import maximal_independent_set

        g = generators.erdos_renyi_gnm(200, 500, rng=1)
        # Same seed, different algorithms: both correct (no stream clash).
        conn = connectivity(g, seed=77)
        mis = maximal_independent_set(g, seed=77)
        assert validation.same_partition(
            conn.labels, validation.components_reference(g)
        )
        from repro.algorithms.mis import sequential_lfmis

        assert np.array_equal(mis.in_mis, sequential_lfmis(g, mis.pi))

    def test_epsilon_changes_space_not_correctness(self):
        from repro.algorithms.connectivity import connectivity

        g = generators.erdos_renyi_gnm(300, 700, rng=2)
        for eps in (0.3, 0.6, 0.8):
            res = connectivity(g, epsilon=eps, seed=1)
            assert validation.same_partition(
                res.labels, validation.components_reference(g)
            ), eps
