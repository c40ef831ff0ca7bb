"""Tests for AMPC minimum spanning forest (§7) and the Borůvka baseline."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import generators, validation
from repro.algorithms.msf import minimum_spanning_forest, sequential_msf_ids
from repro.baselines.boruvka import boruvka_msf
from repro.verify import strategies as vst

from conftest import graph_zoo


def weighted_zoo(seed=0):
    return [
        (name, generators.with_random_weights(g, rng=seed + i))
        for i, (name, g) in enumerate(graph_zoo(seed=seed))
    ]


class TestCorrectness:
    @pytest.mark.parametrize("name,graph", weighted_zoo(seed=1))
    def test_exact_msf_edge_set(self, name, graph):
        res = minimum_spanning_forest(graph, seed=2)
        assert np.array_equal(res.edge_ids, sequential_msf_ids(graph)), name

    def test_forest_size_is_n_minus_components(self):
        g = generators.erdos_renyi_gnm(200, 260, rng=3)
        wg = generators.with_random_weights(g, rng=3)
        res = minimum_spanning_forest(wg, seed=1)
        comps = np.unique(validation.components_reference(g)).size
        assert res.edge_ids.size == g.n - comps

    def test_output_is_acyclic_and_spanning(self):
        g = generators.erdos_renyi_gnm(150, 500, rng=4)
        wg = generators.with_random_weights(g, rng=4)
        res = minimum_spanning_forest(wg, seed=1)
        from repro.graph.graph import Graph

        forest = Graph.from_edges(g.n, wg.edge_list()[res.edge_ids])
        assert validation.is_forest(forest)
        assert validation.same_partition(
            validation.components_reference(forest),
            validation.components_reference(g),
        )

    def test_duplicate_weights_rejected(self):
        from repro.graph.graph import WeightedGraph

        wg = WeightedGraph.from_weighted_edges(3, [(0, 1), (1, 2)], [1.0, 1.0])
        with pytest.raises(ValueError):
            minimum_spanning_forest(wg, seed=1)

    def test_empty_graph(self):
        from repro.graph.graph import WeightedGraph

        wg = WeightedGraph.from_weighted_edges(4, [], [])
        res = minimum_spanning_forest(wg, seed=1)
        assert res.edge_ids.size == 0 and res.total_weight == 0.0

    @settings(max_examples=10, deadline=None)
    @given(vst.weighted_graphs(min_n=2, max_n=50), vst.seeds())
    def test_property_random_weighted_graphs(self, wg, seed):
        res = minimum_spanning_forest(wg, seed=seed % 7)
        assert np.array_equal(res.edge_ids, sequential_msf_ids(wg))
        want = float(wg.edge_weights()[res.edge_ids].sum()) if res.edge_ids.size else 0.0
        assert res.total_weight == pytest.approx(want)

    def test_deterministic(self):
        g = generators.erdos_renyi_gnm(120, 400, rng=6)
        wg = generators.with_random_weights(g, rng=6)
        a = minimum_spanning_forest(wg, seed=9)
        b = minimum_spanning_forest(wg, seed=9)
        assert np.array_equal(a.edge_ids, b.edge_ids)
        assert a.phases == b.phases


class TestFootprint:
    @pytest.mark.parametrize("d,bound_mb", [(13, 12.47), (35, 17.5)])
    def test_prim_round_peak_allocation(self, d, bound_mb):
        """One local-Prim round on msf-er's graph allocates no more at its
        peak than the per-vertex heap walk it replaced did (the bounds are
        that walk's measured peaks)."""
        import tracemalloc

        from repro.algorithms.msf import _msf_increase_degree
        from repro.core import AMPCConfig, AMPCRuntime

        g = generators.with_random_weights(
            generators.erdos_renyi_gnm(7000, 21000, rng=1), rng=1
        )
        config = AMPCConfig.for_input(g.n + g.m, epsilon=0.5, seed=2)
        runtime = AMPCRuntime(config)
        tracemalloc.start()
        try:
            _msf_increase_degree(g, d, runtime, tag="prim")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20


class TestComplexityShape:
    def test_phases_flat_while_n_grows(self):
        phases = []
        for n in (400, 1600):
            g = generators.erdos_renyi_gnm(n, 3 * n, rng=n)
            wg = generators.with_random_weights(g, rng=n)
            phases.append(minimum_spanning_forest(wg, seed=1).phases)
        assert max(phases) - min(phases) <= 1

    def test_boruvka_iterations_grow_logarithmically(self):
        iters = []
        for n in (128, 2048):
            g = generators.cycle(n)
            wg = generators.with_random_weights(g, rng=n)
            iters.append(boruvka_msf(wg, seed=1).iterations)
        assert iters[1] > iters[0]


class TestBoruvkaBaseline:
    @pytest.mark.parametrize("name,graph", weighted_zoo(seed=11))
    def test_exact_msf(self, name, graph):
        res = boruvka_msf(graph, seed=1)
        assert np.array_equal(res.edge_ids, sequential_msf_ids(graph)), name

    def test_weight_agreement_with_ampc(self):
        g = generators.grid(12, 12)
        wg = generators.with_random_weights(g, rng=12)
        a = minimum_spanning_forest(wg, seed=1)
        b = boruvka_msf(wg, seed=1)
        assert a.total_weight == pytest.approx(b.total_weight)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_networkx_weight_agreement(self):
        import networkx as nx

        g = generators.erdos_renyi_gnm(120, 360, rng=13)
        wg = generators.with_random_weights(g, rng=13)
        res = minimum_spanning_forest(wg, seed=1)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        el, w = wg.edge_list(), wg.edge_weights()
        for j in range(wg.m):
            G.add_edge(int(el[j, 0]), int(el[j, 1]), weight=float(w[j]))
        nx_weight = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_edges(G, data=True)
        )
        assert res.total_weight == pytest.approx(nx_weight)
