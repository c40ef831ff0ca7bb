"""Tests for AMPC connectivity (§6) and its MPC baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators, validation
from repro.algorithms.connectivity import connectivity
from repro.baselines.label_propagation import (
    hooking_connectivity,
    label_propagation,
)

from conftest import graph_zoo


class TestCorrectness:
    @pytest.mark.parametrize("name,graph", graph_zoo(seed=1))
    def test_matches_union_find(self, name, graph):
        res = connectivity(graph, seed=3)
        ref = validation.components_reference(graph)
        assert validation.same_partition(res.labels, ref), name
        assert res.n_components == np.unique(ref).size

    @pytest.mark.parametrize("name,graph", graph_zoo(seed=2))
    def test_sparse_reduction_variant(self, name, graph):
        res = connectivity(graph, seed=4, use_sparse_reduction=True)
        ref = validation.components_reference(graph)
        assert validation.same_partition(res.labels, ref), name

    def test_labels_are_min_component_ids(self):
        g = generators.disjoint_union([generators.path(5), generators.cycle(4)])
        res = connectivity(g, seed=1)
        # Canonical labels: the min original vertex id per component.
        assert set(np.unique(res.labels).tolist()) == {0, 5}

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 80), st.integers(0, 5000))
    def test_property_random_graphs(self, n, seed):
        m = min(2 * n, n * (n - 1) // 2)
        g = generators.erdos_renyi_gnm(n, m, rng=seed)
        res = connectivity(g, seed=seed % 11)
        assert validation.same_partition(
            res.labels, validation.components_reference(g)
        )

    def test_deterministic(self):
        g = generators.erdos_renyi_gnm(400, 900, rng=5)
        a = connectivity(g, seed=8)
        b = connectivity(g, seed=8)
        assert np.array_equal(a.labels, b.labels)
        assert a.phases == b.phases


class TestFootprint:
    @pytest.mark.parametrize(
        "scale,d,bound_mb", [(14, 14, 27.76), (14, 40, 66.67), (11, 230, 50.43)]
    )
    def test_increase_degrees_round_peak_allocation(self, scale, d, bound_mb):
        """One IncreaseDegrees round on cc-rmat's graph (RMAT 2^14 x 8,
        self-loops dropped) at its phase-1 and phase-2 budgets, and on
        RMAT 2^11 x 8 at a late-phase budget (d = 230, the 10^7-edge
        cell's), allocates no more at its peak than the per-vertex BFS
        and the ``Graph.from_edges`` rebuild it replaced did (the bounds
        are their measured peaks). At d = 230 the membership compare
        must be done in pieces: one compare over a whole step's windows
        peaks near 113 MB there."""
        import tracemalloc

        from repro.algorithms.connectivity import _increase_degrees
        from repro.core import AMPCConfig, AMPCRuntime
        from repro.graph.graph import Graph

        edges = np.concatenate(
            list(generators.rmat_edge_chunks(scale, 8, rng=1))
        )
        g = Graph.from_edges(1 << scale, edges[edges[:, 0] != edges[:, 1]])
        del edges
        config = AMPCConfig.for_input(g.n + g.m, epsilon=0.5, seed=2)
        runtime = AMPCRuntime(config)
        tracemalloc.start()
        try:
            _increase_degrees(g, d, runtime, tag="increase-deg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20


class TestComplexityShape:
    def test_budget_grows_doubly_exponentially_then_caps(self):
        g = generators.erdos_renyi_gnm(4000, 12000, rng=1)
        res = connectivity(g, seed=1)
        budgets = res.budgets
        assert len(budgets) >= 2
        # Strictly growing until the cap.
        grew = [b2 > b1 for b1, b2 in zip(budgets, budgets[1:])]
        assert grew[0], budgets

    def test_phases_flat_while_n_grows(self):
        phases = []
        for n in (500, 2000, 8000):
            g = generators.erdos_renyi_gnm(n, 3 * n, rng=n)
            phases.append(connectivity(g, seed=2).phases)
        assert max(phases) - min(phases) <= 1, phases

    def test_rounds_do_not_depend_on_diameter(self):
        # Same n and m, wildly different diameters.
        low_d = generators.erdos_renyi_gnm(1024, 2048, rng=1)
        high_d = generators.components_with_diameter(2, 511, 0, rng=2)
        r_low = connectivity(low_d, seed=1).report.n_rounds
        r_high = connectivity(high_d, seed=1).report.n_rounds
        assert abs(r_low - r_high) <= 6

    def test_label_propagation_rounds_track_diameter(self):
        shallow = generators.components_with_diameter(8, 6, 0, rng=3)
        deep = generators.components_with_diameter(2, 200, 0, rng=4)
        r_shallow = label_propagation(shallow, seed=1).iterations
        r_deep = label_propagation(deep, seed=1).iterations
        assert r_deep > 4 * r_shallow


class TestBaselines:
    @pytest.mark.parametrize("name,graph", graph_zoo(seed=7))
    def test_label_propagation_correct(self, name, graph):
        res = label_propagation(graph, seed=1)
        assert validation.same_partition(
            res.labels, validation.components_reference(graph)
        ), name

    @pytest.mark.parametrize("name,graph", graph_zoo(seed=8))
    def test_hooking_correct(self, name, graph):
        res = hooking_connectivity(graph, seed=1)
        assert validation.same_partition(
            res.labels, validation.components_reference(graph)
        ), name

    def test_hooking_iterations_logarithmic(self):
        iters = []
        for n in (256, 4096):
            g = generators.cycle(n)
            iters.append(hooking_connectivity(g, seed=1).iterations)
        assert iters[1] <= iters[0] + 6  # log-ish growth, not linear

    def test_all_rounds_tagged_mpc(self):
        g = generators.erdos_renyi_gnm(50, 80, rng=9)
        res = label_propagation(g, seed=1)
        assert all(r.kind in ("mpc", "bootstrap") for r in res.report.rounds)
