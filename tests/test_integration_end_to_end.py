"""End-to-end pipelines crossing several modules, plus paper-claim shape
checks at test scale (the full sweeps live in benchmarks/)."""

import numpy as np
import pytest

import repro
from repro.graph import generators, validation
from repro.baselines import (
    hooking_connectivity,
    luby_mis,
    mpc_list_ranking,
    mpc_two_cycle,
)


class TestPublicAPI:
    """The README quickstart path must work via the top-level exports."""

    def test_connectivity_via_package_root(self):
        g = generators.erdos_renyi_gnm(200, 500, rng=1)
        res = repro.connectivity(g, seed=0)
        assert res.n_components == np.unique(
            validation.components_reference(g)
        ).size

    def test_all_headline_exports_callable(self):
        g = generators.random_tree(20, rng=1)
        assert repro.forest_connectivity(g, seed=1).n_trees == 1
        assert repro.root_forest(g, seed=1).parent.shape == (20,)
        wg = generators.with_random_weights(
            generators.erdos_renyi_gnm(20, 40, rng=2), rng=2
        )
        assert repro.minimum_spanning_forest(wg, seed=1).edge_ids.size > 0
        assert repro.maximal_independent_set(
            generators.cycle(10), seed=1
        ).vertices.size >= 3


class TestCrossAlgorithmConsistency:
    def test_msf_edges_form_spanning_forest_for_connectivity(self):
        g = generators.erdos_renyi_gnm(300, 800, rng=3)
        wg = generators.with_random_weights(g, rng=3)
        msf = repro.minimum_spanning_forest(wg, seed=1)
        forest = repro.Graph.from_edges(g.n, wg.edge_list()[msf.edge_ids])
        conn_f = repro.forest_connectivity(forest, seed=1)
        conn_g = repro.connectivity(g, seed=1)
        assert validation.same_partition(conn_f.labels, conn_g.labels)

    def test_bc_pipeline_consistency(self):
        g, planted = generators.bridged_clusters(4, 6, 2, rng=4)
        bc = repro.bc_labeling(g, seed=1)
        # Articulation points include every bridge endpoint of degree > 1.
        ap = set(bc.articulation_points.tolist())
        for u, v in bc.bridges.tolist():
            if g.degree(u) > 1:
                assert u in ap
            if g.degree(v) > 1:
                assert v in ap

    def test_mis_of_components_unions_to_global_mis(self):
        a = generators.cycle(11)
        b = generators.star(7)
        g = generators.disjoint_union([a, b])
        res = repro.maximal_independent_set(g, seed=5)
        mis = set(res.vertices.tolist())
        # Validity per component implies validity globally; check both
        # components contributed.
        assert any(v < 11 for v in mis) and any(v >= 11 for v in mis)

    def test_list_ranking_agrees_between_ampc_and_mpc(self):
        succ = generators.linked_list(700, rng=6)
        a = repro.list_ranking(succ, seed=1)
        b = mpc_list_ranking(succ, seed=1)
        assert np.array_equal(a.ranks, b.ranks)


class TestHeadlineShapes:
    """Small-scale versions of the Figure 1 claims; benchmarks extend them."""

    def test_two_cycle_ampc_flat_mpc_growing(self):
        ampc_rounds, mpc_rounds = [], []
        for n in (64, 1024):
            g, _ = generators.two_cycle_instance(n, True, rng=n)
            ampc_rounds.append(repro.two_cycle(g, seed=1).report.n_rounds)
            mpc_rounds.append(mpc_two_cycle(g, seed=1).report.n_rounds)
        assert ampc_rounds[1] - ampc_rounds[0] <= 2
        assert mpc_rounds[1] - mpc_rounds[0] >= 6

    def test_mis_ampc_fewer_iterations_than_luby(self):
        g = generators.erdos_renyi_gnm(2000, 6000, rng=7)
        ampc = repro.maximal_independent_set(g, seed=1)
        luby = luby_mis(g, seed=1)
        assert ampc.iterations <= luby.iterations

    def test_connectivity_beats_diameter_bound_propagation(self):
        # The 2-Cycle-conjecture pain point: exploring distance-k
        # neighborhoods costs Θ(k) MPC propagation rounds, while AMPC
        # walks them adaptively inside rounds. High-diameter instance:
        from repro.baselines import label_propagation

        g = generators.components_with_diameter(4, 300, 0, rng=8)
        ampc = repro.connectivity(g, seed=1)
        mpc = label_propagation(g, seed=1)
        assert mpc.report.n_rounds >= 250
        assert ampc.report.n_rounds < 40

    def test_connectivity_flat_while_hooking_grows(self):
        # Against the Θ(log n) hooking baseline the separation at
        # simulatable scale is the *slope*: AMPC rounds stay near-flat
        # over a 64x range of n while hooking adds ~1 round per doubling.
        ampc_r, mpc_r = [], []
        for n in (512, 32768):
            g = generators.cycle(n)
            ampc_r.append(repro.connectivity(g, seed=1).report.n_rounds)
            mpc_r.append(hooking_connectivity(g, seed=1).report.n_rounds)
        ampc_growth = ampc_r[1] - ampc_r[0]
        mpc_growth = mpc_r[1] - mpc_r[0]
        assert ampc_growth <= 4
        assert mpc_growth >= 5

    def test_ampc_simulates_mpc(self):
        """§2: every MPC algorithm runs in AMPC — the MPC runtime *is* an
        AMPC runtime restricted to inbox reads; verify the subclassing
        contract actually holds."""
        from repro.core import AMPCRuntime, MPCRuntime

        assert issubclass(MPCRuntime, AMPCRuntime)
