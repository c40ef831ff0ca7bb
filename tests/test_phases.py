"""The contraction-phase driver of connectivity and MSF, and the budget
schedule the Andoni et al. MPC comparator shares with them."""

import numpy as np
import pytest

import repro
from repro.algorithms import phases
from repro.baselines import andoni_mpc_connectivity, boruvka_msf
from repro.graph import generators, validation

#: The name each algorithm's non-convergence error carries -> one run.
ALGORITHMS = {
    "connectivity": lambda g: repro.connectivity(g, seed=1),
    "MSF": lambda g: repro.minimum_spanning_forest(
        generators.with_random_weights(g, rng=1), seed=1),
    "Andoni MPC": lambda g: andoni_mpc_connectivity(g, seed=1),
}


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_phase_limit_raises_naming_the_algorithm(monkeypatch, name):
    g = generators.erdos_renyi_gnm(2000, 6000, rng=1)
    run = ALGORITHMS[name]
    assert run(g).phases >= 2
    schedule = phases.budget_schedule
    monkeypatch.setattr(phases, "budget_schedule",
                        lambda *args: schedule(*args)._replace(limit=1))
    with pytest.raises(RuntimeError,
                       match=f"^{name} did not converge in 1 phases"):
        run(g)


def test_schedule_starts_from_the_loop_graph_and_caps_from_the_input():
    config = repro.AMPCConfig.for_input(40_000, seed=0)
    whole = phases.budget_schedule(config, 10_000, 10_000)
    reduced = phases.budget_schedule(config, 10_000, 100)
    assert reduced.start > whole.start
    assert reduced.start == phases.budget_schedule(config, 100, 100).start
    assert reduced.limit == whole.limit
    assert whole.start <= whole.cap and reduced.start <= reduced.cap


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_union_find_roots_and_kruskal_forest(seed):
    g = generators.erdos_renyi_gnm(60, 70, rng=seed)
    root, joined = phases.union_find(g.n, g.edges())
    assert np.array_equal(root, validation.components_reference(g))
    assert joined.sum() == g.n - np.unique(root).size
    wg = generators.with_random_weights(g, rng=seed)
    order = np.argsort(wg.edge_weights(), kind="stable")
    _root, joined = phases.union_find(wg.n, wg.edge_list()[order])
    assert np.array_equal(np.sort(order[joined]),
                          boruvka_msf(wg, seed=seed).edge_ids)
