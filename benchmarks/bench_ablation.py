"""Ablation experiments for the design knobs DESIGN.md calls out.

* ε-sweep: the paper's rounds are O(1/ε) (2-Cycle) and O(log log n + 1/ε)
  (connectivity) — smaller ε trades per-machine space for extra rounds;
* budget-growth exponent: Algorithm 7/9 grow d → d^1.4; ablate the
  exponent to show slower growth costs extra phases while the output is
  unchanged;
* leader-sampling constant: fewer leaders contract faster per phase but
  risk stalls; the default must sit on the stable side.
"""

import importlib

import pytest

from repro.algorithms.connectivity import connectivity
from repro.algorithms.phases import GROWTH, budget_schedule
from repro.algorithms.two_cycle import two_cycle
from repro.core import AMPCConfig
from repro.graph import generators, validation
from repro.primitives.sampling import leader_probability

EPSILONS = [0.3, 0.5, 0.7]


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_epsilon_tradeoff_two_cycle(benchmark, record, epsilon):
    g, truth = generators.two_cycle_instance(8192, True, rng=3)
    result = benchmark.pedantic(
        lambda: two_cycle(g, epsilon=epsilon, seed=1), rounds=1, iterations=1
    )
    assert result.is_two_cycles == truth
    record(
        "ablation: epsilon sweep (2-cycle, n=8192)",
        ["epsilon", "space S", "shrink rounds", "total rounds",
         "max reads/machine"],
        [epsilon, result.config.space, result.shrink_rounds,
         result.report.n_rounds, result.report.max_machine_reads],
        rounds=result.report.n_rounds,
    )


def test_epsilon_monotonicity(benchmark):
    """Smaller ε (less space per machine) must not *reduce* rounds."""
    g, _ = generators.two_cycle_instance(8192, True, rng=3)
    rounds = {
        eps: two_cycle(g, epsilon=eps, seed=1).shrink_rounds
        for eps in EPSILONS
    }
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rounds[0.3] >= rounds[0.7], rounds


@pytest.mark.parametrize("exponent", [1.1, 1.4, 2.0])
def test_budget_growth_exponent(benchmark, record, exponent):
    """Ablate d -> d^exponent in the connectivity budget schedule: phases
    needed until the budget reaches the cap, from the schedule's own
    start and cap."""
    n = 32768
    config = AMPCConfig.for_input(4 * n, seed=1)
    d, d_cap, _limit = budget_schedule(config, n, n)
    growth_phases = 0
    while d < d_cap and growth_phases < 64:
        d = min(d**exponent, d_cap)
        growth_phases += 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record(
        "ablation: budget growth exponent (schedule, n=32768)",
        ["exponent", "phases to reach cap", "cap"],
        [exponent, growth_phases, f"{d_cap:.0f}"],
        growth_phases=growth_phases,
    )
    if exponent >= GROWTH:
        assert growth_phases <= 4


LEADER_CONSTANTS = [1.0, 2.0, 4.0]


def _set_leader_constant(monkeypatch, leader_c):
    """Set the Θ(log n / d) constant to ``leader_c`` in the phase driver,
    the module that draws the coins. It is looked up in ``sys.modules``:
    ``repro.algorithms`` re-exports a *function* named ``connectivity``,
    so attribute-style imports of the algorithm modules can bind the
    wrong object."""
    driver = importlib.import_module("repro.algorithms.phases")
    monkeypatch.setattr(driver, "leader_probability",
                        lambda n, d: leader_probability(n, d, leader_c))


@pytest.mark.parametrize("leader_c", LEADER_CONSTANTS)
def test_leader_constant(benchmark, record, monkeypatch, leader_c):
    """The Θ(log n / d) constant: contraction stays correct across it;
    larger c = more leaders = slower contraction (more phases)."""
    g = generators.erdos_renyi_gnm(4096, 12288, rng=4)
    _set_leader_constant(monkeypatch, leader_c)
    result = benchmark.pedantic(
        lambda: connectivity(g, seed=1), rounds=1, iterations=1
    )
    assert validation.same_partition(
        result.labels, validation.components_reference(g)
    )
    record(
        "ablation: leader-sampling constant (connectivity, n=4096)",
        ["c", "phases", "rounds"],
        [leader_c, result.phases, result.report.n_rounds],
        phases=result.phases,
    )


def test_leader_constant_monotonicity(benchmark, monkeypatch):
    """More leaders contract less per phase: phases never fall as c
    grows, and c = 4 needs more of them than c = 1."""
    g = generators.erdos_renyi_gnm(4096, 12288, rng=4)
    phases = []
    for leader_c in LEADER_CONSTANTS:
        _set_leader_constant(monkeypatch, leader_c)
        phases.append(connectivity(g, seed=1).phases)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert phases == sorted(phases), phases
    assert phases[-1] > phases[0], phases
