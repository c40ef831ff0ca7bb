"""Extension experiments beyond bench_matching: coloring, affinity
clustering, fault-tolerance overhead, and latency-hiding projections.

These cover the §10 future-work implementations and the §2.1 systems
arguments (fault tolerance, parallel slackness) quantitatively.
"""

import numpy as np
import pytest

from repro.core import (
    AMPCConfig,
    AMPCRuntime,
    ChaosRuntime,
    FaultPlan,
    SlacknessModel,
    estimate_run,
)
from repro.algorithms.affinity import affinity_clustering
from repro.algorithms.coloring import (
    greedy_coloring,
    greedy_edge_coloring,
    sequential_greedy_coloring,
)
from repro.algorithms.shrink import shrink
from repro.graph import generators
from repro.graph.io import orient_cycles

NS = [512, 2048, 8192]

_color_iters: dict[int, int] = {}


@pytest.mark.parametrize("n", NS)
def test_vertex_coloring(benchmark, record, n):
    g = generators.erdos_renyi_gnm(n, 3 * n, rng=n)
    result = benchmark.pedantic(
        lambda: greedy_coloring(g, seed=1), rounds=1, iterations=1
    )
    assert np.array_equal(result.colors,
                          sequential_greedy_coloring(g, result.pi))
    _color_iters[n] = result.iterations
    record(
        "extension: greedy vertex coloring (AMPC)",
        ["n", "m", "colors", "Δ+1", "iterations", "rounds"],
        [n, g.m, result.n_colors, int(g.degrees.max()) + 1,
         result.iterations, result.report.n_rounds],
        rounds=result.report.n_rounds,
    )


def test_edge_coloring(benchmark, record):
    g = generators.erdos_renyi_gnm(1024, 3072, rng=5)
    result = benchmark.pedantic(
        lambda: greedy_edge_coloring(g, seed=1), rounds=1, iterations=1
    )
    record(
        "extension: greedy edge coloring (AMPC)",
        ["n", "m", "colors", "2Δ-1", "iterations", "rounds"],
        [g.n, g.m, result.n_colors, 2 * int(g.degrees.max()) - 1,
         result.iterations, result.report.n_rounds],
        rounds=result.report.n_rounds,
    )
    assert result.n_colors <= 2 * int(g.degrees.max()) - 1


@pytest.mark.parametrize("n", [512, 4096])
def test_affinity_clustering(benchmark, record, n):
    g = generators.erdos_renyi_gnm(n, 4 * n, rng=n)
    wg = generators.with_random_weights(g, rng=n)
    result = benchmark.pedantic(
        lambda: affinity_clustering(wg, seed=1), rounds=1, iterations=1
    )
    cluster_counts = [int(np.unique(lv).size) for lv in result.levels]
    record(
        "extension: affinity clustering (AMPC)",
        ["n", "levels", "cluster trajectory", "rounds"],
        [n, result.n_levels,
         " -> ".join(str(c) for c in cluster_counts),
         result.report.n_rounds],
        rounds=result.report.n_rounds,
    )
    # Each level shrinks clusters at least geometrically.
    for a, b in zip(cluster_counts, cluster_counts[1:]):
        assert b < a


def test_fault_tolerance_overhead(benchmark, record):
    """§2.1 fault tolerance: identical output under 30% crash rate, with
    measured retry overhead."""
    g = generators.cycle(2048)
    succ, _ = orient_cycles(g)
    config = AMPCConfig.for_input(2048, seed=7)

    clean_rt = AMPCRuntime(config)
    clean = shrink(succ, clean_rt, delta=0.5, target_size=100)

    def faulty_run():
        rt = ChaosRuntime(config, plan=FaultPlan.machine_crashes(
            0.3, seed=config.seed, max_retries=16))
        out = shrink(succ, rt, delta=0.5, target_size=100)
        return out, rt

    (faulty, faulty_rt) = benchmark.pedantic(faulty_run, rounds=1, iterations=1)
    assert np.array_equal(clean.alive, faulty.alive)
    assert np.array_equal(clean.succ, faulty.succ)
    wasted = faulty_rt.report.wasted_reads
    overhead = wasted / max(clean_rt.report.total_reads, 1)
    record(
        "§2.1: fault tolerance (shrink, n=2048, 30% crash rate)",
        ["crashes injected", "retry reads", "useful reads", "overhead"],
        [faulty_rt.crashes_injected, wasted,
         clean_rt.report.total_reads, f"{overhead:.1%}"],
        crashes=faulty_rt.crashes_injected,
    )


def test_latency_hiding_projection(benchmark, record):
    """§2.1 parallel slackness: projected wall-clock of the 2-Cycle run
    with and without virtual-machine latency hiding."""
    from repro.algorithms.two_cycle import two_cycle

    g, _ = generators.two_cycle_instance(8192, True, rng=9)
    result = benchmark.pedantic(
        lambda: two_cycle(g, seed=1), rounds=1, iterations=1
    )
    rows = []
    for v in (1, 4, 16, 64):
        est = estimate_run(result.report, SlacknessModel(v))
        rows.append((v, est.total_us_with_slack, est.speedup))
    from conftest import record_row

    for v, us, speedup in rows:
        record_row(
            "§2.1: latency hiding (2-cycle n=8192, 2µs RDMA reads)",
            ["virtual machines / physical", "projected critical path (µs)",
             "speedup vs no slackness"],
            [v, f"{us:,.0f}", f"{speedup:.1f}x"],
        )
    assert rows[-1][2] > rows[0][2]
