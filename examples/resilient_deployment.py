#!/usr/bin/env python3
"""Running AMPC on an unreliable cluster: fault tolerance + latency hiding.

The paper's §2.1 argues the AMPC model is practical because (a) immutable
round stores make crash recovery trivial and (b) virtual-machine
slackness hides RDMA latency. This example demonstrates both on a real
workload: list-rank a million-link chain's 16k-element miniature on a
simulated cluster where 25% of machine executions crash mid-round, then
lose whole DDS *serving* machines — reads fail over to backup replicas,
and outages deeper than the replication factor roll the round back to
its checkpoint — and finally project the wall-clock of the run under the
paper's RDMA latency figures.

The recovery story is printed with the ledger renderers of
:mod:`repro.analysis` (``render_timeline`` / ``render_recovery_table``);
for the structured per-round/per-machine view of the same numbers —
aborted attempts, checkpoint/restore markers, recovery charges as trace
events — run the equivalent ``python -m repro trace`` with a chaos-armed
runtime or see ``docs/observability.md``.

Run:  python examples/resilient_deployment.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.list_ranking import list_ranking, sequential_list_ranks
from repro.analysis import render_recovery_table, render_table, render_timeline
from repro.core import (
    AMPCConfig,
    AMPCRuntime,
    ChaosRuntime,
    FaultPlan,
    SlacknessModel,
    estimate_run,
)
from repro.graph import generators


def main() -> None:
    n = 16_384
    succ = generators.linked_list(n, rng=11)
    config = AMPCConfig.for_input(n, seed=4)

    # Healthy cluster.
    healthy_rt = AMPCRuntime(config)
    healthy = list_ranking(succ, runtime=healthy_rt)

    # Unreliable cluster: every machine execution crashes with p = 0.25
    # at a random point; the framework restarts it against the immutable
    # round store (paper §2.1 "Fault tolerance").
    faulty_rt = ChaosRuntime(config, plan=FaultPlan.machine_crashes(
        0.25, seed=config.seed, max_retries=16))
    faulty = list_ranking(succ, runtime=faulty_rt)

    assert np.array_equal(healthy.ranks, faulty.ranks)
    assert np.array_equal(healthy.ranks, sequential_list_ranks(succ))
    print(f"list ranking n={n}: healthy and crashy runs produced "
          f"identical (correct) ranks")
    print(f"  crashes injected:    {faulty_rt.crashes_injected}")
    wasted = faulty_rt.report.wasted_reads
    print(f"  wasted retry reads:  {wasted} "
          f"({wasted / healthy_rt.report.total_reads:.1%} "
          f"of useful reads)")
    print(f"  rounds (unchanged):  {faulty.report.n_rounds}")

    # Now the failures a real RDMA cluster actually has: DDS *serving*
    # machines go away mid-round and some reads straggle. With each pair
    # replicated on 2 servers, reads fail over to the backup; when an
    # outage is deeper than the replication factor, the runtime rolls the
    # round back to its checkpoint, the failed servers are replaced, and
    # the round replays — still bit-identical output.
    plan = (FaultPlan.machine_crashes(0.15)
            | FaultPlan.server_outages(0.10)
            | FaultPlan.read_timeouts(0.02)).with_seed(9)
    chaos_rt = ChaosRuntime(config.with_replication(2), plan=plan)
    chaotic = list_ranking(succ, runtime=chaos_rt)

    assert np.array_equal(healthy.ranks, chaotic.ranks)
    summary = chaos_rt.report.recovery_summary()
    print(f"\nserver outages + failover (replication 2): identical ranks "
          f"again")
    print(f"  server outages:      {summary['server_outages']}")
    print(f"  failover reads:      {summary['failover_reads']}")
    print(f"  checkpoint restores: {summary['checkpoint_restores']}")
    print(f"  recovery overhead:   {summary['overhead_reads_pct']}% of "
          f"useful reads")
    print()
    print(render_recovery_table(chaos_rt.report))

    # Latency projection (§2.1 "Sequential queries"): what would this run
    # cost on a real RDMA fabric, with and without slackness?
    print("\nprojected critical-path wall-clock (2µs remote reads, "
          "0.1µs compute):")
    rows = []
    for v in (1, 2, 8, 32, 128):
        est = estimate_run(healthy.report, SlacknessModel(v))
        rows.append([v, f"{est.total_us_with_slack:,.0f} µs",
                     f"{est.speedup:.1f}x"])
    print(render_table(
        ["virtual machines/physical", "critical path", "speedup"], rows
    ))

    print("\nwhere the communication goes (healthy run):")
    print(render_timeline(healthy.report, width=40))


if __name__ == "__main__":
    main()
