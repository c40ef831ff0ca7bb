"""Recovery-cost analysis for chaos runs.

Answers the question the chaos layer exists to pose: *what did surviving
the faults cost?* Inputs are plain :class:`~repro.core.cost.RunReport`
ledgers — one from a run under a :class:`~repro.core.chaos.FaultPlan`,
optionally one fault-free baseline — so these helpers work on any
runtime's output, including reports deserialized from benchmark JSON.
"""

from __future__ import annotations

from repro.core.cost import RunReport

__all__ = ["render_recovery_table", "recovery_overhead"]

_COLUMNS = (
    ("crash", "crashes"),
    ("outage", "server_outages"),
    ("strag", "stragglers"),
    ("retry", "retry_reads"),
    ("failov", "failover_reads"),
    ("waste", "wasted_reads"),
    ("restore", "checkpoint_restores"),
    # Process-backend pool workers lost and replaced; the machines of
    # their shards are counted under "crash".
    ("respawn", "worker_respawns"),
)


def render_recovery_table(report: RunReport) -> str:
    """Per-round table of fault and recovery activity.

    Rounds with no recovery activity are elided (a clean run collapses
    to the header and an all-zero total line), so the table stays
    readable for long runs where faults hit only a few rounds.
    """
    tag_width = 18
    header = f"{'round':<{tag_width}}" + "".join(
        f"{label:>9}" for label, _ in _COLUMNS
    )
    lines = [header]
    for stats in report.rounds:
        values = [getattr(stats, attr) for _, attr in _COLUMNS]
        if not any(values):
            continue
        lines.append(
            f"{stats.tag[:tag_width]:<{tag_width}}"
            + "".join(f"{v:>9}" for v in values)
        )
    summary = report.recovery_summary()
    lines.append(
        f"{'total':<{tag_width}}"
        + "".join(f"{summary[attr]:>9}" for _, attr in _COLUMNS)
    )
    lines.append(
        f"recovery reads: {summary['recovery_reads']} "
        f"({summary['overhead_reads_pct']}% of total), "
        f"recovery time: {summary['recovery_wall_s']:.4f}s"
    )
    return "\n".join(lines)


def recovery_overhead(
    faulty: RunReport, baseline: RunReport | None = None
) -> dict:
    """Quantify what fault recovery cost a run.

    Args:
        faulty: ledger of the run under a fault plan.
        baseline: optional ledger of the same workload fault-free. When
            given, the overhead is also expressed against the baseline's
            communication volume (the honest denominator: the faulty
            run's own totals already exclude rolled-back ledger entries
            but include retry/failover reads).

    Returns a dict with the recovery summary plus ``faulty_reads``,
    ``baseline_reads`` / ``reads_vs_baseline_pct`` (when a baseline is
    given), and ``rounds`` for both ledgers.
    """
    summary = faulty.recovery_summary()
    out = dict(summary)
    out["faulty_reads"] = faulty.total_reads
    out["faulty_rounds"] = faulty.total_rounds
    if baseline is not None:
        base_reads = baseline.total_reads
        out["baseline_reads"] = base_reads
        out["baseline_rounds"] = baseline.total_rounds
        extra = faulty.total_reads + summary["recovery_reads"] - base_reads
        out["reads_vs_baseline_pct"] = (
            round(100.0 * extra / base_reads, 3) if base_reads else 0.0
        )
    return out
