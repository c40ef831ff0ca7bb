"""Cost accounting: per-round statistics and whole-run reports.

Round counts, query counts, per-machine maxima and DDS-server contention are
the quantities the paper's theorems bound; this module is the ledger the
benchmark harness reads them from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass
class RoundStats:
    """Measured costs of one AMPC round (or one charged MPC primitive).

    Attributes:
        index: 0-based round number within the run.
        tag: human-readable label ("shrink", "sort:weights", ...).
        kind: "adaptive" for simulated machine rounds, "primitive" for
            MPC-standard steps charged analytically, "mpc" for simulated
            message-passing rounds.
        rounds: round cost (1 for simulated rounds; primitives may charge
            more, e.g. the Lemma 6.2 subroutine charges O(log log n)).
        total_reads / total_writes: aggregate communication, the model's
            communication measure (paper §2: "the amount of communication
            ... is equal to the total number of queries and writes").
        max_machine_reads / max_machine_writes: worst single-machine load,
            compared against the O(S) budget.
        n_machines_active: machines that executed a program this round.
        read_budget / write_budget: the budgets in force.
        budget_violations: machines that exceeded a budget (non-strict mode).
        max_server_load: largest number of reads answered by one DDS server
            (Lemma 2.1's quantity).
        wall_time_s: host-side wall time (diagnostic only; not a model cost).
        crashes: machine crashes injected and recovered during the round,
            including every machine of a process-backend shard whose
            pool worker was lost.
        server_outages: DDS serving machines down during the round
            (summed over re-execution attempts).
        stragglers: machines hit by an injected straggler delay.
        retry_reads: reads re-issued after transient read timeouts.
        failover_reads: reads redirected to a backup replica because the
            primary server was down.
        wasted_reads: reads whose results were discarded — issued by a
            crashed machine attempt or by an aborted round execution.
        checkpoint_restores: whole-round aborts recovered by restoring the
            last checkpoint and replaying the round.
        recovery_wall_s: recovery time — simulated (retry backoff,
            straggler delays, round-replay penalties) plus, for each lost
            pool worker, the real time from its shard's dispatch to the
            end of the shard's re-run in the parent; like
            ``wall_time_s`` it is a diagnostic, not a model cost.
        worker_respawns: pool workers lost (dead, or silent past the
            deadline) and replaced.

    Every recovery field (``crashes`` .. ``worker_respawns``) is
    deliberately excluded from :meth:`RunReport.summary` and hence from
    all cross-backend digests: recovery is timing-dependent metadata,
    while results and model costs stay bit-identical.
    """

    index: int
    tag: str
    kind: str = "adaptive"
    rounds: int = 1
    total_reads: int = 0
    total_writes: int = 0
    max_machine_reads: int = 0
    max_machine_writes: int = 0
    n_machines_active: int = 0
    read_budget: int = 0
    write_budget: int = 0
    budget_violations: int = 0
    max_server_load: int = 0
    wall_time_s: float = 0.0
    crashes: int = 0
    server_outages: int = 0
    stragglers: int = 0
    retry_reads: int = 0
    failover_reads: int = 0
    wasted_reads: int = 0
    checkpoint_restores: int = 0
    recovery_wall_s: float = 0.0
    worker_respawns: int = 0

    @property
    def communication(self) -> int:
        """Total communication of the round (reads + writes)."""
        return self.total_reads + self.total_writes

    @property
    def read_budget_utilization(self) -> float:
        """max per-machine reads / budget; ≤ 1 means the O(S) bound held."""
        return self.max_machine_reads / self.read_budget if self.read_budget else 0.0

    @property
    def recovery_reads(self) -> int:
        """All reads attributable to fault recovery in this round."""
        return self.retry_reads + self.failover_reads + self.wasted_reads


@dataclass
class RunReport:
    """Aggregate ledger of one algorithm execution."""

    rounds: list[RoundStats] = field(default_factory=list)

    def add(self, stats: RoundStats) -> None:
        self.rounds.append(stats)

    @property
    def n_rounds(self) -> int:
        """Total round count, the paper's primary complexity measure."""
        return sum(r.rounds for r in self.rounds)

    @property
    def n_adaptive_rounds(self) -> int:
        """Rounds that actually used AMPC adaptivity."""
        return sum(r.rounds for r in self.rounds if r.kind == "adaptive")

    @property
    def total_communication(self) -> int:
        return sum(r.communication for r in self.rounds)

    @property
    def total_reads(self) -> int:
        return sum(r.total_reads for r in self.rounds)

    @property
    def total_writes(self) -> int:
        return sum(r.total_writes for r in self.rounds)

    @property
    def max_machine_reads(self) -> int:
        return max((r.max_machine_reads for r in self.rounds), default=0)

    @property
    def max_server_load(self) -> int:
        return max((r.max_server_load for r in self.rounds), default=0)

    @property
    def budget_violations(self) -> int:
        return sum(r.budget_violations for r in self.rounds)

    @property
    def wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.rounds)

    # -- recovery accounting (chaos / fault-injection runs) ---------------

    @property
    def crashes(self) -> int:
        return sum(r.crashes for r in self.rounds)

    @property
    def server_outages(self) -> int:
        return sum(r.server_outages for r in self.rounds)

    @property
    def stragglers(self) -> int:
        return sum(r.stragglers for r in self.rounds)

    @property
    def retry_reads(self) -> int:
        return sum(r.retry_reads for r in self.rounds)

    @property
    def failover_reads(self) -> int:
        return sum(r.failover_reads for r in self.rounds)

    @property
    def wasted_reads(self) -> int:
        return sum(r.wasted_reads for r in self.rounds)

    @property
    def checkpoint_restores(self) -> int:
        return sum(r.checkpoint_restores for r in self.rounds)

    @property
    def recovery_wall_s(self) -> float:
        return sum(r.recovery_wall_s for r in self.rounds)

    @property
    def task_retries(self) -> int:
        """Machine blocks re-executed: equal to :attr:`crashes`, since
        every crashed machine — simulated, or on a lost pool worker — is
        replaced by one re-run of its block."""
        return self.crashes

    @property
    def worker_respawns(self) -> int:
        return sum(r.worker_respawns for r in self.rounds)

    def recovery_summary(self) -> dict[str, float]:
        """Flat dict itemizing the fault-recovery overhead of the run.

        ``overhead_reads_pct`` is recovery reads relative to the useful
        (charged) communication — the headline number of the resilience
        benchmark: what fraction of work the faults cost.
        """
        recovery_reads = self.retry_reads + self.failover_reads + self.wasted_reads
        useful = self.total_reads or 1
        return {
            "crashes": self.crashes,
            "server_outages": self.server_outages,
            "stragglers": self.stragglers,
            "retry_reads": self.retry_reads,
            "failover_reads": self.failover_reads,
            "wasted_reads": self.wasted_reads,
            "checkpoint_restores": self.checkpoint_restores,
            "worker_respawns": self.worker_respawns,
            "recovery_reads": recovery_reads,
            "overhead_reads_pct": round(100.0 * recovery_reads / useful, 3),
            "recovery_wall_s": round(self.recovery_wall_s, 6),
        }

    def by_tag(self, tag: str) -> list[RoundStats]:
        """All round records whose tag starts with ``tag``."""
        return [r for r in self.rounds if r.tag.startswith(tag)]

    def summary(self) -> dict[str, float]:
        """Flat dict of headline metrics, convenient for benchmark output."""
        return {
            "rounds": self.n_rounds,
            "adaptive_rounds": self.n_adaptive_rounds,
            "communication": self.total_communication,
            "reads": self.total_reads,
            "writes": self.total_writes,
            "max_machine_reads": self.max_machine_reads,
            "max_server_load": self.max_server_load,
            "budget_violations": self.budget_violations,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_dict(self) -> dict:
        """JSON-ready representation: summary plus per-round records.

        Intended for archiving benchmark runs and diffing ledgers across
        code versions (see :func:`compare_reports`).
        """
        rounds = []
        for r in self.rounds:
            record = {
                "index": r.index,
                "tag": r.tag,
                "kind": r.kind,
                "rounds": r.rounds,
                "reads": r.total_reads,
                "writes": r.total_writes,
                "max_machine_reads": r.max_machine_reads,
                "max_machine_writes": r.max_machine_writes,
                "machines": r.n_machines_active,
                "budget_violations": r.budget_violations,
                "max_server_load": r.max_server_load,
            }
            if r.recovery_reads or r.crashes or r.checkpoint_restores \
                    or r.server_outages or r.stragglers or r.worker_respawns:
                record["recovery"] = {
                    "crashes": r.crashes,
                    "server_outages": r.server_outages,
                    "stragglers": r.stragglers,
                    "retry_reads": r.retry_reads,
                    "failover_reads": r.failover_reads,
                    "wasted_reads": r.wasted_reads,
                    "checkpoint_restores": r.checkpoint_restores,
                    "worker_respawns": r.worker_respawns,
                    "recovery_wall_s": round(r.recovery_wall_s, 6),
                }
            rounds.append(record)
        return {
            "summary": self.summary(),
            "recovery": self.recovery_summary(),
            "rounds": rounds,
        }

    def to_json(self, **kwargs) -> str:
        """Serialize :meth:`to_dict` (kwargs forwarded to json.dumps)."""
        import json

        return json.dumps(self.to_dict(), **kwargs)

    def format_table(self) -> str:
        """Human-readable per-round table (used by examples and debugging)."""
        header = (
            f"{'#':>3} {'tag':<28} {'kind':<9} {'rnds':>4} {'reads':>10} "
            f"{'writes':>10} {'maxR/mach':>9} {'maxLoad':>8} {'time_s':>8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rounds:
            lines.append(
                f"{r.index:>3} {r.tag[:28]:<28} {r.kind:<9} {r.rounds:>4} "
                f"{r.total_reads:>10} {r.total_writes:>10} "
                f"{r.max_machine_reads:>9} {r.max_server_load:>8} "
                f"{r.wall_time_s:>8.4f}"
            )
        s = self.summary()
        lines.append("-" * len(header))
        lines.append(
            f"total rounds={s['rounds']} communication={s['communication']} "
            f"max_machine_reads={s['max_machine_reads']} "
            f"violations={s['budget_violations']}"
        )
        rec = self.recovery_summary()
        if rec["recovery_reads"] or rec["crashes"] or rec["stragglers"] \
                or rec["checkpoint_restores"]:
            lines.append(
                f"recovery: crashes={rec['crashes']} "
                f"outages={rec['server_outages']} "
                f"retry={rec['retry_reads']} "
                f"failover={rec['failover_reads']} "
                f"wasted={rec['wasted_reads']} "
                f"restores={rec['checkpoint_restores']} "
                f"overhead={rec['overhead_reads_pct']:.1f}%"
            )
        if rec["worker_respawns"]:
            lines.append(
                f"pool recovery: respawns={rec['worker_respawns']} "
                f"recovery_wall_s={rec['recovery_wall_s']:.4f}"
            )
        return "\n".join(lines)


class Timer:
    """Tiny context-manager stopwatch for wall-time diagnostics."""

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.elapsed = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.elapsed


def merge_reports(reports: Iterable[RunReport]) -> RunReport:
    """Concatenate several run reports (e.g. sub-algorithm phases)."""
    merged = RunReport()
    index = 0
    for report in reports:
        for stats in report.rounds:
            clone = RoundStats(**{**stats.__dict__, "index": index})
            merged.add(clone)
            index += 1
    return merged


def compare_reports(
    before: RunReport, after: RunReport
) -> dict[str, tuple[float, float]]:
    """Headline-metric diff between two ledgers: {metric: (before, after)}.

    Useful for regression-checking an algorithm change: did rounds or
    communication move?
    """
    a, b = before.summary(), after.summary()
    return {key: (a[key], b[key]) for key in a if a[key] != b[key]}


def load_balance_gini(loads: np.ndarray) -> float:
    """Gini coefficient of a load vector (0 = perfectly balanced).

    Used by the contention analysis to summarize how even the DDS-server
    load distribution is, complementing the max-load figure of Lemma 2.1.
    """
    loads = np.sort(np.asarray(loads, dtype=np.float64))
    n = loads.size
    if n == 0 or loads.sum() == 0:
        return 0.0
    cum = np.cumsum(loads)
    # Standard closed form: G = (2 * sum_i i*x_i) / (n * sum x) - (n+1)/n
    indices = np.arange(1, n + 1)
    return float((2.0 * (indices * loads).sum()) / (n * loads.sum()) - (n + 1.0) / n)
