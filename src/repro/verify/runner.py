"""The ``repro verify`` conformance sweep.

Sweeps every registered algorithm (:mod:`repro.verify.oracles`) over its
compatible generator families and a seed matrix. Each cell

1. generates the workload deterministically from (family, seed, size);
2. runs the algorithm inside an armed :class:`InvariantSuite`, so every
   model-contract violation (budgets, sealing, balance, adaptivity) is
   caught live;
3. checks the differential oracle against the sequential ground truth,
   and — where registered — the MPC baseline (cross-model equivalence);
4. re-runs the cell and compares output digests plus cost-ledger
   summaries (wall time excluded) for seed-determinism;
5. optionally replays the cell with every runtime the solve builds
   armed with the default fault plan (:func:`repro.core.runtime.use_runtime`)
   and demands the bit-identical answer.

With real-process faults armed, a cell counts the rounds that shipped
machines to pool workers (:attr:`CellRecord.shipped_rounds`); a cell
that shipped none — a fused-only solve — is reported as having no
sharded round, not as a recovery cell: no fault could reach it. An
armed run whose ledger records no crash, failover or retry read,
checkpoint restore or worker respawn checked no recovery either: its
cell is reported as having no fault fired
(:attr:`CellRecord.no_fault_fired`).

The result is a :class:`ConformanceReport` that serializes to JSON for CI.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.chaos import ChaosRuntime, FaultPlan
from repro.core.hooks import RuntimeObserver
from repro.core.runtime import (
    AMPCRuntime,
    install_observer,
    uninstall_observer,
    use_runtime,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.parallel import BACKENDS

from .invariants import InvariantSuite
from .oracles import CASES, AlgorithmCase, Workload


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A named workload family.

    Attributes:
        name: registry key, referenced by :attr:`AlgorithmCase.families`.
        kind: payload kind produced ("graph", "succ", or "two_cycle").
        make: ``make(n, seed)`` → ``(payload, meta)``; must be a pure
            function of its arguments (the determinism matrix re-invokes
            it and expects the identical instance).
    """

    name: str
    kind: str
    make: Callable[[int, int], tuple[Any, dict]]


FAMILIES: dict[str, FamilySpec] = {}


def _family(name: str, kind: str = "graph"):
    def deco(fn: Callable[[int, int], tuple[Any, dict]]) -> FamilySpec:
        spec = FamilySpec(name, kind, fn)
        FAMILIES[name] = spec
        return spec
    return deco


def _shuffled(graph: Graph, seed: int) -> Graph:
    # Deterministic families (grid, path, star, ...) are varied across
    # seeds by relabeling; the structure stays, the key placement doesn't.
    g, _ = generators.relabel(graph, seed)
    return g


@_family("er")
def _er(n: int, seed: int):
    return generators.erdos_renyi_gnm(n, (3 * n) // 2, seed), {}


@_family("power-law")
def _power_law(n: int, seed: int):
    return generators.barabasi_albert(n, 3, seed), {}


@_family("grid")
def _grid(n: int, seed: int):
    side = max(2, int(np.sqrt(n)))
    return _shuffled(generators.grid(side, side), seed), {}


@_family("tree")
def _tree(n: int, seed: int):
    return generators.random_tree(n, seed), {}


@_family("forest")
def _forest(n: int, seed: int):
    return generators.random_forest(n, max(2, n // 12), seed), {}


@_family("path")
def _path(n: int, seed: int):
    return _shuffled(generators.path(n), seed), {}


@_family("star")
def _star(n: int, seed: int):
    return _shuffled(generators.star(n), seed), {}


@_family("cycles")
def _cycles(n: int, seed: int):
    rng = np.random.default_rng(seed)
    lengths: list[int] = []
    left = n
    while left >= 3:
        k = int(rng.integers(3, max(4, left // 2 + 1)))
        k = min(k, left)
        if left - k in (1, 2):  # leftover too small for its own cycle
            k = left
        lengths.append(k)
        left -= k
    return _shuffled(generators.union_of_cycles(lengths), seed), {}


@_family("one-cycle")
def _one_cycle(n: int, seed: int):
    return _shuffled(generators.cycle(n), seed), {}


@_family("many-cycles")
def _many_cycles(n: int, seed: int):
    count = max(2, n // 6)
    base = [3 + (i % 4) for i in range(count)]
    return _shuffled(generators.union_of_cycles(base), seed), {}


def _even(n: int) -> int:
    return max(6, n - (n % 2))


@_family("one-cycle-inst", kind="two_cycle")
def _one_cycle_inst(n: int, seed: int):
    return generators.two_cycle_instance(_even(n), False, seed), {"two": False}


@_family("two-cycle-inst", kind="two_cycle")
def _two_cycle_inst(n: int, seed: int):
    return generators.two_cycle_instance(_even(n), True, seed), {"two": True}


@_family("random-cycle-inst", kind="two_cycle")
def _random_cycle_inst(n: int, seed: int):
    two = bool(np.random.default_rng(seed).integers(0, 2))
    return generators.two_cycle_instance(_even(n), two, seed), {"two": two}


@_family("list-uniform", kind="succ")
def _list_uniform(n: int, seed: int):
    return generators.linked_list(n, seed), {}


@_family("list-identity", kind="succ")
def _list_identity(n: int, seed: int):
    succ = np.full(n, -1, dtype=np.int64)
    succ[:-1] = np.arange(1, n, dtype=np.int64)
    return succ, {}


@_family("list-reversed", kind="succ")
def _list_reversed(n: int, seed: int):
    succ = np.full(n, -1, dtype=np.int64)
    succ[1:] = np.arange(0, n - 1, dtype=np.int64)
    return succ, {}


def family_names() -> list[str]:
    return list(FAMILIES)


def make_workload(case: AlgorithmCase, family: str, n: int, seed: int) -> Workload:
    """Build one input instance for (algorithm, family, seed).

    Weighted-graph cases reuse the plain graph families and attach
    distinct random weights (deterministic in the seed).
    """
    spec = FAMILIES[family]
    payload, meta = spec.make(n, seed)
    kind = spec.kind
    if case.kind == "weighted":
        if kind != "graph":
            raise ValueError(
                f"family {family!r} ({kind}) cannot feed weighted case "
                f"{case.name!r}"
            )
        payload = generators.with_random_weights(payload, seed + 7919)
        kind = "weighted"
    if kind != case.kind:
        raise ValueError(
            f"family {family!r} produces {kind!r} but case {case.name!r} "
            f"wants {case.kind!r}"
        )
    return Workload(family=family, kind=kind, payload=payload, seed=seed,
                    meta=meta)


# ---------------------------------------------------------------------------
# sweep records
# ---------------------------------------------------------------------------


def _summary_without_walltime(report) -> dict | None:
    if report is None:
        return None
    summary = dict(report.summary())
    summary.pop("wall_time_s", None)
    return summary


@dataclass
class CellRecord:
    """Outcome of one (algorithm, family, seed) conformance cell."""

    algorithm: str
    family: str
    seed: int
    n: int
    m: int
    status: str = "ok"  # ok | fail | error
    oracle_discrepancies: list[str] = field(default_factory=list)
    cross_model_discrepancies: list[str] = field(default_factory=list)
    invariant_violations: list[dict] = field(default_factory=list)
    deterministic: bool | None = None
    chaos_identical: bool | None = None
    backend_identical: bool | None = None
    rounds: int | None = None
    error: str | None = None
    duration_s: float = 0.0
    backend: str = "serial"
    process_faults: bool = False
    worker_respawns: int = 0
    # Rounds of the primary run whose machines ran in pool workers: the
    # only rounds a process fault can reach.
    shipped_rounds: int = 0
    # Faults that fired in the armed runs a fault could reach (the chaos
    # run; the primary run when it shipped a round under process faults);
    # None when no such run was made.
    faults_fired: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def no_sharded_round(self) -> bool:
        """Process faults were armed but no round shipped, so none of
        them could fire: the cell checked no recovery."""
        return self.process_faults and self.shipped_rounds == 0

    @property
    def no_fault_fired(self) -> bool:
        """An armed run could have been hit but was not: the cell checked
        no recovery."""
        return self.faults_fired == 0

    def failures(self) -> list[str]:
        """Human-readable reasons this cell is not conformant."""
        reasons = list(self.oracle_discrepancies)
        reasons += [f"[cross-model] {d}" for d in self.cross_model_discrepancies]
        reasons += [f"[invariant:{v['invariant']}] {v['message']}"
                    for v in self.invariant_violations]
        if self.deterministic is False:
            reasons.append("outputs differ between identical runs")
        if self.chaos_identical is False:
            reasons.append("chaos run is not bit-identical to fault-free run")
        if self.backend_identical is False:
            reasons.append(
                "process backend is not bit-identical to serial "
                "(results or per-round ledgers differ)"
            )
        if self.error:
            reasons.append(f"exception: {self.error.splitlines()[-1]}")
        return reasons

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "status": self.status,
            "oracle_discrepancies": self.oracle_discrepancies,
            "cross_model_discrepancies": self.cross_model_discrepancies,
            "invariant_violations": self.invariant_violations,
            "deterministic": self.deterministic,
            "chaos_identical": self.chaos_identical,
            "backend_identical": self.backend_identical,
            "rounds": self.rounds,
            "error": self.error,
            "duration_s": round(self.duration_s, 4),
            "backend": self.backend,
            "process_faults": self.process_faults,
            "shipped_rounds": self.shipped_rounds,
            "worker_respawns": self.worker_respawns,
            "faults_fired": self.faults_fired,
        }


@dataclass
class ConformanceReport:
    """Aggregated result of a conformance sweep (JSON-serializable)."""

    records: list[CellRecord]
    settings: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def n_cells(self) -> int:
        return len(self.records)

    def summary(self) -> dict:
        by_algorithm: dict[str, dict[str, int]] = {}
        for r in self.records:
            slot = by_algorithm.setdefault(
                r.algorithm, {"cells": 0, "failed": 0}
            )
            slot["cells"] += 1
            if not r.ok:
                slot["failed"] += 1
        return {
            "cells": self.n_cells,
            "failed": sum(1 for r in self.records if not r.ok),
            "invariant_violations": sum(
                len(r.invariant_violations) for r in self.records
            ),
            "oracle_disagreements": sum(
                len(r.oracle_discrepancies)
                + len(r.cross_model_discrepancies)
                for r in self.records
            ),
            "nondeterministic": sum(
                1 for r in self.records if r.deterministic is False
            ),
            "no_sharded_round": sum(
                1 for r in self.records if r.no_sharded_round
            ),
            "no_fault_fired": sum(1 for r in self.records if r.no_fault_fired),
            "unfaulted_cases": self.unfaulted_cases(),
            "by_algorithm": by_algorithm,
            "ok": self.ok,
        }

    def unfaulted_cases(self) -> list[str]:
        """Cases with armed runs a fault could reach, in none of which a
        fault fired: their recovery went unchecked."""
        fired: dict[str, int] = {}
        for r in self.records:
            if r.faults_fired is not None:
                fired[r.algorithm] = fired.get(r.algorithm, 0) + r.faults_fired
        return [name for name, count in fired.items() if count == 0]

    def to_dict(self) -> dict:
        return {
            "settings": self.settings,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_failures(self) -> str:
        lines = []
        for r in self.records:
            if r.ok:
                continue
            head = f"{r.algorithm} / {r.family} / seed {r.seed}"
            for reason in r.failures():
                lines.append(f"  {head}: {reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

SMOKE_SIZE = 48
FULL_SIZE = 140
DEFAULT_CHAOS_PLAN = dict(crash=0.15, outage=0.08, fault_seed=1,
                          replication=2)


def default_fault_plan(seed: int = 1) -> FaultPlan:
    """The sweep's standard fault plan (crashes + outages, mild rates)."""
    return FaultPlan.machine_crashes(
        DEFAULT_CHAOS_PLAN["crash"], seed=seed
    ).compose(FaultPlan.server_outages(DEFAULT_CHAOS_PLAN["outage"], seed=seed))


def default_process_fault_plan(seed: int = 1) -> FaultPlan:
    """The sweep's standard real-process fault plan.

    10% of shard dispatches are SIGKILLed mid-task, 10% have their reply
    dropped (the worker hangs from the pool's point of view), and 10%
    are delayed — each drawn independently. A lost worker's shard is
    re-run in the parent after at most the armed-plan 1 s deadline.
    """
    return (
        FaultPlan.kills(0.1, seed=seed)
        | FaultPlan.hangs(0.1, seed=seed)
        | FaultPlan.delays(0.1, delay_s=0.02, seed=seed)
    )


def _fired(report) -> int:
    """Faults that fired in a run, read from its recovery counters:
    crashes, failover and retry reads, checkpoint restores and worker
    respawns. Outages and stragglers do not count: an outage no read
    touched and a straggler's delay leave nothing to recover."""
    return (report.crashes + report.failover_reads + report.retry_reads
            + report.checkpoint_restores + report.worker_respawns)


class _ShippedRounds(RuntimeObserver):
    """Counts rounds whose machines ran in pool workers — their ledger
    contexts carry the worker id the parent's journal replay sets."""

    def __init__(self) -> None:
        self.count = 0

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        if any(getattr(ctx, "worker_id", None) is not None for ctx in contexts):
            self.count += 1


def _run_cell(
    case: AlgorithmCase,
    family: str,
    n: int,
    seed: int,
    *,
    balance_slack: float,
    chaos: bool,
    backend: str = "serial",
    workers: int | None = None,
    process_faults: FaultPlan | None = None,
) -> CellRecord:
    workload = make_workload(case, family, n, seed)
    wn, wm = workload.size
    record = CellRecord(algorithm=case.name, family=family, seed=seed,
                        n=wn, m=wm, backend=backend,
                        process_faults=process_faults is not None)
    # Real-process faults arm the runtimes of the primary run and the
    # determinism rerun; the serial twin below runs fault-free, so the
    # cross-backend oracle compares a fault-injected process run against
    # a fault-free serial run — the strongest form of the bit-identity
    # contract.
    deployment = (
        partial(AMPCRuntime, backend=backend, n_workers=workers)
        if process_faults is None else
        lambda c: ChaosRuntime(c, plan=process_faults, backend=backend,
                               n_workers=workers)
    )
    start = time.perf_counter()
    shipped = _ShippedRounds()
    try:
        install_observer(shipped)
        try:
            with use_runtime(deployment):
                with InvariantSuite(balance_slack=balance_slack) as suite:
                    result = case.run(workload, seed)
        finally:
            uninstall_observer(shipped)
        record.shipped_rounds = shipped.count
        record.invariant_violations = [
            {"invariant": v.invariant, "message": v.message, "tag": v.tag}
            for v in suite.violations
        ]
        report = case.report_of(result)
        record.rounds = report.n_rounds if report is not None else None
        record.worker_respawns = (
            report.worker_respawns if report is not None else 0
        )
        if process_faults is not None and shipped.count:
            record.faults_fired = _fired(report)
        record.oracle_discrepancies = case.oracle(workload, result, seed)
        if case.cross_model is not None:
            record.cross_model_discrepancies = case.cross_model(
                workload, result, seed
            )

        # Seed-determinism: the same cell twice must agree bit for bit,
        # including the cost ledger (wall time excluded).
        rerun_workload = make_workload(case, family, n, seed)
        with use_runtime(deployment):
            rerun = case.run(rerun_workload, seed)
        record.deterministic = (
            case.digest(result) == case.digest(rerun)
            and _summary_without_walltime(report)
            == _summary_without_walltime(case.report_of(rerun))
        )

        # Cross-backend oracle: a process-backend cell must be
        # bit-identical to a serial twin — same results AND the same
        # cost ledger (wall time excluded).
        if backend != "serial":
            twin_workload = make_workload(case, family, n, seed)
            with use_runtime(AMPCRuntime):
                twin = case.run(twin_workload, seed)
            record.backend_identical = (
                case.digest(result) == case.digest(twin)
                and _summary_without_walltime(report)
                == _summary_without_walltime(case.report_of(twin))
            )

        if chaos and not case.chaos_exempt:
            plan = default_fault_plan(DEFAULT_CHAOS_PLAN["fault_seed"] + seed)
            k = DEFAULT_CHAOS_PLAN["replication"]
            with use_runtime(
                lambda c: ChaosRuntime(c.with_replication(k), plan=plan)
            ):
                chaos_result = case.run(workload, seed)
            record.chaos_identical = (
                case.digest(chaos_result) == case.digest(result)
            )
            fired = _fired(case.report_of(chaos_result))
            record.faults_fired = (record.faults_fired or 0) + fired
    except Exception:
        record.error = traceback.format_exc()
        record.status = "error"
        record.duration_s = time.perf_counter() - start
        return record
    record.duration_s = time.perf_counter() - start
    if record.failures():
        record.status = "fail"
    return record


# ---------------------------------------------------------------------------
# the extra cells of ``repro verify --smoke``
# ---------------------------------------------------------------------------
#
# A smoke cell reports one outcome per line it prints: ``ok``, ``summary``
# (the line's text) and ``problems`` (detail lines printed under it).


def _outcome(label: str, problems: list[str], text: str, **extra: Any) -> dict:
    return {
        "ok": not problems,
        "summary": f"{label}: {text}",
        "problems": [f"{label} problem: {p}" for p in problems],
        **extra,
    }


def perf_smoke_cell() -> dict:
    """The perf cell of ``repro verify --smoke``: two in-process checks
    of the pair verdict (:func:`repro.perf.verdict`) on real noise.

    * **A/A:** every quick ``smoke`` cell, timed against itself over
      :data:`~repro.perf.AA_PAIRS` alternating pairs, must read
      ``no-change``.
    * **Positive control:** the ``dds_lookup`` cell against itself with
      a busy-wait as long as its A/A median added to one side must read
      ``worse``. Its ~10 ms samples are steady; a 2 ms cell's busy-wait
      is within the scheduler's noise.

    Returns a smoke-cell outcome (see :data:`SMOKE_CELLS`) plus ``cells``.
    """
    import statistics

    from repro.perf import (
        AA_PAIRS,
        NO_CHANGE,
        WORSE,
        alternate,
        suite_specs,
        timed,
        verdict,
    )

    def pairs_ms(parent, change) -> str:
        """Each pair's samples in run order, for a failure message."""
        return " ".join(
            f"{p * 1e3:.1f}/{c * 1e3:.1f}" if i % 2 == 0
            else f"{c * 1e3:.1f}/{p * 1e3:.1f}"
            for i, (p, c) in enumerate(zip(parent, change)))

    problems: list[str] = []
    specs = suite_specs("smoke", quick=True)
    quiet = 0
    for spec in specs:
        run = spec.setup()
        run()  # warm-up
        sample = partial(timed, run)
        parent, change = zip(*alternate(sample, sample, AA_PAIRS))
        got = verdict(list(parent), list(change), "lower")
        quiet += got == NO_CHANGE
        if got != NO_CHANGE:
            problems.append(
                f"A/A cell {spec.cell} read {got!r} against itself over "
                f"{AA_PAIRS} pairs; ms per pair in run order: "
                f"{pairs_ms(parent, change)}")
        if spec.bench == "dds_lookup":
            control_run = run
            median = statistics.median(parent + change)

    def slowed() -> None:
        control_run()
        end = time.perf_counter() + median
        while time.perf_counter() < end:
            pass

    parent, change = zip(*alternate(partial(timed, control_run),
                                    partial(timed, slowed), AA_PAIRS))
    control = verdict(list(parent), list(change), "lower")
    if control != WORSE:
        problems.append(f"control: dds_lookup with a busy-wait of its "
                        f"median read {control!r}, not {WORSE!r}; ms per "
                        f"pair in run order: {pairs_ms(parent, change)}")
    return _outcome(
        "perf smoke", problems,
        f"A/A {quiet}/{len(specs)} cells no-change over {AA_PAIRS} pairs, "
        f"control (dds_lookup + a busy-wait of its median) {control}",
        cells=len(specs), control=control,
    )


def serve_smoke_cell() -> dict:
    """The serve cell of ``repro verify --smoke``.

    Builds a tiny resident engine (:class:`repro.serve.ServingEngine`,
    n = ``SMOKE_SIZE``), replays a 50-request mixed workload through the
    admission-controlled scheduler, then checks

    * **answers** against the sequential oracles: greedy LFMIS over the
      engine's π, BFS component labels, and the rooted forest's subtree
      sizes;
    * **ledgers**: per-request read/write deltas must reconcile exactly
      with the tick rows and the observe counters
      (:meth:`~repro.serve.ServingEngine.reconcile`);
    * **admission accounting**: a deliberately tiny queue must shed the
      overflow and every submitted request must be accounted accepted
      or rejected.

    Returns a smoke-cell outcome plus ``requests`` and ``rejected``.
    """
    from repro.algorithms.mis import sequential_lfmis
    from repro.graph import generators, validation
    from repro.serve import (
        AdmissionControl, RequestScheduler, ServeRequest, ServingEngine,
        run_loadgen, workload_config,
    )

    problems: list[str] = []
    graph = generators.erdos_renyi_gnm(SMOKE_SIZE, 2 * SMOKE_SIZE, rng=0)
    engine = ServingEngine(graph, seed=0)
    cfg = workload_config("poisson-zipf", n_requests=50, seed=3)
    outcome = run_loadgen(engine, cfg)

    in_mis = sequential_lfmis(graph, engine.pi)
    labels = validation.components_reference(graph)
    if not validation.same_partition(engine.labels, labels):
        problems.append("engine component labels disagree with the BFS "
                        "reference partition")
    for resp in outcome.responses:
        req, got = resp.request, resp.value
        if req.kind == "mis_member":
            want = bool(in_mis[req.key])
        elif req.kind == "component_of":
            want = int(engine.labels[req.key])
        elif req.kind == "same_component":
            want = bool(labels[req.key] == labels[req.key2])
        else:
            want = int(engine.subtree_size[req.key])
        if got != want:
            problems.append(
                f"{req.kind}({req.key}) answered {got!r}, oracle says "
                f"{want!r}"
            )
    if len(outcome.responses) != cfg.n_requests:
        problems.append(
            f"served {len(outcome.responses)} of {cfg.n_requests} requests"
        )
    problems += outcome.reconcile_problems

    # Admission accounting: a queue of 4 against a burst of 20 must shed
    # exactly the overflow, and shed + served must cover every submit.
    tiny = RequestScheduler(engine, admission=AdmissionControl(
        max_queue=4, batch_window=4))
    submitted = 20
    admitted = sum(
        tiny.submit(ServeRequest("component_of", v % graph.n), now=0.0)
        for v in range(submitted)
    )
    tiny.drain(now=0.0)
    counts = tiny.counts()
    if counts["accepted"] != admitted or counts["accepted"] != 4:
        problems.append(f"admission accepted {counts['accepted']}, "
                        f"expected 4")
    if counts["rejected"] != submitted - 4:
        problems.append(f"admission rejected {counts['rejected']}, "
                        f"expected {submitted - 4}")
    if counts["completed"] != counts["accepted"] or counts["pending"]:
        problems.append(f"admission accounting leak: {counts}")
    problems += engine.reconcile()

    return _outcome(
        "serve smoke", problems,
        f"resident engine, {len(outcome.responses)} requests "
        f"ledger-reconciled, {counts['rejected']} shed",
        requests=len(outcome.responses), rejected=counts["rejected"],
    )


# Hostile edge-list bytes: each must read the same through the byte-level
# fast path (or its refusal) as through the per-line parser.
PARSER_CORPUS: tuple[bytes, ...] = (
    b"0\r1\n",                       # lone CR: a line break, not a separator
    b"0 1\r2 3\n",
    b"# c\r0 1\n",                   # lone CR inside a header comment
    b"# \xff\n0 1\n",                # header comment that is not UTF-8
    b"0 1\r\n\r\n2\t3\r\n",           # CRLF and blank lines
    b"\n\n0 1\n  \n\t\n2    3",       # leading blanks, no trailing newline
    b"# nodes: 9\n",                  # header only
    b"007 0000000000000012\n",        # leading zeros
    b"1 22\n4444 55555\n7777777 88888888\n999999999 1\n",
    b"123456789012345 1234567890123456\n",   # 15 and 16 digits
    b"12345678901234567 1\n",         # 17 digits: per-line parser
    b"1234567890123456789 1\n",       # 19 digits, still int64
    b"99999999999999999999 1\n",      # beyond int64
    b"0 1 2\n", b"0\n1\n", b"0 -1\n", b"+0 1\n", b"0 1.5\n", b"0\x001\n",
    b"0 1" + b" " * 100 + b"\n2 3\n",  # a line longer than the block
    b"# nodes: 2\n0 5\n",             # id above the declared count
)


def edge_list_parity(path, block_bytes: int) -> list[str]:
    """Where the byte-level edge-list reader disagrees with the per-line
    parser on the file ``path``.

    :func:`repro.graph.files.read_edge_list`'s ``(edges, n)`` — read at
    the default block size and at ``block_bytes`` — must equal the
    per-line parse, or raise the same exception type with the same
    message. The graph itself is not built: fuzzed ids reach 10^18.
    """
    from repro.graph import files

    def outcome(read) -> tuple:
        try:
            edges, n = read()
        except Exception as err:  # the outcome under comparison
            return type(err), str(err)
        return np.asarray(edges).tolist(), n

    def per_line():
        edges, _weights, n = files._parse(path, want_weights=False)
        return edges, n

    want = outcome(per_line)
    problems = []
    for size in (files.FAST_BLOCK_BYTES, block_bytes):
        got = outcome(lambda: files._read_edges(path, block_bytes=size))
        if got != want:
            problems.append(f"{path}: block_bytes={size} read {got!r}, "
                            f"per-line parser {want!r}")
    return problems


def ingest_smoke_cell() -> dict:
    """The ingest cell of ``repro verify --smoke``.

    Round-trips a small ER graph through the path ``repro ingest`` runs
    (:func:`repro.graph.csr.ingest`) — text edge list streamed through
    the parser into the external-memory CSR build →
    :class:`repro.graph.csr.MmapGraph` — with a deliberately tiny
    ``chunk_edges`` so the chunked paths are actually exercised, then
    checks

    * **one artifact**: nothing is left beside the source text, and an
      edited source is rebuilt, not taken for the cache of the old one;
    * **parser parity**: every :data:`PARSER_CORPUS` file reads the same
      through the byte-level fast path as through the per-line parser
      (:func:`edge_list_parity`);
    * **CSR parity**: the mmap ``indptr``/``indices`` must be
      bit-identical to ``Graph.from_edges`` on the same edges;
    * **result + ledger parity**: connectivity and MIS run from the
      mmap-backed graph must produce bit-identical labels/membership AND
      bit-identical per-round cost ledgers vs the in-memory baseline.

    Returns a smoke-cell outcome plus ``n``, ``m``, ``checks`` and
    ``parser_cases``.
    """
    import tempfile
    from pathlib import Path

    from repro.algorithms.connectivity import connectivity
    from repro.algorithms.mis import maximal_independent_set
    from repro.graph import csr, files, generators

    def _rows(report) -> list[dict]:
        return report.to_dict()["rounds"]

    problems: list[str] = []
    checks = 0
    base = generators.erdos_renyi_gnm(SMOKE_SIZE, 2 * SMOKE_SIZE, rng=0)
    with tempfile.TemporaryDirectory(prefix="repro-ingest-smoke-") as tmp:
        text = Path(tmp) / "text" / "smoke.txt"
        text.parent.mkdir()
        out = Path(tmp) / "csr"
        # The edited source differs in size, so its record differs even
        # when the file system's mtime does not tick between the writes.
        edited = generators.erdos_renyi_gnm(SMOKE_SIZE, 2 * SMOKE_SIZE + 7,
                                            rng=1)
        files.write_edge_list(edited, text)
        csr.ingest(text, out, chunk_edges=97)
        files.write_edge_list(base, text)
        mapped, built = csr.ingest(text, out, chunk_edges=97)
        if not built:
            problems.append("an edited source was taken as up to date")
        if csr.ingest(text, out, chunk_edges=97)[1]:
            problems.append("an unchanged source was rebuilt")
        if [p.name for p in text.parent.iterdir()] != [text.name]:
            problems.append("ingest left files beside the source text")
        checks += 3
        if (
            mapped.n != base.n
            or not np.array_equal(np.asarray(mapped.indptr), base.indptr)
            or not np.array_equal(np.asarray(mapped.indices), base.indices)
        ):
            problems.append("mmap CSR arrays differ from Graph.from_edges")
        checks += 1
        want = connectivity(base, seed=0)
        got = connectivity(mapped, seed=0)
        if (
            not np.array_equal(got.labels, want.labels)
            or got.n_components != want.n_components
        ):
            problems.append("connectivity labels differ on the mmap graph")
        if _rows(got.report) != _rows(want.report):
            problems.append("connectivity ledger differs on the mmap graph")
        checks += 2
        want_mis = maximal_independent_set(base, seed=0)
        got_mis = maximal_independent_set(mapped, seed=0)
        if not np.array_equal(got_mis.in_mis, want_mis.in_mis):
            problems.append("MIS membership differs on the mmap graph")
        if _rows(got_mis.report) != _rows(want_mis.report):
            problems.append("MIS ledger differs on the mmap graph")
        checks += 2
        for i, data in enumerate(PARSER_CORPUS):
            hostile = Path(tmp) / f"hostile-{i}.txt"
            hostile.write_bytes(data)
            problems += edge_list_parity(hostile, block_bytes=16)

    return _outcome(
        "ingest smoke", problems,
        f"text streamed to mmap CSR n={base.n} m={base.m}, {checks} "
        f"checks, parser parity on {len(PARSER_CORPUS)} byte cases",
        n=base.n, m=base.m, checks=checks, parser_cases=len(PARSER_CORPUS),
    )


def _cell_outcome(record: CellRecord, ok: bool, label: str, text: str) -> dict:
    return {
        "ok": ok,
        "summary": f"{label}: {text}",
        "problems": [f"{label} error: {record.error}"] if record.error else [],
    }


def _traced_smoke(args: Any) -> list[dict]:
    """One connectivity cell inside a :class:`TracingSession`: the exported
    trace must match the schema and the cost ledger. Then the armed-
    overhead budget is guarded by the retry-tolerant
    :func:`repro.perf.observe_overhead_gate`."""
    from repro.observe import (
        TracingSession,
        reconcile_metrics,
        reconcile_with_report,
        to_chrome_trace,
        to_records,
        validate_chrome,
        validate_records,
    )
    from repro.perf import observe_overhead_gate

    case = CASES["connectivity"]
    workload = make_workload(case, "er", 300, 0)
    with TracingSession(detail="machine") as session:
        result = case.run(workload, 0)
    report = case.report_of(result)
    problems = validate_records(to_records(session.events))
    problems += validate_chrome(to_chrome_trace(session.events))
    problems += reconcile_with_report(session.events, report)
    problems += reconcile_metrics(session.snapshot, report)
    traced = {
        "ok": not problems,
        "summary": f"traced smoke: connectivity er n=300, "
                   f"{len(session.events)} events, schema+ledger reconciled",
        "problems": [],
    }
    gate = observe_overhead_gate()
    problems += gate["problems"]
    gated = {
        "ok": gate["ok"],
        "summary": f"observe overhead: armed {gate['armed_pct']:+.1f}% "
                   f"vs gate {gate['allowed_pct']:.1f}%",
        # Both lines' problems are listed together, under the second.
        "problems": [f"traced smoke problem: {p}" for p in problems],
    }
    return [traced, gated]


def _process_smoke(args: Any) -> list[dict]:
    """MIS, matching and coloring cells on the process backend (2
    workers) — solves whose rounds shard over the pool — bit-identical in
    results and per-round ledgers to their serial twins (the
    ``backend_identical`` oracle), then one worker-crash-recovery cell
    with the default real-process fault plan armed (SIGKILL/hang/delay
    at 10% each), which must have lost and respawned a worker."""
    outcomes = []
    for name in ("mis", "matching", "coloring"):
        record = _run_cell(CASES[name], "er", SMOKE_SIZE, 0,
                           balance_slack=4.0, chaos=False,
                           backend="process", workers=2)
        outcomes.append(_cell_outcome(
            record, record.ok and record.backend_identical is True,
            "process backend",
            f"{name} er n={record.n} bit-identical="
            f"{record.backend_identical}",
        ))
    # Workers are really SIGKILLed, hung, and delayed mid-round; the
    # parent must re-run every lost shard and the answer must still be
    # bit-identical to the fault-free serial twin. Under the default
    # plan seed this cell's matching rounds lose a worker, and a cell
    # that lost none proves nothing, so it fails. Every injected hang
    # waits out the armed-plan 1 s deadline.
    record = _run_cell(
        CASES["matching"], "er", SMOKE_SIZE, 0,
        balance_slack=4.0, chaos=False,
        backend="process", workers=2,
        process_faults=default_process_fault_plan(),
    )
    outcomes.append(_cell_outcome(
        record,
        record.ok and record.backend_identical is True
        and record.worker_respawns > 0,
        "worker-crash recovery",
        f"matching er n={record.n} (kill/hang/delay 10%) "
        f"respawns={record.worker_respawns} "
        f"bit-identical={record.backend_identical}",
    ))
    return outcomes


def spec_parity_cell() -> dict:
    """The ``spec-parity`` cell of ``repro verify --smoke``: each of the
    five adaptive rounds, once through its production program and once
    through its per-item spec (:mod:`repro.verify.specs`) on the same
    staged input, must agree on results, next store and ledger row."""
    from repro.core.config import AMPCConfig

    from . import specs

    graph = generators.erdos_renyi_gnm(SMOKE_SIZE, 2 * SMOKE_SIZE, rng=0)
    config = AMPCConfig.for_input(graph.n + graph.m, seed=0)
    problems = (
        specs.graph_round_problems(graph, 4, 8, 0, config)
        + specs.weighted_round_problems(
            generators.with_random_weights(graph, 1), 4, config)
        + specs.list_round_problems(
            generators.linked_list(SMOKE_SIZE, rng=0), True, config)
    )
    return _outcome(
        "spec-parity", problems,
        "increase-degrees, mis, prim, shrink, fill-back: production "
        "program == per-item spec (results, next store, ledger row)",
    )


def _never(args: Any) -> bool:
    return False


#: The cells ``repro verify --smoke`` runs after the sweep, in order:
#: ``(name, skip(args), run(args))``. A cell whose path the sweep itself
#: already took (``--backend process``) is skipped.
SMOKE_CELLS: list[tuple[str, Callable[[Any], bool], Callable[[Any], list[dict]]]] = [
    ("traced", _never, _traced_smoke),
    ("process", lambda args: args.backend != "serial", _process_smoke),
    ("spec-parity", _never, lambda args: [spec_parity_cell()]),
    ("perf", _never, lambda args: [perf_smoke_cell()]),
    ("serve", _never, lambda args: [serve_smoke_cell()]),
    ("ingest", _never, lambda args: [ingest_smoke_cell()]),
]


def verify_sweep(
    *,
    algorithms: Iterable[str] | None = None,
    families: Iterable[str] | None = None,
    seeds: Iterable[int] | None = None,
    size: int | None = None,
    smoke: bool = False,
    chaos: bool = False,
    backend: str = "serial",
    workers: int | None = None,
    process_faults: bool = False,
    balance_slack: float = 4.0,
    progress: Callable[[CellRecord], None] | None = None,
) -> ConformanceReport:
    """Run the conformance sweep; see the module docstring.

    Args:
        algorithms: case names to run (default: every registered case).
        families: restrict to these generator families (cases keep only
            the intersection with their own compatibility list).
        seeds: seed matrix (default ``(0, 1)`` smoke / ``(0, 1, 2)`` full).
        size: target instance size n (defaults by mode).
        smoke: CI mode — small instances, two seeds.
        chaos: additionally replay every case but the ``chaos_exempt``
            ones with each runtime its solve builds armed with the
            default fault plan, and require bit-identical answers.
        backend: execution backend for every cell (``"serial"`` or
            ``"process"``). With ``"process"``, each cell additionally
            runs a serial twin and requires bit-identical results and
            per-round ledgers (``backend_identical``).
        workers: worker count for the process backend (default:
            autodetect).
        process_faults: arm :func:`default_process_fault_plan` (seeded
            per cell) for every cell's primary run and determinism
            rerun — workers are really SIGKILLed, hung, and delayed —
            while the cross-backend serial twin stays fault-free. Only
            meaningful with ``backend="process"``; raises otherwise.
            A cell none of whose rounds shipped is counted under
            ``no_sharded_round`` in :meth:`ConformanceReport.summary`.
        balance_slack: constant factor granted over the Lemma 2.1 bound.
        progress: optional callback invoked with each finished cell.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    if process_faults and backend != "process":
        raise ValueError(
            "process_faults=True requires backend='process' — real-process "
            "fault injection has no process workers to target on the "
            f"{backend!r} backend"
        )
    wanted = list(algorithms) if algorithms else list(CASES)
    unknown = [name for name in wanted if name not in CASES]
    if unknown:
        raise ValueError(f"unknown algorithm(s): {unknown}; "
                         f"known: {sorted(CASES)}")
    family_filter = set(families) if families else None
    if family_filter:
        bad = family_filter - set(FAMILIES)
        if bad:
            raise ValueError(f"unknown families: {sorted(bad)}")
    n = size if size is not None else (SMOKE_SIZE if smoke else FULL_SIZE)
    seed_matrix = tuple(seeds) if seeds is not None else (
        (0, 1) if smoke else (0, 1, 2)
    )

    records: list[CellRecord] = []
    for name in wanted:
        case = CASES[name]
        case_families = [f for f in case.families
                         if family_filter is None or f in family_filter]
        for family in case_families:
            for seed in seed_matrix:
                record = _run_cell(
                    case, family, n, seed,
                    balance_slack=balance_slack, chaos=chaos,
                    backend=backend,
                    workers=workers,
                    process_faults=(
                        default_process_fault_plan(seed + 1)
                        if process_faults else None
                    ),
                )
                records.append(record)
                if progress is not None:
                    progress(record)

    settings = {
        "algorithms": wanted,
        "families": sorted(family_filter) if family_filter else "all",
        "seeds": list(seed_matrix),
        "size": n,
        "smoke": smoke,
        "chaos": chaos,
        "backend": backend,
        "workers": workers,
        "process_faults": process_faults,
        "balance_slack": balance_slack,
    }
    return ConformanceReport(records=records, settings=settings)
