"""Traffic driver: replay a workload against a resident engine, report
QPS + tail latency, and reconcile the ledgers.

:func:`run_loadgen` is a discrete-event queueing loop with *measured*
service times: arrivals advance on the workload's virtual clock, each
scheduler tick's service time is the wall-clock cost of actually
executing the adaptive round, and the virtual clock advances by it. The
result is an open-loop benchmark — offered load beyond capacity builds
queue, queue wait enters the latency percentiles, and overflow beyond
``max_queue`` is shed and accounted — while every reported number stays
deterministic in *value* (answers, reads, rejections) for a fixed
(engine seed, workload seed); only the timings are host-dependent.

Reported per run (:class:`LoadgenResult.summary`):

* **qps** — completed requests / busy wall time (sustained service
  throughput of the engine, the ROADMAP item 1 headline number).
* **p50/p95/p99** — latency percentiles from the ``serve.latency_s``
  :class:`~repro.observe.metrics.Histogram` (queue wait + service).
* **accepted / rejected / completed** — admission accounting.
* **reconciled** — whether the per-request ledgers, the tick rows, and
  the observe counters agree (:meth:`ServingEngine.reconcile`).

:func:`loadgen_matrix` replays several workloads against one engine and
returns one summary row each (see ``docs/serving.md`` for how to read
them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.observe.metrics import MetricsRegistry

from .engine import ServeResponse, ServingEngine
from .scheduler import AdmissionControl, RequestScheduler
from .workload import ServeEvent, WorkloadConfig, generate, workload_config


@dataclass
class LoadgenResult:
    """Outcome of one :func:`run_loadgen` run."""

    workload: WorkloadConfig
    responses: list[ServeResponse]
    scheduler: RequestScheduler
    busy_wall_s: float
    virtual_span_s: float
    reconcile_problems: list[str]

    @property
    def qps(self) -> float:
        """Sustained service throughput: completed / busy wall seconds."""
        if self.busy_wall_s <= 0:
            return 0.0
        return len(self.responses) / self.busy_wall_s

    def summary(self) -> dict[str, Any]:
        """The BENCH_serve row for this run (JSON-serializable)."""
        pct = self.scheduler.percentiles()
        to_ms = lambda v: None if v is None else v * 1e3
        return {
            "workload": self.workload.name,
            "requests": self.workload.n_requests,
            **self.scheduler.counts(),
            "qps": self.qps,
            "p50_ms": to_ms(pct["p50"]),
            "p95_ms": to_ms(pct["p95"]),
            "p99_ms": to_ms(pct["p99"]),
            "busy_wall_s": self.busy_wall_s,
            "virtual_span_s": self.virtual_span_s,
            "reads": int(sum(r.reads for r in self.responses)),
            "query_calls": int(sum(r.query_calls for r in self.responses)),
            "reconciled": not self.reconcile_problems,
        }


def run_loadgen(
    engine: ServingEngine,
    workload: WorkloadConfig | str,
    *,
    admission: AdmissionControl | None = None,
    events: Sequence[ServeEvent] | None = None,
) -> LoadgenResult:
    """Replay ``workload`` against ``engine`` (see the module docstring).

    ``workload`` is a config or a :data:`~repro.serve.workload.STANDARD_WORKLOADS`
    name; pass ``events`` to replay a pre-generated stream instead.
    """
    if isinstance(workload, str):
        workload = workload_config(workload)
    if events is None:
        events = generate(workload, engine.n)
    # A per-run registry scopes the scheduler's latency histogram and
    # admission counters to this run, even when several workload runs
    # reuse one resident engine (engine-lifetime counters still
    # accumulate on engine.metrics and reconcile there).
    scheduler = RequestScheduler(engine, admission=admission,
                                 metrics=MetricsRegistry())
    clock = events[0].time if events else 0.0
    busy = 0.0
    responses: list[ServeResponse] = []
    i = 0
    n_events = len(events)
    while i < n_events or scheduler.pending:
        if not scheduler.pending and i < n_events:
            # Idle: jump the virtual clock to the next arrival.
            clock = max(clock, events[i].time)
        while i < n_events and events[i].time <= clock:
            scheduler.submit(events[i].request, now=events[i].time)
            i += 1
        if not scheduler.pending:
            continue
        served = scheduler.step(now=clock)
        busy += scheduler.last_service_s
        clock += scheduler.last_service_s
        responses.extend(served)
    span = (clock - events[0].time) if events else 0.0
    return LoadgenResult(
        workload=workload,
        responses=responses,
        scheduler=scheduler,
        busy_wall_s=busy,
        virtual_span_s=span,
        reconcile_problems=engine.reconcile(),
    )


def loadgen_matrix(
    graph,
    *,
    workloads: Sequence[str | WorkloadConfig],
    n_requests: int | None = None,
    seed: int = 0,
    admission: AdmissionControl | None = None,
) -> dict[str, Any]:
    """Replay each workload against one fresh engine; one row each.

    Rows carry :meth:`LoadgenResult.summary` plus the engine identity
    (``n``, ``m``, ``seed``).
    """
    rows: list[dict[str, Any]] = []
    engine = ServingEngine(graph, seed=seed)
    for spec in workloads:
        cfg = workload_config(spec) if isinstance(spec, str) else spec
        if n_requests is not None:
            cfg = replace(cfg, n_requests=n_requests)
        result = run_loadgen(engine, cfg, admission=admission)
        rows.append({"n": graph.n, "m": graph.m, "seed": seed,
                     **result.summary()})
    return {"rows": rows}
