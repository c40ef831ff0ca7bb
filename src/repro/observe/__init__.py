"""``repro.observe`` — structured observability for AMPC executions.

Two composable tools, both built on the runtime hook interface of
:mod:`repro.core.hooks`:

* **Tracing** (:mod:`~repro.observe.tracer`): span-based execution
  traces (round → machine step → DDS op) carrying the model-cost
  ledger as span attributes; exportable to JSONL and Chrome
  ``trace_event`` for chrome://tracing / Perfetto
  (:mod:`~repro.observe.export`).
* **Metrics** (:mod:`~repro.observe.metrics`): counters, gauges and
  base-2 histograms (per-server contention, round latency,
  batch-vs-scalar op split) with one-call snapshot; totals are
  bit-identical to the :class:`~repro.core.cost.RunReport` ledger.

:class:`TracingSession` bundles them behind one context manager and is
what the ``repro trace`` CLI uses::

    from repro.observe import TracingSession

    with TracingSession(detail="machine") as session:
        result = repro.connectivity(graph, seed=0)

    export.write_chrome_trace(session.events, "trace.json")
    print(session.metrics.registry.to_json())

The layer composes with every execution path: the scalar engine, the
vectorized batch engine (batch ops surface as single events with
array-sized attributes), and chaos-armed runs (checkpoint / restore /
recovery charges become first-class trace events). ``repro.verify``
invariant observers mount into the same session (``observers=...``), so
one run can be checked and traced simultaneously.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.runtime import install_observer, uninstall_observer

from . import export
from .export import (
    SCHEMA_VERSION,
    read_jsonl,
    reconcile_metrics,
    reconcile_with_report,
    to_chrome_trace,
    to_jsonl,
    to_records,
    trace_totals,
    validate_chrome,
    validate_records,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
)
from .tracer import Event, OpTracer, Tracer

__all__ = [
    "Event",
    "Tracer",
    "OpTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsObserver",
    "TracingSession",
    "make_tracer",
    "export",
    "SCHEMA_VERSION",
    "to_records",
    "to_jsonl",
    "to_chrome_trace",
    "write_jsonl",
    "write_chrome_trace",
    "read_jsonl",
    "validate_records",
    "validate_chrome",
    "trace_totals",
    "reconcile_with_report",
    "reconcile_metrics",
    "install_observer",
    "uninstall_observer",
]


def make_tracer(detail: str = "machine") -> Tracer:
    """Tracer for a detail level: ``round`` / ``machine`` / ``op``."""
    if detail == "op":
        return OpTracer()
    return Tracer(detail=detail)


class TracingSession:
    """Arm tracing / metrics for every runtime in a block.

    Observers are installed globally (like
    :class:`repro.verify.invariants.InvariantSuite`): every runtime
    constructed inside the ``with`` block is observed, including
    runtimes algorithms build internally.

    Args:
        detail: trace granularity — ``"round"``, ``"machine"``
            (default), or ``"op"`` (per-operation events; large traces).
        metrics: collect the standard model-cost metrics.
        observers: extra :class:`~repro.core.hooks.RuntimeObserver`
            instances to mount into the same run — e.g.
            ``InvariantSuite().observers`` to conformance-check the
            traced execution.
        consumers: objects with ``on_event(event)`` streamed every
            completed trace event.

    After the block: :attr:`events` (finalized trace) and
    :attr:`snapshot` (metrics dict).
    """

    def __init__(
        self,
        *,
        detail: str = "machine",
        metrics: bool = True,
        observers: Iterable[Any] = (),
        consumers: Iterable[Any] = (),
    ) -> None:
        self.tracer = make_tracer(detail)
        for consumer in consumers:
            self.tracer.add_consumer(consumer)
        self.metrics = MetricsObserver() if metrics else None
        self.extra_observers = list(observers)
        self.events: list[Event] = []
        self.snapshot: dict[str, Any] = {}
        self._installed: list[Any] = []

    def __enter__(self) -> "TracingSession":
        to_install: list[Any] = [self.tracer]
        if self.metrics is not None:
            to_install.append(self.metrics)
        to_install.extend(self.extra_observers)
        for obs in to_install:
            install_observer(obs)
        self._installed = to_install
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        for obs in self._installed:
            uninstall_observer(obs)
        self._installed = []
        self.events = self.tracer.finish()
        if self.metrics is not None:
            self.snapshot = self.metrics.finalize()
