"""Span-based execution tracer for AMPC runs.

The tracer is a :class:`repro.core.hooks.RuntimeObserver` that turns the
runtime's hook stream into a nested span tree::

    run
    └── round #i (tag)                  ── driver timeline (tid 0)
        ├── machine m                   ── one span per machine step (tid m+1)
        │   └── read/write ops          ── only at detail="op" (OpTracer)
        ├── charge:<primitive>          ── instant, analytically-charged step
        └── checkpoint / restore        ── instants, chaos recovery markers

Every span carries the model-cost attributes of what it covers: round
spans embed the :class:`~repro.core.cost.RoundStats` ledger row (reads,
writes, server load, recovery charges), machine spans the per-machine
budget consumption. On the vectorized fused path one machine span covers
all machines in lockstep and its attributes are array-sized (per-machine
read/write vectors), mirroring how batch operations charge budgets once
per batch.

Cost attributes of round spans are *lazily* finalized: a chaos-armed
runtime mutates a round's ``RoundStats`` (recovery charges, straggler
wall time) after ``on_round_end`` has fired, so :meth:`Tracer.finish`
re-reads every retained stats row before returning the events. Rounds
aborted by a chaos restore are closed with ``aborted: true`` and excluded
from ledger reconciliation (their reads are accounted as ``wasted_reads``
of the successful attempt, exactly like the cost ledger does).

Export to JSONL / Chrome ``trace_event`` lives in
:mod:`repro.observe.export`; metrics in :mod:`repro.observe.metrics`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable

import numpy as np

from repro.core.hooks import RuntimeObserver

#: Per-machine attribute arrays larger than this are summarized (total,
#: max, active count) instead of embedded verbatim in span attributes.
MAX_EMBEDDED_ARRAY = 64


class Event:
    """One trace event: a completed span, an instant, or metadata.

    Attributes:
        type: ``"span"`` (has a duration), ``"instant"`` (a point in
            time), or ``"meta"`` (trace-level metadata, no timestamp).
        name: display name ("connectivity #3", "machine 7", "read", ...).
        cat: category — ``run``, ``round``, ``machine``, ``charge``,
            ``bootstrap``, ``assign``, ``recovery``, ``runtime``, ``op``.
        ts_us: start time in microseconds since the trace epoch.
        dur_us: span duration in microseconds (spans only).
        tid: timeline id — 0 is the driver, machine ``m`` maps to ``m+1``.
        attrs: JSON-serializable model-cost attributes.
    """

    __slots__ = ("type", "name", "cat", "ts_us", "dur_us", "tid", "attrs")

    def __init__(
        self,
        type: str,
        name: str,
        cat: str,
        ts_us: float,
        tid: int = 0,
        dur_us: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.type = type
        self.name = name
        self.cat = cat
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.tid = tid
        self.attrs = {} if attrs is None else attrs

    def to_record(self) -> dict[str, Any]:
        """The event as a plain dict matching the documented JSONL schema."""
        record: dict[str, Any] = {
            "type": self.type,
            "name": self.name,
            "cat": self.cat,
            "ts_us": round(self.ts_us, 3),
            "tid": self.tid,
            "attrs": self.attrs,
        }
        if self.type == "span":
            record["dur_us"] = round(self.dur_us or 0.0, 3)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f" dur={self.dur_us:.1f}us" if self.dur_us is not None else ""
        return f"<Event {self.type} {self.cat}:{self.name!r}{dur}>"


def _stats_attrs(stats: Any) -> dict[str, Any]:
    """Span attributes for one ledger row (:class:`RoundStats`)."""
    attrs: dict[str, Any] = {
        "tag": stats.tag,
        "kind": stats.kind,
        "rounds": stats.rounds,
        "reads": stats.total_reads,
        "writes": stats.total_writes,
        "max_machine_reads": stats.max_machine_reads,
        "max_machine_writes": stats.max_machine_writes,
        "machines_active": stats.n_machines_active,
        "max_server_load": stats.max_server_load,
        "budget_violations": stats.budget_violations,
    }
    for field in (
        "crashes",
        "server_outages",
        "stragglers",
        "retry_reads",
        "failover_reads",
        "wasted_reads",
        "checkpoint_restores",
        "worker_respawns",
    ):
        value = getattr(stats, field, 0)
        if value:
            attrs[field] = value
    recovery = getattr(stats, "recovery_wall_s", 0.0)
    if recovery:
        attrs["recovery_wall_s"] = round(recovery, 6)
    return attrs


def _usage_attrs(prefix: str, used: Any, before: Any) -> dict[str, Any]:
    """Budget-consumption delta attributes for a machine span.

    Scalar contexts carry int counters; the fused
    :class:`~repro.core.runtime.BatchRoundContext` carries per-machine
    arrays — the delta is then array-sized (embedded when small,
    summarized otherwise).
    """
    if isinstance(used, np.ndarray):
        delta = used - before
        total = int(delta.sum())
        attrs: dict[str, Any] = {prefix: total}
        if delta.size:
            attrs[f"max_machine_{prefix}"] = int(delta.max())
        if delta.size <= MAX_EMBEDDED_ARRAY:
            attrs[f"{prefix}_per_machine"] = [int(x) for x in delta]
        return attrs
    return {prefix: int(used) - int(before)}


class Tracer(RuntimeObserver):
    """Records an execution as a list of :class:`Event`.

    Install globally (``repro.core.runtime.install_observer``) or per
    runtime (``runtime.attach_observer``); the usual entry point is
    :class:`repro.observe.TracingSession`, which does both the install
    and the teardown.

    Args:
        detail: ``"round"`` records only driver-level events (rounds,
            charges, recovery markers); ``"machine"`` (default) adds one
            span per machine step; per-operation events require the
            :class:`OpTracer` subclass (``detail="op"``) so that runs at
            lower detail never pay per-op dispatch.
        clock: monotonic time source, seconds (injectable for tests).

    Use :meth:`finish` to close the run span, finalize lazily-bound
    cost attributes, and obtain the event list.
    """

    #: detail values this class supports; the last entry is the default.
    detail_levels = ("round", "machine")

    def __init__(
        self,
        detail: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if detail is None:
            detail = self.detail_levels[-1]
        if detail not in self.detail_levels:
            raise ValueError(
                f"detail must be one of {self.detail_levels}, got {detail!r}"
            )
        self.detail = detail
        self.events: list[Event] = []
        self.consumers: list[Any] = []
        self._clock = clock
        self._t0: float | None = None
        self._run_span: Event | None = None
        self._finished = False
        # Open spans keyed by id() of the runtime / context that owns them.
        self._open_rounds: dict[int, Event] = {}
        self._open_machines: dict[int, tuple[Event, Any, Any]] = {}
        # (event, stats) pairs re-materialized at finish(): chaos runtimes
        # mutate RoundStats *after* on_round_end (recovery accounting).
        self._lazy_stats: list[tuple[Event, Any]] = []

    # -- plumbing ----------------------------------------------------------

    def _now_us(self) -> float:
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        return (now - self._t0) * 1e6

    def _ensure_run(self, ts: float) -> None:
        if self._run_span is None:
            self._run_span = Event("span", "run", "run", ts)
            self.events.append(self._run_span)

    def _emit(self, event: Event) -> Event:
        self.events.append(event)
        for consumer in self.consumers:
            consumer.on_event(event)
        return event

    def add_consumer(self, consumer: Any) -> None:
        """Stream events to ``consumer.on_event(event)`` as they complete.

        Instants are delivered at emission, spans when they close. Round
        spans may still gain chaos-recovery attributes afterwards (see
        :meth:`finish`); consumers needing final ledger values should read
        ``tracer.events`` after the run instead.
        """
        self.consumers.append(consumer)

    # -- runtime-level hooks ----------------------------------------------

    def on_runtime_created(self, runtime: Any) -> None:
        ts = self._now_us()
        self._ensure_run(ts)
        cfg = runtime.config
        self._emit(
            Event(
                "instant",
                "runtime-created",
                "runtime",
                ts,
                attrs={
                    "runtime": type(runtime).__name__,
                    "n_machines": cfg.n_machines,
                    "space": cfg.space,
                    "seed": cfg.seed,
                },
            )
        )

    def on_bootstrap(self, runtime: Any, store: Any, count: int) -> None:
        ts = self._now_us()
        self._ensure_run(ts)
        # bootstrap() records a ledger row (kind="bootstrap"); embed it so
        # trace totals reconcile with the RunReport including input loading.
        stats = runtime.report.rounds[-1] if runtime.report.rounds else None
        attrs = _stats_attrs(stats) if stats is not None else {"writes": count}
        event = self._emit(Event("instant", "bootstrap", "bootstrap", ts,
                                 attrs=attrs))
        if stats is not None:
            self._lazy_stats.append((event, stats))

    def on_round_start(self, runtime: Any, read_store: Any,
                       next_store: Any) -> None:
        ts = self._now_us()
        self._ensure_run(ts)
        span = Event("span", f"round #{runtime.report.n_rounds}", "round", ts)
        self._open_rounds[id(runtime)] = span

    def on_round_end(self, runtime: Any, stats: Any, contexts: list[Any],
                     read_store: Any, next_store: Any) -> None:
        ts = self._now_us()
        span = self._open_rounds.pop(id(runtime), None)
        if span is None:  # round() called without a start we saw
            span = Event("span", "round", "round", ts)
        span.name = f"{stats.tag} #{stats.index}"
        span.dur_us = ts - span.ts_us
        span.attrs = _stats_attrs(stats)
        self._lazy_stats.append((span, stats))
        self._emit(span)

    def on_charge(self, runtime: Any, stats: Any) -> None:
        ts = self._now_us()
        self._ensure_run(ts)
        event = self._emit(
            Event("instant", f"charge:{stats.tag}", "charge", ts,
                  attrs=_stats_attrs(stats))
        )
        self._lazy_stats.append((event, stats))

    def on_assignment(self, runtime: Any, assignment: np.ndarray,
                      n_items: int) -> None:
        if self.detail == "round":
            return
        self._emit(
            Event("instant", "assign", "assign", self._now_us(),
                  attrs={"n_items": n_items})
        )

    def on_checkpoint(self, runtime: Any, checkpoint: Any) -> None:
        self._emit(
            Event("instant", "checkpoint", "recovery", self._now_us(),
                  attrs={"rounds_recorded": checkpoint.report_length})
        )

    def on_restore(self, runtime: Any, checkpoint: Any) -> None:
        ts = self._now_us()
        # The round in flight (and any machine step inside it) was
        # abandoned; close its spans as aborted so the trace stays a tree.
        for key in list(self._open_machines):
            span, _, _ = self._open_machines.pop(key)
            span.dur_us = ts - span.ts_us
            span.attrs["aborted"] = True
            self._emit(span)
        span = self._open_rounds.pop(id(runtime), None)
        if span is not None:
            span.dur_us = ts - span.ts_us
            span.attrs["aborted"] = True
            self._emit(span)
        self._emit(
            Event("instant", "restore", "recovery", ts,
                  attrs={"rounds_recorded": checkpoint.report_length})
        )

    # -- machine-level hooks ----------------------------------------------

    def on_machine_start(self, ctx: Any) -> None:
        if self.detail == "round":
            return
        machine_id = getattr(ctx, "machine_id", None)
        if machine_id is None:
            name, tid = "machines (fused)", 0
        else:
            name, tid = f"machine {machine_id}", machine_id + 1
        reads = ctx.reads_used
        writes = ctx.writes_used
        if isinstance(reads, np.ndarray):
            reads, writes = reads.copy(), writes.copy()
        self._open_machines[id(ctx)] = (
            Event("span", name, "machine", self._now_us(), tid=tid),
            reads,
            writes,
        )

    def on_machine_end(self, ctx: Any) -> None:
        if self.detail == "round":
            return
        entry = self._open_machines.pop(id(ctx), None)
        if entry is None:
            return
        span, reads0, writes0 = entry
        span.dur_us = self._now_us() - span.ts_us
        span.attrs.update(_usage_attrs("reads", ctx.reads_used, reads0))
        span.attrs.update(_usage_attrs("writes", ctx.writes_used, writes0))
        # Process-backend rounds tag each machine with the OS worker that
        # executed it (repro.parallel). Span timing still reflects the
        # parent's merge replay, not worker wall time — the tag is for
        # placement diagnostics, not for profiling workers.
        worker_id = getattr(ctx, "worker_id", None)
        if worker_id is not None:
            span.attrs["worker"] = int(worker_id)
        self._emit(span)

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> list[Event]:
        """Close the trace and return the completed event list.

        Closes any spans still open (marked ``aborted``), re-materializes
        round/charge attributes from their ledger rows (capturing chaos
        recovery fields flushed after ``on_round_end``), and closes the
        run span. Idempotent.
        """
        if self._finished:
            return self.events
        ts = self._now_us()
        for key in list(self._open_machines):
            span, _, _ = self._open_machines.pop(key)
            span.dur_us = ts - span.ts_us
            span.attrs["aborted"] = True
            self._emit(span)
        for key in list(self._open_rounds):
            span = self._open_rounds.pop(key)
            span.dur_us = ts - span.ts_us
            span.attrs["aborted"] = True
            self._emit(span)
        for event, stats in self._lazy_stats:
            aborted = event.attrs.get("aborted", False)
            event.attrs = _stats_attrs(stats)
            if aborted:
                event.attrs["aborted"] = True
        if self._run_span is not None:
            self._run_span.dur_us = ts - self._run_span.ts_us
        self._finished = True
        return self.events


class OpTracer(Tracer):
    """Tracer recording individual DDS operations (``detail="op"``).

    Adds one instant event per charged scalar read/write and per batch
    array operation. This is the only tracer that overrides per-operation
    hooks, so runs at ``round``/``machine`` detail pay no per-op dispatch
    (the :class:`~repro.core.hooks.ObserverFan` skips un-overridden
    hooks). Expect op-detail traces to be large and runs noticeably
    slower — this level is for debugging access patterns, not for the
    <5% overhead envelope of the default detail.
    """

    detail_levels = ("op",)

    def _op(self, ctx: Any, name: str, attrs: dict[str, Any]) -> None:
        machine_id = getattr(ctx, "machine_id", None)
        tid = 0 if machine_id is None else machine_id + 1
        self._emit(Event("instant", name, "op", self._now_us(), tid=tid,
                         attrs=attrs))

    def on_machine_read(self, ctx: Any, key: Hashable) -> None:
        self._op(ctx, "read", {"key": _short_key(key)})

    def on_machine_write(self, ctx: Any, key: Hashable) -> None:
        self._op(ctx, "write", {"key": _short_key(key)})

    def on_machine_read_batch(self, ctx: Any, namespace: str,
                              ids: np.ndarray) -> None:
        self._op(ctx, "read_batch",
                 {"namespace": namespace, "n": int(ids.size)})

    def on_machine_write_batch(self, ctx: Any, namespace: str,
                               ids: np.ndarray) -> None:
        self._op(ctx, "write_batch",
                 {"namespace": namespace, "n": int(ids.size)})


def _short_key(key: Hashable, limit: int = 80) -> str:
    text = repr(key)
    return text if len(text) <= limit else text[: limit - 1] + "…"
