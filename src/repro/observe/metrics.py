"""Metrics registry and the model-cost metrics observer.

Three instrument kinds cover everything the simulator measures:

* :class:`Counter` — monotone totals (reads, writes, rounds, batch ops).
* :class:`Gauge` — last/extreme values (max server load, peak budget use).
* :class:`Histogram` — distributions in base-2 exponential buckets
  (per-server contention, round latency, per-round communication).

A :class:`MetricsRegistry` namespaces instruments by name and snapshots
them to a plain dict. Constructed with ``enabled=False`` it hands out
shared null instruments whose methods are no-ops — code paths
instrumented against a disabled registry cost one attribute lookup and a
no-op call, and the registry holds no state ("zero overhead when
disabled": not installing the :class:`MetricsObserver` at all costs
literally nothing, because the runtime's hook sites are ``is None``
predicates).

:class:`MetricsObserver` is the standard bridge from runtime hooks to a
registry. To keep totals **bit-identical to the RunReport ledger** it
does not count per-operation events; it aggregates each runtime's
``report.rounds`` at :meth:`~MetricsObserver.finalize` time. This makes
the metric totals correct by construction under chaos (aborted rounds
are truncated from the ledger before finalize; recovery charges are
flushed into the successful attempt's row), where live per-op counting
would double-count replayed work. The only live counters are the
batch-op counters (one event per array operation — negligible rate) and
the per-round contention histogram, which needs the round store's
per-server loads before the next round replaces it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from repro.core.hooks import RuntimeObserver


class Counter:
    """Monotonically-increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """Last-set value, with a convenience for tracking maxima."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def set_max(self, value: int | float) -> None:
        if self.value is None or value > self.value:
            self.value = value

    def snapshot(self) -> int | float | None:
        return self.value


class Histogram:
    """Distribution in base-2 exponential buckets.

    Bucket ``k`` counts observations with upper bound ``2**k``
    (``2**(k-1) < v <= 2**k``); non-positive observations land in the
    dedicated ``0`` bucket. Exponential buckets match the quantities the
    model bounds — contention and budgets are stated up to constants, so
    doubling resolution is the natural granularity.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.buckets: dict[int | str, int] = {}

    @staticmethod
    def _bucket(value: float) -> int | str:
        if value <= 0:
            return "0"
        # frexp: value = m * 2**e with 0.5 <= m < 1, so 2**(e-1) < v <= 2**e
        # for all v except exact powers of two, which land on their own
        # exponent — good enough for a diagnostic histogram.
        return math.frexp(value)[1]

    def observe(self, value: int | float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        key = self._bucket(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def observe_many(self, values: Iterable[int | float] | np.ndarray) -> None:
        """Vectorized :meth:`observe` for array-sized batch attributes."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.total += float(arr.sum())
        lo, hi = float(arr.min()), float(arr.max())
        if self.vmin is None or lo < self.vmin:
            self.vmin = lo
        if self.vmax is None or hi > self.vmax:
            self.vmax = hi
        positive = arr > 0
        zeros = int(arr.size - positive.sum())
        if zeros:
            self.buckets["0"] = self.buckets.get("0", 0) + zeros
        if positive.any():
            exps = np.frexp(arr[positive])[1]
            for exp, n in zip(*np.unique(exps, return_counts=True)):
                key = int(exp)
                self.buckets[key] = self.buckets.get(key, 0) + int(n)

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Bucket-resolution coarse by construction: the rank is located in
        its base-2 bucket and interpolated linearly within ``(2**(k-1),
        2**k]``, then clamped to the observed ``[min, max]`` — so the
        estimate is within a factor of 2 of the true value, which is the
        same up-to-constants granularity as the rest of the histogram.
        Serving latency percentiles (p50/p95/p99 in :mod:`repro.serve`)
        are sourced from here. Returns None when empty.
        """
        if self.count == 0 or self.vmin is None or self.vmax is None:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        rank = q * self.count
        ordered = sorted(
            self.buckets.items(),
            key=lambda kv: -1 if kv[0] == "0" else int(kv[0]),
        )
        seen = 0
        for key, n in ordered:
            seen += n
            if seen >= rank:
                if key == "0":
                    return max(0.0, self.vmin)
                hi = float(2 ** int(key))
                lo = hi / 2.0
                frac = 1.0 - (seen - rank) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.vmin), self.vmax)
        return self.vmax

    def snapshot(self) -> dict[str, Any]:
        def upper(key: int | str) -> str:
            return "0" if key == "0" else str(2 ** int(key))

        ordered = sorted(
            self.buckets.items(),
            key=lambda kv: -1 if kv[0] == "0" else int(kv[0]),
        )
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "buckets": {upper(k): n for k, n in ordered},
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled registries."""

    __slots__ = ()

    #: read-only stand-in for Counter.value / Gauge.value
    value = 0

    def inc(self, amount: int | float = 1) -> None: ...

    def set(self, value: int | float) -> None: ...

    def set_max(self, value: int | float) -> None: ...

    def observe(self, value: int | float) -> None: ...

    def observe_many(self, values: Any) -> None: ...

    def snapshot(self) -> None:
        return None


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments with one-call snapshot/export.

    Args:
        enabled: when False, :meth:`counter` / :meth:`gauge` /
            :meth:`histogram` return a shared null instrument and the
            registry records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter | _NullInstrument:
        if not self.enabled:
            return _NULL
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge | _NullInstrument:
        if not self.enabled:
            return _NULL
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram | _NullInstrument:
        if not self.enabled:
            return _NULL
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def snapshot(self) -> dict[str, Any]:
        """All instruments as a JSON-serializable dict."""
        return {
            "counters": {n: c.snapshot() for n, c in
                         sorted(self._counters.items())},
            "gauges": {n: g.snapshot() for n, g in
                       sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in
                           sorted(self._histograms.items())},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


class MetricsObserver(RuntimeObserver):
    """Aggregates a run's model costs into a :class:`MetricsRegistry`.

    Counters (after :meth:`finalize`):
        ``model.reads`` / ``model.writes`` — ledger totals, bit-identical
        to ``RunReport.total_reads`` / ``total_writes`` of the watched
        runtimes; ``model.rounds`` / ``model.adaptive_rounds``;
        ``model.budget_violations``; ``recovery.*`` (crashes, retry /
        failover / wasted reads, checkpoint restores, worker respawns);
        ``ops.batch_read_ops`` / ``ops.batch_read_elems`` (and write
        counterparts) counted live, one event per array operation;
        ``ops.scalar_reads`` / ``ops.scalar_writes`` — derived
        ledger-total minus batch elements (the batch-vs-scalar split).

    Gauges: ``model.max_server_load``, ``model.max_machine_reads``.

    Histograms: ``round.wall_s`` (latency), ``round.reads`` /
    ``round.writes`` (per-round communication), ``recovery.latency_s``
    (per-round ``recovery_wall_s`` — only rounds with nonzero recovery
    work are observed), ``server.contention``
    (per-server read loads of every round store, Lemma 2.1's quantity —
    recorded live at round end).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._runtimes: list[Any] = []
        self._finalized = False

    # -- live hooks --------------------------------------------------------

    def on_runtime_created(self, runtime: Any) -> None:
        self._runtimes.append(runtime)

    def on_round_end(self, runtime: Any, stats: Any, contexts: list[Any],
                     read_store: Any, next_store: Any) -> None:
        loads = getattr(read_store, "server_read_loads", None)
        if loads is not None and getattr(loads, "size", 0):
            self.registry.histogram("server.contention").observe_many(loads)

    def on_machine_read_batch(self, ctx: Any, namespace: str,
                              ids: np.ndarray) -> None:
        self.registry.counter("ops.batch_read_ops").inc()
        self.registry.counter("ops.batch_read_elems").inc(int(ids.size))

    def on_machine_write_batch(self, ctx: Any, namespace: str,
                               ids: np.ndarray) -> None:
        self.registry.counter("ops.batch_write_ops").inc()
        self.registry.counter("ops.batch_write_elems").inc(int(ids.size))

    # -- finalization ------------------------------------------------------

    def finalize(self) -> dict[str, Any]:
        """Fold the watched runtimes' ledgers into the registry.

        Aggregating from ``report.rounds`` (not from per-op events) makes
        the totals agree with the cost ledger by construction — including
        setup and publication writes, analytically-charged primitives,
        and chaos replays (aborted rounds are already truncated from the
        ledger, recovery charges already flushed in). Idempotent; returns
        the snapshot.
        """
        if self._finalized:
            return self.registry.snapshot()
        self._finalized = True
        reg = self.registry
        reads = reg.counter("model.reads")
        writes = reg.counter("model.writes")
        rounds = reg.counter("model.rounds")
        adaptive = reg.counter("model.adaptive_rounds")
        violations = reg.counter("model.budget_violations")
        wall = reg.histogram("round.wall_s")
        round_reads = reg.histogram("round.reads")
        round_writes = reg.histogram("round.writes")
        max_load = reg.gauge("model.max_server_load")
        max_reads = reg.gauge("model.max_machine_reads")
        seen_reports: set[int] = set()
        for runtime in self._runtimes:
            report = getattr(runtime, "report", None)
            if report is None or id(report) in seen_reports:
                continue
            seen_reports.add(id(report))
            for stats in report.rounds:
                reads.inc(stats.total_reads)
                writes.inc(stats.total_writes)
                rounds.inc(stats.rounds)
                if stats.kind == "adaptive":
                    adaptive.inc(stats.rounds)
                violations.inc(stats.budget_violations)
                wall.observe(stats.wall_time_s)
                round_reads.observe(stats.total_reads)
                round_writes.observe(stats.total_writes)
                max_load.set_max(stats.max_server_load)
                max_reads.set_max(stats.max_machine_reads)
                for field in ("crashes", "server_outages", "stragglers",
                              "retry_reads", "failover_reads",
                              "wasted_reads", "checkpoint_restores",
                              "worker_respawns"):
                    value = getattr(stats, field, 0)
                    if value:
                        reg.counter(f"recovery.{field}").inc(value)
                recovery_wall = getattr(stats, "recovery_wall_s", 0.0)
                if recovery_wall:
                    reg.histogram("recovery.latency_s").observe(recovery_wall)
        # Batch-vs-scalar split: every batch element is charged exactly
        # like one scalar op, so scalar = ledger total − batch elements.
        # Batch counters are live observations and may include replayed
        # (chaos-aborted) work the ledger truncated; clamp at zero.
        batch_r = reg.counter("ops.batch_read_elems").value
        batch_w = reg.counter("ops.batch_write_elems").value
        reg.counter("ops.scalar_reads").inc(max(0, reads.value - batch_r))
        reg.counter("ops.scalar_writes").inc(max(0, writes.value - batch_w))
        return reg.snapshot()

    def snapshot(self) -> dict[str, Any]:
        """Finalize (if needed) and return the registry snapshot."""
        return self.finalize()
