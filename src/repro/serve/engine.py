"""The resident serving engine: build + seal once, answer queries forever.

The build phase runs the batch algorithms once — LFMIS priorities π
(the same salt :func:`repro.algorithms.mis.maximal_independent_set`
uses), :func:`repro.algorithms.connectivity.connectivity` labels, and a
:func:`repro.algorithms.tree_ops.root_forest` over the spanning forest —
and publishes the results as sealed columnar state via
:meth:`repro.core.runtime.AMPCRuntime.publish_state`:

* ``("deg", v) -> (degree, base)`` and ``("nb", pos) -> (u, π_u)`` —
  the π-sorted flat adjacency the §5 query process walks (identical
  key layout to :mod:`repro.algorithms.mis`).
* ``("comp", v) -> label`` — component labels for ``component_of`` /
  ``same_component`` lookups.
* ``("sub", v) -> (subtree_size, root)`` — subtree aggregates from the
  rooted spanning forest.

The serve phase answers :class:`ServeRequest` batches ("ticks"): each
tick is one adaptive round executed through
:meth:`~repro.core.runtime.AMPCRuntime.query_round`, so it pays model
costs like any round — per-machine read budgets, per-server contention,
a :class:`~repro.core.cost.RoundStats` ledger row — and then rolls the
runtime back to the resident checkpoint. Per-request read deltas are
measured inside the worker (items on a machine run sequentially), which
is what makes the per-request ledgers reconcile exactly against the
tick rows and the :mod:`repro.observe` counters (see
:meth:`ServingEngine.reconcile`).

MIS membership is answered by the *uncapped* §5 query process
(Theorem 2), :func:`repro.algorithms.greedy.truncated_query` over
``ctx.read`` of the sealed rows: with capacity ≥ n + 1 the truncated
query never truncates, so the answer equals the greedy LFMIS over π
exactly.

Scheduling/admission lives in :mod:`repro.serve.scheduler`; synthetic
traffic in :mod:`repro.serve.workload`; the benchmark driver in
:mod:`repro.serve.loadgen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.algorithms.connectivity import connectivity
from repro.algorithms.greedy import (IN, UNKNOWN, Calls, CsrStream, MisRule,
                                     query_capacity, truncated_query)
from repro.algorithms.mis import _pi_sorted_csr
from repro.algorithms.msf import spanning_forest
from repro.algorithms.tree_ops import root_forest
from repro.core.config import AMPCConfig
from repro.core.cost import RunReport, merge_reports
from repro.core.runtime import AMPCRuntime
from repro.graph.graph import Graph
from repro.observe.metrics import MetricsRegistry
from repro.primitives.sampling import random_priorities

#: Request kinds the engine serves. ``mis_member`` runs the §5 adaptive
#: query process; the others are sealed-state point reads.
REQUEST_KINDS = ("mis_member", "component_of", "same_component", "subtree_size")


@dataclass(frozen=True)
class ServeRequest:
    """One serving request.

    Attributes:
        kind: one of :data:`REQUEST_KINDS`.
        key: the vertex queried.
        key2: second vertex, for ``same_component``; -1 otherwise.
    """

    kind: str
    key: int
    key2: int = -1


@dataclass
class ServeResponse:
    """Answer + per-request cost ledger for one request.

    ``reads`` is the request's exact charged adaptive-read count (the
    delta of its machine's budget counter around the item; shared keys
    already cached on the machine cost the request nothing, mirroring
    model assumption 4). ``writes`` is the result-publication write.
    ``query_calls`` counts §5 recursive calls (``mis_member`` only).
    ``latency_s`` is stamped by the scheduler, not the engine.
    """

    request: ServeRequest
    value: Any
    reads: int
    writes: int
    query_calls: int
    tick: int
    latency_s: float | None = None


class ServingEngine:
    """Long-lived engine: sealed resident state + the query loop.

    Args:
        graph: the graph to serve.
        epsilon: space exponent ε (when ``config`` is None).
        seed: reproducibility seed — fixes π, machine placement, and
            therefore every answer and every ledger entry.
        config: explicit deployment.
        query_cap: §5 per-request call capacity. Default ``n + 1`` =
            uncapped (exact membership); lower values trade exactness
            for bounded per-request cost and may answer ``None``; below
            1 raises ValueError.
        metrics: a :class:`~repro.observe.metrics.MetricsRegistry` to
            instrument (default: a fresh enabled registry).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        epsilon: float = 0.5,
        seed: int = 0,
        config: AMPCConfig | None = None,
        query_cap: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.graph = graph
        n = graph.n
        if config is None:
            config = AMPCConfig.for_input(
                max(n + graph.m, 1), epsilon=epsilon, seed=seed
            )
        self.query_cap = query_capacity(
            n + 1 if query_cap is None else query_cap, n, config.epsilon
        )
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        # -- build phase: batch algorithms, merged into one build ledger --
        conn = connectivity(graph, config=config)
        forest_edges, msf_result = spanning_forest(graph, config=config)
        forest = Graph.from_edges(n, forest_edges)
        rooted = root_forest(
            forest, epsilon=config.epsilon, seed=config.seed
        )
        self.pi = random_priorities(n, config.rng(salt=0x315))
        indptr, indices = _pi_sorted_csr(graph, self.pi)
        self.labels = conn.labels
        self.n_components = conn.n_components
        self.subtree_size = rooted.subtree_size
        self.root_of = rooted.root_of
        self.forest = forest
        self.build_report = merge_reports(
            [conn.report, msf_result.report, rooted.report]
        )

        # -- seal phase: publish the columns, pin the resident checkpoint --
        # Built directly, not by the runtime factory: sharding a tick's
        # batch over worker processes lost on every measured workload.
        self.runtime = AMPCRuntime(config)
        vs = np.arange(n, dtype=np.int64)
        deg = np.diff(indptr).astype(np.int64)
        base = indptr[:-1].astype(np.int64) if n else np.zeros(0, np.int64)
        pos = np.arange(indices.size, dtype=np.int64)
        arrays = [
            ("deg", vs, np.stack([deg, base], axis=1)),
            ("nb", pos, np.stack([indices, self.pi[indices]], axis=1)),
            ("comp", vs, self.labels.astype(np.int64)),
            ("sub", vs, np.stack([self.subtree_size, self.root_of], axis=1)),
        ]
        self.resident = self.runtime.publish_state(arrays=arrays,
                                                   tag="serve:seal")
        self.serve_report = RunReport()
        self._tick = 0
        self._responses_total = 0
        self._reads_total = 0
        self._writes_total = 0

    # -- request construction helpers -----------------------------------

    def validate(self, request: ServeRequest) -> None:
        """Raise ValueError on a malformed request."""
        if request.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {request.kind!r}")
        n = self.graph.n
        if not 0 <= request.key < n:
            raise ValueError(f"request key {request.key} not in [0, {n})")
        if request.kind == "same_component" and not 0 <= request.key2 < n:
            raise ValueError(f"request key2 {request.key2} not in [0, {n})")

    # -- the query loop --------------------------------------------------

    def execute(self, requests: Sequence[ServeRequest]) -> list[ServeResponse]:
        """Serve one tick: a batch of requests in one adaptive round.

        Requests are randomly partitioned over the machines by their key
        (hot keys contend on their machine and their DDS servers, which
        is the contention the ledger row records). Returns responses
        aligned with ``requests``; appends the tick's ledger row to
        :attr:`serve_report` and rolls the runtime back to the resident
        checkpoint, so ticks are mutually independent. A tick that
        raises is rolled back the same way and counts as never served:
        no ledger row, no tick number, no metrics.
        """
        reqs = list(requests)
        if not reqs:
            return []
        for req in reqs:
            self.validate(req)
        pi = self.pi
        cap = self.query_cap
        tick = self._tick

        def worker(ctx, idx):
            req = reqs[idx]
            before = ctx.reads_used
            calls = 0
            kind = req.kind
            if kind == "mis_member":
                settled = ctx.scratch.setdefault("settled", {})
                counter = Calls()
                status = truncated_query(
                    req.key, cap, settled, CsrStream(ctx.read, pi), MisRule,
                    counter,
                )
                value = None if status == UNKNOWN else status == IN
                calls = counter.value
            elif kind == "component_of":
                value = int(ctx.read(("comp", req.key)))
            elif kind == "same_component":
                value = bool(
                    ctx.read(("comp", req.key)) == ctx.read(("comp", req.key2))
                )
            else:  # subtree_size
                size, _root = ctx.read(("sub", req.key))
                value = int(size)
            return (value, ctx.reads_used - before, calls)

        result, rows = self.runtime.query_round(
            list(range(len(reqs))),
            worker,
            resident=self.resident,
            tag=f"serve:tick{tick}",
            item_key=lambda i: ("req", reqs[i].key),
        )
        self._tick += 1
        for row in rows:
            row.index = len(self.serve_report.rounds)
            self.serve_report.add(row)

        requests_c = self.metrics.counter("serve.requests")
        reads_c = self.metrics.counter("serve.reads")
        writes_c = self.metrics.counter("serve.writes")
        calls_c = self.metrics.counter("serve.query_calls")
        ticks_c = self.metrics.counter("serve.ticks")
        batch_h = self.metrics.histogram("serve.batch_size")
        ticks_c.inc()
        batch_h.observe(len(reqs))
        responses = []
        for req, out in zip(reqs, result.results):
            value, reads, calls = out
            responses.append(ServeResponse(
                request=req, value=value, reads=reads, writes=1,
                query_calls=calls, tick=tick,
            ))
            requests_c.inc()
            reads_c.inc(reads)
            writes_c.inc(1)
            calls_c.inc(calls)
            self._responses_total += 1
            self._reads_total += reads
            self._writes_total += 1
        return responses

    def execute_one(self, request: ServeRequest) -> ServeResponse:
        """Serve a single request as its own tick."""
        return self.execute([request])[0]

    # -- ledger reconciliation -------------------------------------------

    def reconcile(self) -> list[str]:
        """Cross-check the three cost accounts; return discrepancies.

        The per-request ledgers (response read/write deltas), the round
        ledger (:attr:`serve_report` row totals), and the observe
        counters (``serve.reads`` / ``serve.writes``) are three routes
        to the same quantities and must agree exactly. An empty list
        means they do.
        """
        problems: list[str] = []
        ledger_reads = self.serve_report.total_reads
        ledger_writes = self.serve_report.total_writes
        if self._reads_total != ledger_reads:
            problems.append(
                f"per-request reads {self._reads_total} != "
                f"serve_report reads {ledger_reads}"
            )
        if self._writes_total != ledger_writes:
            problems.append(
                f"per-request writes {self._writes_total} != "
                f"serve_report writes {ledger_writes}"
            )
        if self.metrics.enabled:
            snap = self.metrics.snapshot()["counters"]
            if snap.get("serve.reads", 0) != ledger_reads:
                problems.append(
                    f"metrics serve.reads {snap.get('serve.reads', 0)} != "
                    f"serve_report reads {ledger_reads}"
                )
            if snap.get("serve.writes", 0) != ledger_writes:
                problems.append(
                    f"metrics serve.writes {snap.get('serve.writes', 0)} != "
                    f"serve_report writes {ledger_writes}"
                )
            if snap.get("serve.requests", 0) != self._responses_total:
                problems.append(
                    f"metrics serve.requests {snap.get('serve.requests', 0)}"
                    f" != responses {self._responses_total}"
                )
        return problems

    # -- introspection ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices served."""
        return self.graph.n

    @property
    def ticks(self) -> int:
        """Query rounds executed so far."""
        return self._tick

    def summary(self) -> dict[str, Any]:
        """Build + serve totals as a JSON-serializable dict."""
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "n_components": int(self.n_components),
            "query_cap": self.query_cap,
            "build_rounds": self.build_report.n_rounds,
            "ticks": self._tick,
            "requests": self._responses_total,
            "reads": int(self._reads_total),
            "writes": int(self._writes_total),
        }
