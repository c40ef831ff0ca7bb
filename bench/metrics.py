"""Metric definitions, the probe table, and how spans become layer metrics.

``END_TO_END`` and ``PER_LAYER`` are the single source of truth for metric
names, units and directions; ``BENCHMARK.json`` repeats them and
``run.py --selftest`` fails if the two disagree.

Probe names are ``"<group>/<callable>"``. A *group* is the metric base the
callable's time is booked to (``core.dds.read``, ``algorithms.driver``, ...);
a *layer* is a set of groups (one per ``repro`` subpackage / core module).
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
import types
from typing import Any

import numpy as np

from spans import FOLD, SPAN

# (name, unit, better, bound) -- what a user of the simulator / engine pays.
# An *operation* is what a caller waits for: one served request on serve-*,
# one complete file-to-answer run on the batch workloads. There the timed
# repeats are the only latency samples, so qps and p50_ms restate wall_s in
# their units. Bounds are wide because the build host's own speed drifts by
# 10-20% for minutes at a time (README, "Spread").
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
]

_S, _N, _MS = ("s", "lower"), ("count", "lower"), ("ms", "lower")
PER_LAYER = [
    ("graph.files.parse_s", *_S),
    ("graph.files.cache_load_s", *_S),
    ("graph.files.edges", *_N),
    ("graph.csr.build_s", *_S),
    ("graph.csr.open_s", *_S),
    ("graph.csr.bytes_written", "bytes", "lower"),
    ("graph.io.encode_s", *_S),
    ("core.partition.hash_s", *_S),
    ("core.partition.hash_calls", *_N),
    ("core.partition.hash_elems", *_N),
    ("core.dds.read_s", *_S),
    ("core.dds.read_calls", *_N),
    ("core.dds.read_elems", *_N),
    ("core.dds.write_s", *_S),
    ("core.dds.write_calls", *_N),
    ("core.dds.write_elems", *_N),
    ("core.dds.harvest_s", *_S),
    ("core.dds.seal_s", *_S),
    ("core.machine.charge_s", *_S),
    ("core.machine.charge_calls", *_N),
    ("core.runtime.round_s", *_S),
    ("core.runtime.rounds", *_N),
    ("core.runtime.publish_s", *_S),
    ("core.runtime.checkpoint_s", *_S),
    ("core.runtime.rollback_s", *_S),
    ("core.cost.rounds", *_N),
    ("core.cost.reads", *_N),
    ("core.cost.writes", *_N),
    ("core.cost.max_machine_reads", *_N),
    ("core.cost.max_server_load", *_N),
    ("core.cost.budget_violations", *_N),
    ("core.cost.ledger_digest", "hash48", "lower"),
    ("primitives.self_s", *_S),
    ("primitives.calls", *_N),
    ("algorithms.worker_s", *_S),
    ("algorithms.worker_calls", *_N),
    ("algorithms.driver_s", *_S),
    ("parallel.round_s", *_S),
    ("parallel.export_s", *_S),
    ("parallel.dispatch_wait_s", *_S),
    ("parallel.merge_s", *_S),
    ("parallel.rounds_sharded", "count", "higher"),
    ("parallel.fallbacks", *_N),
    ("parallel.task_retries", *_N),
    ("parallel.worker_respawns", *_N),
    ("serve.qps", "1/s", "higher"),
    ("serve.sent", *_N),
    ("serve.completed", "count", "higher"),
    ("serve.rejected", *_N),
    ("serve.reconcile_problems", *_N),
    ("serve.ticks", *_N),
    ("serve.batch_mean", "count", "higher"),
    ("serve.tick_ms_p50", *_MS),
    ("serve.max_stall_ms", *_MS),
    ("serve.queue_wait_ms_p50", *_MS),
    ("serve.queue_wait_ms_p95", *_MS),
    ("serve.p95_ms", *_MS),
    ("serve.p99_ms", *_MS),
    ("serve.execute_self_s", *_S),
    ("serve.scheduler_self_s", *_S),
    ("serve.loop_overhead_s", *_S),
    ("serve.reads_per_request", *_N),
    ("serve.query_calls_per_request", *_N),
    ("trace.wall_s", *_S),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_s", *_S),
    ("trace.spans", *_N),
    ("trace.probes_missing", *_N),
]

# Layer -> the groups whose self time it owns (README share table).
LAYERS = {
    "graph": ["graph.files.parse", "graph.files.cache_load", "graph.csr.build",
              "graph.csr.open", "graph.io.encode"],
    "core.partition": ["core.partition.hash"],
    "core.dds": ["core.dds.read", "core.dds.write", "core.dds.harvest",
                 "core.dds.seal"],
    "core.machine": ["core.machine.charge"],
    "core.runtime": ["core.runtime.round", "core.runtime.publish",
                     "core.runtime.checkpoint", "core.runtime.rollback"],
    "primitives": ["primitives"],
    "algorithms": ["algorithms.worker", "algorithms.driver"],
    "parallel": ["parallel.round", "parallel.export", "parallel.dispatch_wait"],
    "serve": ["serve.execute", "serve.scheduler", "serve.loadgen"],
    "unattributed": ["bench"],
}

ROOT = "bench/repeat"
STEP = "serve.scheduler/RequestScheduler.step"


# -- probe table -----------------------------------------------------------


def _length(position: int, keyword: str):
    def elems(args, kwargs):
        value = args[position] if len(args) > position else kwargs[keyword]
        return len(value)
    return elems


def _parts_length(position: int):
    """Key count of a column-decomposed key batch (``[namespace, ids, ...]``)."""
    def elems(args, kwargs):
        for part in args[position]:
            if isinstance(part, np.ndarray):
                return part.size
        return 0
    return elems


def _probe(module: str, qualname: str, group: str, kind: Any, elems=None):
    return (f"repro.{module}", qualname, f"{group}/{qualname}", kind, elems)


_WORKER = ("worker", "algorithms.worker/program")

_STATIC = [
    _probe("graph.files", "build_edge_cache", "graph.files.parse", SPAN),
    _probe("graph.files", "read_edge_list", "graph.files.parse", SPAN),
    _probe("graph.files", "load_edge_cache", "graph.files.cache_load", SPAN),
    _probe("graph.files", "cache_valid", "graph.files.cache_load", SPAN),
    _probe("graph.csr", "build_csr", "graph.csr.build", SPAN),
    _probe("graph.csr", "MmapGraph.load", "graph.csr.open", SPAN),
    *[_probe("graph.io", fn, "graph.io.encode", SPAN) for fn in (
        "encode_graph", "encode_graph_arrays", "encode_weighted_graph",
        "encode_weighted_graph_flat", "encode_weighted_graph_arrays",
        "encode_cycle_pointers", "encode_list_pointers", "encode_table",
        "encode_flags")],
    # Placement hashing. Elements are counted at the outermost call only
    # (server_of_array calls key_hash_array calls splitmix64_array).
    _probe("core.partition", "server_of", "core.partition.hash", FOLD, 1),
    _probe("core.partition", "machine_of", "core.partition.hash", FOLD, 1),
    _probe("core.partition", "partition_items", "core.partition.hash", FOLD,
           _length(0, "items")),
    _probe("core.partition", "server_of_array", "core.partition.hash", FOLD,
           _parts_length(0)),
    _probe("core.partition", "key_hash_array", "core.partition.hash", FOLD),
    _probe("core.partition", "splitmix64_array", "core.partition.hash", FOLD),
    *[_probe("core.dds", f"DistributedDataStore.{method}", group, FOLD, elems)
      for method, group, elems in (
        ("read_array", "core.dds.read", _length(2, "ids")),
        ("serve_reads_array", "core.dds.read", _parts_length(1)),
        ("get", "core.dds.read", 1),
        ("get_indexed", "core.dds.read", 1),
        ("write_array", "core.dds.write", _length(2, "ids")),
        ("write", "core.dds.write", 1),
        ("write_many", "core.dds.write", None),
        ("read_namespace", "core.dds.harvest", None),
        ("seal", "core.dds.seal", None),
        ("reset_read_load", "core.runtime.rollback", None))],
    # Budget charging: these methods' self time (their DDS call is a child).
    *[_probe("core.machine", f"MachineContext.{method}",
             "core.machine.charge", FOLD)
      for method in ("read", "read_indexed", "read_array", "charge_read_array",
                     "write_array", "write")],
    *[_probe("core.runtime", f"BatchRoundContext.{method}",
             "core.machine.charge", FOLD)
      for method in ("read_array", "write_array", "charge_publications")],
    *[_probe("core.runtime", f"AMPCRuntime.{method}", group, kind)
      for method, group, kind in (
        ("round", "core.runtime.round", _WORKER),
        ("round_batch", "core.runtime.round", _WORKER),
        ("query_round", "core.runtime.round", FOLD),
        ("charge", "core.runtime.round", FOLD),
        ("charge_stats", "core.runtime.round", FOLD),
        ("bootstrap", "core.runtime.round", FOLD),
        ("publish_state", "core.runtime.publish", SPAN),
        ("checkpoint", "core.runtime.checkpoint", FOLD),
        ("restore", "core.runtime.rollback", FOLD))],
    *[_probe("parallel.backend", fn, "parallel.round", SPAN) for fn in (
        "run_scalar_round", "run_block_round", "run_fused_round")],
    _probe("parallel.shm", "export_store", "parallel.export", SPAN),
    _probe("parallel.pool", "WorkerPool.run_tasks", "parallel.dispatch_wait",
           SPAN),
    _probe("serve.engine", "ServingEngine.execute", "serve.execute", FOLD),
    _probe("serve.engine", "ServingEngine.reconcile", "serve.loadgen", SPAN),
    _probe("serve.scheduler", "RequestScheduler.submit", "serve.scheduler",
           FOLD),
    _probe("serve.scheduler", "RequestScheduler.step", "serve.scheduler", SPAN),
    _probe("serve.loadgen", "run_loadgen", "serve.loadgen", SPAN),
]


def probe_targets() -> list[tuple]:
    """``Tracer.install`` targets: the static table plus every public
    function of ``repro.primitives`` and of each ``repro.algorithms`` module
    (entry points and reference helpers alike), found by import so a new
    algorithm is probed without editing this file."""
    targets = list(_STATIC)
    primitives = importlib.import_module("repro.primitives")
    for name in primitives.__all__:
        fn = getattr(primitives, name)
        if isinstance(fn, types.FunctionType):
            targets.append((fn.__module__, fn.__name__,
                            f"primitives/{fn.__name__}", SPAN, None))
    algorithms = importlib.import_module("repro.algorithms")
    for info in pkgutil.iter_modules(algorithms.__path__):
        module = importlib.import_module(f"repro.algorithms.{info.name}")
        for name, fn in vars(module).items():
            if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                targets.append((module.__name__, name,
                                f"algorithms.driver/{name}", SPAN, None))
    return targets


# -- spans -> metrics ------------------------------------------------------


def group_totals(aggregate: dict[str, dict[str, int]]) -> dict[str, dict]:
    """Fold per-probe rows into per-group ``{self_s, total_s, calls, elems}``."""
    groups: dict[str, dict[str, float]] = {}
    for name, row in aggregate.items():
        group = name.split("/", 1)[0]
        g = groups.setdefault(
            group, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "elems": 0}
        )
        g["self_s"] += row["self_ns"] / 1e9
        g["total_s"] += row["total_ns"] / 1e9
        g["calls"] += row["calls"]
        g["elems"] += row["elems"]
    return groups


def layer_shares(groups: dict[str, dict]) -> dict[str, float]:
    """Share of the traced wall spent in each layer's own code."""
    wall = groups[ROOT.split("/")[0]]["total_s"]
    return {
        layer: sum(groups.get(g, {}).get("self_s", 0.0) for g in members) / wall
        for layer, members in LAYERS.items()
    }


def traced_metrics(
    tracer: Any, root_id: int
) -> tuple[dict[str, float], dict[str, float], list[float]]:
    """``(span-derived per-layer metrics, layer shares, per-tick ms)`` for
    everything recorded under one root span."""
    aggregate = tracer.aggregate(root_id)
    groups = group_totals(aggregate)

    def g(group: str, field: str = "self_s") -> float:
        return groups.get(group, {}).get(field, 0)

    rounds = sum(
        row["calls"] for name, row in aggregate.items()
        if name in ("core.runtime.round/AMPCRuntime.round",
                    "core.runtime.round/AMPCRuntime.round_batch")
    )
    out = {
        "graph.files.parse_s": g("graph.files.parse"),
        "graph.files.cache_load_s": g("graph.files.cache_load"),
        "graph.csr.build_s": g("graph.csr.build"),
        "graph.csr.open_s": g("graph.csr.open"),
        "graph.io.encode_s": g("graph.io.encode"),
        "core.partition.hash_s": g("core.partition.hash"),
        "core.partition.hash_calls": g("core.partition.hash", "calls"),
        "core.partition.hash_elems": g("core.partition.hash", "elems"),
        "core.dds.read_s": g("core.dds.read"),
        "core.dds.read_calls": g("core.dds.read", "calls"),
        "core.dds.read_elems": g("core.dds.read", "elems"),
        "core.dds.write_s": g("core.dds.write"),
        "core.dds.write_calls": g("core.dds.write", "calls"),
        "core.dds.write_elems": g("core.dds.write", "elems"),
        "core.dds.harvest_s": g("core.dds.harvest"),
        "core.dds.seal_s": g("core.dds.seal"),
        "core.machine.charge_s": g("core.machine.charge"),
        "core.machine.charge_calls": g("core.machine.charge", "calls"),
        "core.runtime.round_s": g("core.runtime.round"),
        "core.runtime.rounds": rounds,
        # Inclusive: publishing *is* its DDS writes and their placement.
        "core.runtime.publish_s": g("core.runtime.publish", "total_s"),
        "core.runtime.checkpoint_s": g("core.runtime.checkpoint"),
        "core.runtime.rollback_s": g("core.runtime.rollback"),
        "primitives.self_s": g("primitives"),
        "primitives.calls": g("primitives", "calls"),
        "algorithms.worker_s": g("algorithms.worker"),
        "algorithms.worker_calls": g("algorithms.worker", "calls"),
        "algorithms.driver_s": g("algorithms.driver"),
        # Inclusive times: a sharded round = export + waiting on workers +
        # the rest (payload build, journal replay), which is the merge.
        "parallel.round_s": g("parallel.round", "total_s"),
        "parallel.export_s": g("parallel.export", "total_s"),
        "parallel.dispatch_wait_s": g("parallel.dispatch_wait", "total_s"),
        "parallel.merge_s": g("parallel.round", "total_s")
        - g("parallel.export", "total_s")
        - g("parallel.dispatch_wait", "total_s"),
        "parallel.rounds_sharded": g("parallel.round", "calls"),
        "serve.execute_self_s": g("serve.execute"),
        "serve.scheduler_self_s": g("serve.scheduler"),
        "trace.wall_s": g("bench", "total_s"),
        "trace.unattributed_s": g("bench"),
    }
    ticks_ms = [d / 1e6 for d in tracer.durations_ns(STEP, root_id)]
    if ticks_ms:
        out["serve.tick_ms_p50"] = statistics.median(ticks_ms)
        out["serve.max_stall_ms"] = max(ticks_ms)
    return out, layer_shares(groups), ticks_ms
