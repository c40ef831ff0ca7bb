"""Declarative bench-suite registry: the cells ``repro perf pairs`` times.

A **suite** is a named list of :class:`BenchSpec` cells. Each spec builds
its workload once in ``setup()`` (generation cost never contaminates the
samples) and returns the thunk that is timed.

Fast mode: ``REPRO_BENCH_QUICK=1`` (the same switch ``repro bench
--quick`` and the benchmark conftest honor) or ``quick=True`` shrinks
every cell to its quick size, so CI smoke runs finish in seconds.
"""

from __future__ import annotations

import os
import platform
import subprocess
from dataclasses import dataclass
from typing import Any, Callable

#: Registered suites: name -> list of (bench, params, quick-params).
_SuiteEntry = tuple[str, dict[str, Any], dict[str, Any]]
SUITES: dict[str, list[_SuiteEntry]] = {
    # CI-sized: every cell is sub-second.
    "smoke": [
        ("connectivity", {"n": 240}, {"n": 96}),
        ("list_ranking", {"n": 400}, {"n": 128}),
        ("mis", {"n": 200}, {"n": 80}),
        ("msf", {"n": 300}, {"n": 100}),
        ("replay_items", {"n": 400}, {"n": 160}),
        ("dds_lookup", {"n": 20000}, {"n": 2000}),
        ("dds_get", {"n": 20000}, {"n": 2000}),
    ],
    # Serving-latency guard: a resident engine replays the standard
    # traffic patterns (repro.serve); the timed thunk is the query loop
    # only — the engine is built in setup, so a regression here is a
    # serving-path regression, not a build-phase one.
    "serve-smoke": [
        ("serve", {"n": 240, "requests": 120,
                   "workload": "poisson-uniform"},
         {"n": 96, "requests": 40}),
        ("serve", {"n": 240, "requests": 120,
                   "workload": "poisson-zipf"},
         {"n": 96, "requests": 40}),
        ("serve", {"n": 240, "requests": 120,
                   "workload": "bursty-hotspot"},
         {"n": 96, "requests": 40}),
    ],
    # Ingestion throughput guard (repro.graph.files/csr, ROADMAP item 4):
    # the timed thunks are the vectorized edge-list parse, the
    # external-memory CSR build, and the streaming RMAT generator — a
    # regression here is an ingestion-path regression (`bench/run.py
    # --workload ingest-text` measures absolute wall time + peak RSS).
    # `ingest_csr` fits one vertex block; `ingest_csr_rmat` is skewed
    # with a small chunk budget, so its build buckets keys into many
    # blocks and has hub rows over the budget.
    "ingest": [
        ("ingest_parse", {"n": 4000}, {"n": 256}),
        ("ingest_csr", {"n": 4000}, {"n": 256}),
        ("ingest_csr_rmat",
         {"scale": 12, "edge_factor": 8, "chunk_edges": 1024},
         {"scale": 7, "edge_factor": 4, "chunk_edges": 64}),
        ("ingest_rmat", {"scale": 13, "edge_factor": 8},
         {"scale": 7, "edge_factor": 4}),
    ],
    # The Figure-1 workloads at bench sizes (minutes, for real tracking).
    "full": [
        ("connectivity", {"n": 3000}, {"n": 240}),
        ("list_ranking", {"n": 20000}, {"n": 400}),
        ("mis", {"n": 2000}, {"n": 200}),
        ("msf", {"n": 1500}, {"n": 160}),
        ("replay_items", {"n": 4000}, {"n": 240}),
        ("dds_lookup", {"n": 1000000}, {"n": 20000}),
        ("dds_get", {"n": 1000000}, {"n": 20000}),
        # The greedy solves of ROADMAP item 3, kept out of `smoke` so that
        # its A/A check stays fast.
        ("matching", {"n": 4000}, {"n": 200}),
        ("coloring", {"n": 4000}, {"n": 200}),
        ("edge_coloring", {"n": 1000}, {"n": 100}),
    ],
}


@dataclass(frozen=True)
class BenchSpec:
    """One suite cell: a bench name, its parameters, and a setup hook.

    ``setup()`` builds the workload and returns the timed thunk; only
    the thunk is measured.
    """

    bench: str
    params: dict[str, Any]
    setup: Callable[[], Callable[[], Any]]

    @property
    def cell(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}"
                         for k in sorted(self.params))
        return f"{self.bench}[{inner}]"


def _setup(bench: str, params: dict[str, Any]) -> Callable[[], Any]:
    """Build the workload for one cell and return its run thunk."""
    import repro
    from repro.graph import generators

    n = int(params.get("n", 0))
    if bench == "connectivity":
        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        return lambda: repro.connectivity(graph, seed=1)
    if bench == "list_ranking":
        succ = generators.linked_list(n, rng=0)
        return lambda: repro.list_ranking(succ, seed=1)
    if bench == "mis":
        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        return lambda: repro.maximal_independent_set(graph, seed=1)
    if bench == "msf":
        graph = generators.with_random_weights(
            generators.erdos_renyi_gnm(n, 2 * n, 0), 7919
        )
        return lambda: repro.minimum_spanning_forest(graph, seed=1)
    if bench in ("matching", "coloring", "edge_coloring"):
        solve = {"matching": repro.maximal_matching,
                 "coloring": repro.greedy_coloring,
                 "edge_coloring": repro.greedy_edge_coloring}[bench]
        graph = generators.erdos_renyi_gnm(n, 3 * n, 0)
        return lambda: solve(graph, seed=1)
    if bench == "serve":
        from repro.serve import ServingEngine, run_loadgen, workload_config

        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        engine = ServingEngine(graph, seed=1)
        cfg = workload_config(params.get("workload", "poisson-uniform"),
                              n_requests=int(params.get("requests", 100)),
                              seed=1)
        return lambda: run_loadgen(engine, cfg)
    if bench == "ingest_parse":
        import tempfile

        from repro.graph import files

        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-ingest-")
        path = os.path.join(tmp.name, "edges.txt")
        files.write_edge_list(graph, path)
        # The closure keeps `tmp` alive; its finalizer cleans up at exit.
        return lambda tmp=tmp: files.read_edge_list(path)
    if bench == "ingest_csr":
        import tempfile

        from repro.graph import csr

        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        edges = graph.edges()
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-ingest-")
        out = os.path.join(tmp.name, "csr")
        return lambda tmp=tmp: csr.build_csr(edges, graph.n, out,
                                             chunk_edges=1 << 14)
    if bench == "ingest_csr_rmat":
        import tempfile

        import numpy as np

        from repro.graph import csr

        scale = int(params["scale"])
        edges = np.concatenate(list(generators.rmat_edge_chunks(
            scale, int(params["edge_factor"]), rng=1)))
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-ingest-")
        out = os.path.join(tmp.name, "csr")
        return lambda tmp=tmp: csr.build_csr(
            edges, 1 << scale, out, chunk_edges=int(params["chunk_edges"]),
            drop_self_loops=True)
    if bench == "ingest_rmat":
        from repro.graph import generators as gen

        scale = int(params["scale"])
        edge_factor = int(params.get("edge_factor", 8))

        def run_rmat():
            total = 0
            for chunk in gen.rmat_edge_chunks(scale, edge_factor, rng=1,
                                              chunk_edges=1 << 16):
                total += chunk.shape[0]
            return total

        return run_rmat
    if bench == "replay_items":
        # A process-backend solve, two workers: the parent-side merge is
        # the serial fraction of every sharded round. Matching's rounds
        # are per-item with scalar journal writes, so `replay_items`
        # gates the per-machine journal replay.
        from functools import partial

        from repro.core.runtime import AMPCRuntime, use_runtime

        graph = generators.erdos_renyi_gnm(n, 2 * n, 0)
        process = partial(AMPCRuntime, backend="process", n_workers=2)

        def run_process():
            with use_runtime(process):
                return repro.maximal_matching(graph, seed=1)

        return run_process
    if bench == "dds_lookup":
        # The DDS per-probe lookup constant, for both column index forms:
        # n shuffled ids as written are dense (position table), the same
        # ids scaled by 1009 are wide-span (sorted keys + binary search).
        # Timed: a fixed batch of block lookups plus a scalar lookup loop
        # on each column. The columns are probed directly, so read
        # routing (placement hashing, its own layer) stays out of the
        # sample.
        import numpy as np

        from repro.core.dds import DistributedDataStore

        rng = np.random.default_rng(0)
        ids = rng.permutation(n)
        store = DistributedDataStore(0, n_servers=8)
        store.write_array("dense", ids, ids + 1)
        store.write_array("wide", ids * 1009, ids + 1)
        store.seal()
        blocks = [rng.integers(-8, n + 8, size=min(n, 4096))
                  for _ in range(32)]
        work = [
            (store._columns[namespace, 2], [block * scale for block in blocks],
             [i * scale for i in blocks[0][:1000].tolist()])
            for namespace, scale in (("dense", 1), ("wide", 1009))
        ]

        def run_lookups():
            total = 0
            for column, probe_blocks, probe_ids in work:
                for block in probe_blocks:
                    total += int(column.lookup(block, 0)[0].sum())
                for id_ in probe_ids:
                    total += column.find(id_, None, 1)[1] or 0
            return total

        run_lookups()  # index build belongs to setup, not to the samples
        return run_lookups
    if bench == "dds_get":
        # The one scalar read path, placement included: store.get over
        # 1,000 keys each of two numeric columns of one sealed store, one
        # written by write_array and one by write_many, hits and misses
        # both.
        import numpy as np

        from repro.core.dds import DistributedDataStore

        rng = np.random.default_rng(0)
        ids = rng.permutation(n)
        store = DistributedDataStore(0, n_servers=8)
        store.write_array("array", ids, ids + 1)
        store.write_many((("scalar", i), i + 1) for i in ids.tolist())
        store.seal()
        keys = [
            (namespace, i)
            for namespace in ("array", "scalar")
            for i in rng.integers(-8, n + 8, size=1000).tolist()
        ]

        def run_gets():
            get = store.get
            return sum(get(key) or 0 for key in keys)

        run_gets()  # index build belongs to setup, not to the samples
        return run_gets
    raise ValueError(f"unknown bench {bench!r}")


def quick_mode(quick: bool | None = None) -> bool:
    """Resolve the fast-mode flag (explicit argument beats the env)."""
    if quick is not None:
        return quick
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def suite_specs(suite: str, *, quick: bool | None = None) -> list[BenchSpec]:
    """The resolved cells of a suite (quick mode swaps in tiny sizes)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"registered: {sorted(SUITES)}")
    use_quick = quick_mode(quick)
    specs = []
    for bench, params, quick_params in SUITES[suite]:
        resolved = {**params, **quick_params} if use_quick else dict(params)
        specs.append(BenchSpec(
            bench=bench, params=resolved,
            setup=lambda b=bench, p=resolved: _setup(b, p),
        ))
    return specs


# ---------------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_fingerprint() -> dict[str, Any]:
    """Where (and on what) a profile was measured."""
    return {
        "host_cores": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the observability overhead gate of `repro verify --smoke`
# ---------------------------------------------------------------------------


def observe_overhead_gate() -> dict[str, Any]:
    """Armed-observability overhead vs. the ``ARMED_BUDGET_PCT`` budget.

    The retry-tolerant gate of ``repro verify --smoke``: overhead is
    measured up to three times and passes if ANY attempt lands under the
    budget — a real regression fails every attempt, CI-host noise does
    not survive a retry. Shared CI hosts show double-digit-percent noise
    on sub-second runs; the gate is for catastrophic regressions (a
    consumer re-enabling per-op dispatch costs >20%), not for tuning.
    """
    from repro.observe.overhead import ARMED_BUDGET_PCT, overhead_trial

    allowed = ARMED_BUDGET_PCT
    attempts = 3
    for _ in range(attempts):
        # Sized so a base run takes about half a CPU second: below that
        # the per-machine spans of an armed run are a few percent of a
        # block program's work and host noise decides the gate.
        trial = overhead_trial(n=6000, repeats=3)
        if (trial["armed_overhead_pct"] <= allowed
                and trial["ledger_identical"]):
            break
    problems = []
    if not trial["ledger_identical"]:
        problems.append("traced run's ledger differs from unobserved")
    if trial["armed_overhead_pct"] > allowed:
        problems.append(
            f"armed overhead {trial['armed_overhead_pct']:.1f}% exceeds "
            f"gate {allowed:.1f}% in {attempts}/{attempts} attempts"
        )
    return {
        "ok": not problems,
        "allowed_pct": allowed,
        "armed_pct": trial["armed_overhead_pct"],
        "problems": problems,
    }
