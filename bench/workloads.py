"""The seven workloads: what each generates, runs, and how it is checked.

Every workload is split across two processes (see ``run.py``):

* the **parent** calls :meth:`Workload.generate` (seeded inputs written to
  files in the work directory) and, after the child has exited,
  :meth:`Workload.check` (answers against a sequential reference);
* the **child** calls :meth:`prepare` (load the files, build whatever is
  built once), then :meth:`before_repeat` / :meth:`run` / :meth:`answer`
  per repeat. Only :meth:`run` is timed.

So the generator's and the reference's memory never count towards the
child's peak RSS, and the program under test receives nothing but files.

Seed ``S`` drives every generator; algorithms run with ``seed = S + 1``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any

import numpy as np

DEFAULT_SEED = 1
CSR_CHUNK_EDGES = 1 << 20


# -- helpers ---------------------------------------------------------------


def edge_list_bytes(edges: np.ndarray) -> np.ndarray:
    """``"u v\\n"`` lines for an ``(m, 2)`` non-negative int array, as uint8.

    Digits are laid down one decimal place at a time across the whole
    chunk, so the cost is ~14 numpy passes instead of one Python format
    call per edge (``np.savetxt`` needs ~9 s for 4e6 edges).
    """
    if edges.shape[0] == 0:
        return np.zeros(0, np.uint8)
    u, v = edges[:, 0], edges[:, 1]
    pow10 = 10 ** np.arange(1, 19, dtype=np.int64)
    digits_u = np.searchsorted(pow10, u, side="right") + 1
    digits_v = np.searchsorted(pow10, v, side="right") + 1
    end = np.cumsum(digits_u + digits_v + 2)
    start = end - (digits_u + digits_v + 2)
    out = np.empty(int(end[-1]), np.uint8)
    out[start + digits_u] = 32
    out[end - 1] = 10
    for column, digits, last in (
        (u, digits_u, start + digits_u - 1),
        (v, digits_v, end - 2),
    ):
        rest = column.copy()
        for place in range(int(digits.max())):
            live = digits > place
            out[last[live] - place] = 48 + rest[live] % 10
            rest //= 10
    return out


def ledger_rows(report: Any) -> list[dict]:
    """A report's per-round records without host-time and recovery fields
    (both legitimately differ between identical runs)."""
    rows = []
    for row in report.to_dict()["rounds"]:
        row = dict(row)
        row.pop("recovery", None)
        row.pop("index", None)
        rows.append(row)
    return rows


def ledger_digest(rows: list[dict]) -> str:
    """sha256 over the model-cost rows; equal iff the ledgers are."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def model_counts(rows: list[dict]) -> dict[str, int]:
    """The paper's cost measures (§2) summed over ledger rows."""
    return {
        "rounds": sum(r["rounds"] for r in rows),
        "reads": sum(r["reads"] for r in rows),
        "writes": sum(r["writes"] for r in rows),
        "max_machine_reads": max((r["max_machine_reads"] for r in rows), default=0),
        "max_server_load": max((r["max_server_load"] for r in rows), default=0),
        "budget_violations": sum(r["budget_violations"] for r in rows),
    }


def arrays_hash(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def reference_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, de-duplicated, symmetric CSR of an edge array (numpy only)."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keys = np.unique(src * np.int64(n) + dst)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


class Workload:
    """What ``run.py`` (parent side) and ``child.py`` (child side) call."""

    name = ""
    why = ""
    kind = "batch"
    sizes: dict[str, Any] = {}
    tiny: dict[str, Any] = {}

    # parent side
    def generate(self, seed: int, sizes: dict, work: Path) -> dict:
        raise NotImplementedError

    def check(self, ref: dict, sizes: dict, seed: int, work: Path
              ) -> tuple[list[str], int]:
        """Problems found in the last repeat's answer, and how many of its
        operations they make wrong."""
        raise NotImplementedError

    # child side
    def prepare(self, work: Path, sizes: dict, seed: int) -> Any:
        raise NotImplementedError

    def before_repeat(self, state: Any) -> None:
        pass

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def answer(self, state: Any, out: Any, work: Path) -> dict:
        """Untimed: persist the answer under ``work`` and describe it.

        Must return ``{"hash", "rows", "ops"}`` (answer hash, ledger rows,
        operations attempted) plus workload-specific extras.
        """
        raise NotImplementedError


# -- ingest-text / cc-rmat -------------------------------------------------


class RmatText(Workload):
    """RMAT text edge list -> cold edge cache -> CSR build -> MmapGraph,
    optionally followed by vectorized connectivity on the mapped graph."""

    def __init__(self, name, why, solve, scale, tiny_scale):
        self.name, self.why, self.solve = name, why, solve
        self.sizes = {"scale": scale, "edge_factor": 8}
        self.tiny = {"scale": tiny_scale, "edge_factor": 8}

    def generate(self, seed, sizes, work):
        from repro.graph import generators

        n = 1 << sizes["scale"]
        kept = []
        with open(work / "graph.txt", "wb") as out:
            out.write(f"# nodes: {n}\n".encode())
            for chunk in generators.rmat_edge_chunks(
                sizes["scale"], sizes["edge_factor"], rng=seed,
                chunk_edges=CSR_CHUNK_EDGES,
            ):
                chunk = chunk[chunk[:, 0] != chunk[:, 1]]
                out.write(edge_list_bytes(chunk).tobytes())
                kept.append(chunk)
        return {"n": n, "edges": np.concatenate(kept)}

    def prepare(self, work, sizes, seed):
        return {"text": work / "graph.txt", "csr": work / "csr", "seed": seed}

    def before_repeat(self, state):
        from repro.graph import files

        for path in files.edge_cache_paths(state["text"]):
            path.unlink(missing_ok=True)
        shutil.rmtree(state["csr"], ignore_errors=True)

    def run(self, state):
        import repro
        from repro.graph import csr, files

        edges, n = files.load_edge_cache(state["text"])
        csr.build_csr(edges, n, state["csr"], chunk_edges=CSR_CHUNK_EDGES,
                      drop_self_loops=True)
        graph = csr.MmapGraph.load(state["csr"])
        if not self.solve:
            return graph, int(edges.shape[0]), None
        result = repro.connectivity(graph, seed=state["seed"] + 1,
                                    vectorized=True)
        return graph, int(edges.shape[0]), result

    def answer(self, state, out, work):
        from repro.graph import files

        graph, cached_edges, result = out
        parts = [np.asarray(graph.indptr), np.asarray(graph.indices)]
        rows = []
        if result is not None:
            np.save(work / "labels.npy", result.labels)
            parts.append(result.labels)
            rows = ledger_rows(result.report)
        written = sum(p.stat().st_size for p in state["csr"].iterdir())
        written += sum(p.stat().st_size
                       for p in files.edge_cache_paths(state["text"]))
        return {"hash": arrays_hash(*parts), "rows": rows, "ops": 1,
                "graph.files.edges": cached_edges,
                "graph.csr.bytes_written": written}

    def check(self, ref, sizes, seed, work):
        problems = []
        indptr, indices = reference_csr(ref["n"], ref["edges"])
        got_indptr = np.load(work / "csr" / "indptr.npy")
        got_indices = np.load(work / "csr" / "indices.npy")
        if not (np.array_equal(got_indptr, indptr)
                and np.array_equal(got_indices, indices)):
            problems.append("CSR on disk differs from the reference CSR")
        if self.solve:
            from repro.baselines import seq
            from repro.graph import Graph

            want = seq.components(Graph.from_edges(ref["n"], ref["edges"]))
            if not np.array_equal(np.load(work / "labels.npy"), want):
                problems.append("component labels differ from union-find")
        return problems, int(bool(problems))


# -- msf-er ----------------------------------------------------------------


class MsfEr(Workload):
    name = "msf-er"
    why = ("Erdos-Renyi n=7000 m=21000 + random weights -> vectorized MSF: ~85% of wall is "
           "the per-vertex Prim worker body, code that connectivity never runs")
    sizes = {"n": 7000, "m": 21000}
    tiny = {"n": 300, "m": 900}

    def generate(self, seed, sizes, work):
        from repro.graph import generators

        graph = generators.with_random_weights(
            generators.erdos_renyi_gnm(sizes["n"], sizes["m"], rng=seed),
            rng=seed,
        )
        edges, weights = graph.edge_list(), graph.edge_weights()
        np.savez(work / "graph.npz", edges=edges, weights=weights)
        return {"graph": graph}

    def prepare(self, work, sizes, seed):
        from repro.graph import WeightedGraph

        with np.load(work / "graph.npz") as data:
            graph = WeightedGraph.from_weighted_edges(
                sizes["n"], data["edges"], data["weights"]
            )
        return {"graph": graph, "seed": seed}

    def run(self, state):
        import repro

        return repro.minimum_spanning_forest(
            state["graph"], seed=state["seed"] + 1, vectorized=True
        )

    def answer(self, state, out, work):
        np.save(work / "edge_ids.npy", out.edge_ids)
        return {"hash": arrays_hash(out.edge_ids), "rows": ledger_rows(out.report),
                "ops": 1, "total_weight": float(out.total_weight)}

    def check(self, ref, sizes, seed, work):
        from repro.baselines import seq

        graph = ref["graph"]
        want = seq.msf_edge_ids(graph)
        got = np.load(work / "edge_ids.npy")
        if not np.array_equal(np.sort(got), want):
            got_w = float(graph.edge_weights()[got].sum()) if got.size else 0.0
            want_w = float(graph.edge_weights()[want].sum())
            return [f"MSF differs from Kruskal (weight {got_w} vs {want_w})"], 1
        return [], 0


# -- listrank-1m / listrank-1m-proc ----------------------------------------


class ListRank(Workload):
    """Vectorized list ranking of one random list, serial or process backend."""

    sizes = {"n": 1_000_000}
    tiny = {"n": 20_000}

    def __init__(self, name, why, backend):
        self.name, self.why, self.backend = name, why, backend

    def generate(self, seed, sizes, work):
        from repro.graph import generators

        succ = generators.linked_list(sizes["n"], rng=seed)
        np.save(work / "succ.npy", succ)
        return {"succ": succ}

    def prepare(self, work, sizes, seed):
        workers = min(2, os.cpu_count() or 1)
        return {"succ": np.load(work / "succ.npy"), "seed": seed,
                "workers": workers if self.backend == "process" else 0}

    def run(self, state):
        import repro
        from repro.core import AMPCConfig, AMPCRuntime

        succ = state["succ"]
        config = AMPCConfig.for_input(max(succ.size, 1), seed=state["seed"] + 1)
        # The runtime is built here (not inside list_ranking) only so its
        # parallel_fallbacks counter can be read afterwards: a round that
        # quietly fell back to serial would make the -proc numbers mean
        # something else.
        runtime = AMPCRuntime(config, backend=self.backend,
                              n_workers=state["workers"] or None)
        result = repro.list_ranking(succ, runtime=runtime, vectorized=True)
        return result, runtime

    def answer(self, state, out, work):
        result, runtime = out
        np.save(work / "ranks.npy", result.ranks)
        report = result.report
        return {"hash": arrays_hash(result.ranks), "rows": ledger_rows(report),
                "ops": 1,
                "parallel.fallbacks": int(runtime.parallel_fallbacks),
                "parallel.task_retries": int(report.task_retries),
                "parallel.worker_respawns": int(report.worker_respawns),
                "workers": state["workers"]}

    def check(self, ref, sizes, seed, work):
        # Complete characterisation of list ranks, in numpy: the ranks are
        # a permutation of 0..n-1 and every link goes from rank r to r+1.
        succ, ranks = ref["succ"], np.load(work / "ranks.npy")
        n = succ.size
        if ranks.shape != (n,):
            return [f"ranks has shape {ranks.shape}, expected ({n},)"], 1
        linked = succ >= 0
        ok = (
            np.array_equal(np.sort(ranks), np.arange(n))
            and np.array_equal(ranks[succ[linked]], ranks[linked] + 1)
        )
        return ([], 0) if ok else (["ranks are not the list order"], 1)


# -- serve-poisson / serve-burst -------------------------------------------

_NONE = -2  # encoding of a None answer in the int64 answer column


class Serve(Workload):
    """Open-loop replay against a resident ServingEngine (virtual clock)."""

    kind = "serve"

    def __init__(self, name, why, arrivals, popularity, rate, n_requests,
                 tiny_requests):
        self.name, self.why = name, why
        self.arrivals, self.popularity = arrivals, popularity
        self.sizes = {"n": 1500, "m": 3000, "requests": n_requests,
                      "rate": rate, "max_queue": 4096, "batch_window": 32}
        self.tiny = dict(self.sizes, n=150, m=300, requests=tiny_requests)

    def _config(self, sizes, seed):
        from repro.serve import WorkloadConfig

        return WorkloadConfig(
            name=self.name, arrivals=self.arrivals, rate=sizes["rate"],
            burst_size=32, popularity=self.popularity, zipf_s=1.1,
            hot_fraction=0.1, hot_weight=0.9, n_requests=sizes["requests"],
            seed=seed,
        )

    def generate(self, seed, sizes, work):
        from repro.graph import generators

        graph = generators.erdos_renyi_gnm(sizes["n"], sizes["m"], rng=seed)
        np.save(work / "edges.npy", graph.edges())
        return {"graph": graph}

    def prepare(self, work, sizes, seed):
        from repro.graph import Graph
        from repro.serve import AdmissionControl, ServingEngine, generate

        graph = Graph.from_edges(sizes["n"], np.load(work / "edges.npy"))
        engine = ServingEngine(graph, seed=seed + 1)
        config = self._config(sizes, seed)
        return {
            "engine": engine, "config": config,
            "events": generate(config, graph.n),
            "admission": AdmissionControl(max_queue=sizes["max_queue"],
                                          batch_window=sizes["batch_window"]),
        }

    def before_repeat(self, state):
        engine = state["engine"]
        state["mark"] = (len(engine.serve_report.rounds), engine.ticks)

    def run(self, state):
        from repro.serve import run_loadgen

        return run_loadgen(state["engine"], state["config"],
                           admission=state["admission"], events=state["events"])

    def answer(self, state, out, work):
        engine = state["engine"]
        row_mark, tick_mark = state["mark"]
        responses = out.responses
        values = np.array(
            [_NONE if r.value is None else int(r.value) for r in responses],
            np.int64,
        )
        latency_ms = np.array([r.latency_s for r in responses]) * 1e3
        ticks = np.array([r.tick for r in responses], np.int64) - tick_mark
        np.savez(work / "served.npz", values=values, latency_ms=latency_ms,
                 ticks=ticks)
        np.savez(
            work / "engine.npz", pi=engine.pi, labels=engine.labels,
            forest=engine.forest.edges(), subtree_size=engine.subtree_size,
            root_of=engine.root_of,
        )
        # Bursts arrive together, so which requests share a tick is fixed by
        # the events and the tick ledger repeats exactly. Poisson arrivals
        # are batched by *measured* service time: tick composition (and the
        # read-cache sharing inside a tick) differs between identical
        # replays, so only the build ledger is pinned there. Tick rows carry
        # the engine-lifetime tick number in their tag; drop it.
        replay_rows = [
            dict(row, tag="serve:tick")
            for row in ledger_rows(engine.serve_report)[row_mark:]
        ] if self.arrivals == "bursty" else []
        counts = out.scheduler.counts()
        sent = len(state["events"])
        p50, p95, p99 = (np.percentile(latency_ms, [50, 95, 99])
                         if latency_ms.size else (0.0, 0.0, 0.0))
        n_ticks = engine.ticks - tick_mark
        return {
            "hash": arrays_hash(values),
            "rows": ledger_rows(engine.build_report) + replay_rows,
            "ops": sent,
            "p50_ms": float(p50),
            "serve.p95_ms": float(p95), "serve.p99_ms": float(p99),
            "serve.qps": out.qps,
            "serve.sent": sent,
            "serve.completed": counts["completed"],
            "serve.rejected": counts["rejected"],
            "serve.reconcile_problems": len(out.reconcile_problems),
            "serve.ticks": n_ticks,
            "serve.batch_mean": len(responses) / max(n_ticks, 1),
            "serve.reads_per_request":
                sum(r.reads for r in responses) / max(len(responses), 1),
            "serve.query_calls_per_request":
                sum(r.query_calls for r in responses) / max(len(responses), 1),
            "serve.busy_wall_s": out.busy_wall_s,
            "reconcile": list(out.reconcile_problems),
            "_latency_ms": latency_ms, "_ticks": ticks,
        }

    def check(self, ref, sizes, seed, work):
        from repro.baselines import seq
        from repro.serve import generate

        graph = ref["graph"]
        with np.load(work / "engine.npz") as data:
            state = {k: data[k] for k in data.files}
        with np.load(work / "served.npz") as data:
            values = data["values"]
        problems = []
        labels = seq.components(graph)
        if not np.array_equal(state["labels"], labels):
            problems.append("resident component labels differ from union-find")
        in_mis = seq.lfmis(graph, state["pi"])
        subtree = _subtree_sizes(graph, labels, state["forest"],
                                 state["root_of"], problems)
        if not np.array_equal(subtree, state["subtree_size"]):
            problems.append("resident subtree sizes differ from a DFS recount")
        events = generate(self._config(sizes, seed), graph.n)
        if len(events) != values.size:
            problems.append(f"served {values.size} of {len(events)} requests")
        wrong = 0
        for event, got in zip(events, values.tolist()):
            req = event.request
            if req.kind == "mis_member":
                want = int(in_mis[req.key])
            elif req.kind == "component_of":
                want = int(labels[req.key])
            elif req.kind == "same_component":
                want = int(labels[req.key] == labels[req.key2])
            else:
                want = int(subtree[req.key])
            wrong += got != want
        if wrong:
            problems.append(f"{wrong} wrong answers")
        return problems, max(int(wrong), int(bool(problems)))


def _subtree_sizes(graph, labels, forest_edges, root_of, problems):
    """Recount subtree sizes of the engine's rooted spanning forest, and
    check it *is* a spanning forest of ``graph`` rooted where it says."""
    n = graph.n
    edge_keys = set(map(tuple, np.sort(graph.edges(), axis=1).tolist()))
    if any(tuple(sorted(e)) not in edge_keys for e in forest_edges.tolist()):
        problems.append("spanning forest uses an edge the graph lacks")
    if forest_edges.shape[0] != n - np.unique(labels).size:
        problems.append("spanning forest has the wrong number of edges")
    if not np.array_equal(labels[root_of], labels):
        problems.append("a vertex is rooted outside its component")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in forest_edges.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    size = np.ones(n, np.int64)
    seen = np.zeros(n, bool)
    for root in np.unique(root_of).tolist():
        order, parent = [root], {root: -1}
        seen[root] = True
        for v in order:
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    order.append(u)
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
    if not seen.all():
        problems.append("spanning forest does not reach every vertex")
    return size


WORKLOADS: list[Workload] = [
    RmatText(
        "ingest-text",
        "RMAT scale 18 x 8 text edge list -> cold edge cache -> CSR build -> mmap open: "
        "repro.graph does all the work and the solve layers none",
        solve=False, scale=18, tiny_scale=10,
    ),
    RmatText(
        "cc-rmat",
        "file-to-answer, RMAT scale 14 x 8: same ingest path then vectorized connectivity on the "
        "MmapGraph; skewed degrees, ~62% of wall in repro.algorithms, 17% in primitives",
        solve=True, scale=14, tiny_scale=8,
    ),
    MsfEr(),
    ListRank(
        "listrank-1m",
        "1e6-element list; numpy worker body, so ~75% of wall is repro.core (read_array, "
        "placement hashing, round_batch): control for kernel PRs, target for DDS PRs",
        backend="serial",
    ),
    ListRank(
        "listrank-1m-proc",
        "same input through repro.parallel with 2 workers (shm export, "
        "dispatch, journal replay): wall minus listrank-1m is the layer's net cost",
        backend="process",
    ),
    Serve(
        "serve-poisson",
        "n=1500 engine, 30k requests, open loop, Poisson 2000 req/s, Zipf(1.1) keys: ticks hold ~1 request "
        "so per-tick overhead (query_round, scalar round, rollback) dominates",
        arrivals="poisson", popularity="zipfian", rate=2000.0,
        n_requests=30_000, tiny_requests=600,
    ),
    Serve(
        "serve-burst",
        "n=1500 engine, 60k requests, open loop, bursts of 32 on a 10%/90% hotspot, mean 4000 req/s: every "
        "tick is a full batch so per-key get/read cost dominates",
        arrivals="bursty", popularity="hotspot", rate=4000.0,
        n_requests=60_000, tiny_requests=640,
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}
