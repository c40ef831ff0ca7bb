"""Results and ledgers of the truncated greedy queries, frozen.

``tests/data/greedy_ledgers.json`` holds, per run, a hash of the result
arrays and a digest of the ledger rows ``bench/workloads.py::ledger_rows``
keeps (wall time, index and recovery fields excluded), for the §10
extensions — maximal matching, greedy vertex coloring and greedy edge
coloring — over their ``repro verify`` families x seeds 0/1, plus a
one-machine, a strict-budget and a ``query_cap=3`` deployment each; MIS
at ``query_cap=3``; and two ``ServingEngine`` tick sequences (uncapped
and ``query_cap=3``) whose responses and tick rows are hashed.

All of these run one truncated query process, so a change to it must
move this file on purpose, not by accident.

Written by ``PYTHONPATH=src python3 tests/test_greedy_ledgers.py`` at the
commit recorded in the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import AMPCConfig
from repro.graph import generators
from repro.serve import ServeRequest, ServingEngine
from repro.verify.oracles import CASES
from repro.verify.runner import SMOKE_SIZE, make_workload

DATA = Path(__file__).parent / "data" / "greedy_ledgers.json"
SEEDS = (0, 1)

#: algorithm -> (verify case supplying the families, entry point,
#: result arrays that are hashed).
ALGORITHMS = {
    "matching": ("matching", repro.maximal_matching, ("edge_ids", "pi")),
    "coloring": ("coloring", repro.greedy_coloring, ("colors", "pi")),
    "edge-coloring": (
        "edge-coloring", repro.greedy_edge_coloring, ("colors", "pi"),
    ),
    "mis": ("mis", repro.maximal_independent_set, ("in_mis", "pi")),
}

#: Serving tick sequences: name -> engine ``query_cap``.
SERVING = {"uncapped": None, "cap3": 3}


def _deployment(n_items: int, seed: int, deployment: str):
    """``(config, query_cap)`` of one deployment."""
    config = AMPCConfig.for_input(max(n_items, 1), seed=seed)
    if deployment == "one-machine":
        return replace(config, n_machines=1), None
    if deployment == "strict":
        return replace(config, strict=True), None
    if deployment == "cap3":
        return config, 3
    return config, None


def grid() -> list[tuple[str, str, str, int, str]]:
    """``(key, algorithm, family, seed, deployment)`` of every run."""
    cells = []
    for algorithm, (case, _fn, _fields) in ALGORITHMS.items():
        families = CASES[case].families
        if algorithm == "mis":  # the rest is in per_item_ledgers.json
            runs = [(families[0], s, "cap3") for s in SEEDS]
        else:
            runs = [(f, s, "default") for f in families for s in SEEDS]
            runs += [(families[0], 0, d)
                     for d in ("one-machine", "strict", "cap3")]
        for family, seed, deployment in runs:
            key = f"{algorithm}/{family}/seed{seed}/{deployment}"
            cells.append((key, algorithm, family, seed, deployment))
    return cells


def _digest(rows: list[dict]) -> str:
    kept = []
    for row in rows:
        row.pop("recovery", None)
        row.pop("index", None)
        kept.append(row)
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_entry(algorithm: str, family: str, seed: int, deployment: str) -> dict:
    case, fn, fields = ALGORITHMS[algorithm]
    workload = make_workload(CASES[case], family, SMOKE_SIZE, seed)
    n, m = workload.size
    config, cap = _deployment(n + m, seed, deployment)
    result = fn(workload.payload, config=config, query_cap=cap)
    h = hashlib.sha256()
    for name in fields:
        a = np.ascontiguousarray(getattr(result, name))
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    rows = result.report.to_dict()["rounds"]
    return {
        "result": h.hexdigest(),
        "ledger": _digest(rows),
        "iterations": int(result.iterations),
    }


def run_serving(name: str) -> dict:
    """Ten ticks of mixed requests on an ER(120, 300) engine."""
    graph = generators.erdos_renyi_gnm(120, 300, rng=5)
    engine = ServingEngine(graph, seed=2, query_cap=SERVING[name])
    rng = np.random.default_rng(11)
    kinds = ("mis_member", "mis_member", "component_of", "subtree_size")
    answers = []
    for _tick in range(10):
        reqs = [
            ServeRequest(kinds[int(k)], int(v))
            for k, v in zip(rng.integers(0, len(kinds), 12),
                            rng.integers(0, graph.n, 12))
        ]
        answers += [
            [r.value, r.reads, r.writes, r.query_calls, r.tick]
            for r in engine.execute(reqs)
        ]
    blob = json.dumps(answers, separators=(",", ":"))
    return {
        "result": hashlib.sha256(blob.encode()).hexdigest(),
        "ledger": _digest(engine.serve_report.to_dict()["rounds"]),
        "reconcile": engine.reconcile(),
    }


def test_frozen_file_covers_the_grid():
    frozen = json.loads(DATA.read_text())["entries"]
    assert set(frozen) == {cell[0] for cell in grid()} | {
        f"serve/{name}" for name in SERVING
    }


@pytest.mark.parametrize(
    "key,algorithm,family,seed,deployment", grid(),
    ids=[cell[0] for cell in grid()],
)
def test_greedy_query_reproduces_frozen_run(
        key, algorithm, family, seed, deployment):
    frozen = json.loads(DATA.read_text())["entries"]
    assert run_entry(algorithm, family, seed, deployment) == frozen[key]


@pytest.mark.parametrize("name", list(SERVING))
def test_serving_ticks_reproduce_frozen_run(name):
    frozen = json.loads(DATA.read_text())["entries"]
    assert run_serving(name) == frozen[f"serve/{name}"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    entries = {cell[0]: run_entry(*cell[1:]) for cell in grid()}
    entries.update({f"serve/{name}": run_serving(name) for name in SERVING})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "commit": commit,
        "command": "PYTHONPATH=src python3 tests/test_greedy_ledgers.py",
        "entries": entries,
    }, indent=1) + "\n")
    print(f"wrote {len(entries)} entries at {commit} to {DATA}")
