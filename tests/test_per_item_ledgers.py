"""Whole-run results and ledgers of the per-item machine programs, frozen.

``tests/data/per_item_ledgers.json`` was written at commit 6b64043, the
last one whose default path ran connectivity, MIS, MSF and (multi-)list
ranking on their per-item machine programs. Each entry is one run of the
``repro verify --smoke`` grid (families x seeds, plus a one-machine and a
strict-budget deployment per algorithm): a hash of the result arrays and
a digest of the ledger rows ``bench/workloads.py::ledger_rows`` keeps
(wall time, index and recovery fields excluded). The production path —
block programs now — must reproduce every entry.

Written by ``PYTHONPATH=src python3 tests/test_per_item_ledgers.py`` at
that commit; running it anywhere later would freeze the wrong programs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import AMPCConfig, AMPCRuntime
from repro.verify.oracles import CASES
from repro.verify.runner import SMOKE_SIZE, make_workload

DATA = Path(__file__).parent / "data" / "per_item_ledgers.json"
SEEDS = (0, 1)

#: algorithm -> (verify case supplying the families, entry point,
#: result arrays that are hashed).
ALGORITHMS = {
    "connectivity": ("connectivity", repro.connectivity, ("labels",)),
    "mis": ("mis", repro.maximal_independent_set, ("in_mis", "pi")),
    "msf": ("msf", repro.minimum_spanning_forest, ("edge_ids",)),
    "list-ranking": ("list-ranking", repro.list_ranking, ("ranks",)),
    "multi-list-ranking": (
        "list-ranking", repro.multi_list_ranking, ("ranks", "head_of"),
    ),
}


def _deployments(n_items: int, seed: int) -> dict[str, AMPCConfig]:
    config = AMPCConfig.for_input(max(n_items, 1), seed=seed)
    return {
        "default": config,
        "one-machine": replace(config, n_machines=1),
        "strict": replace(config, strict=True),
    }


def _cut_into_lists(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut one list into four: the multi-list input of a list family."""
    succ = succ.copy()
    order = [repro.graph.generators.list_head(succ)]
    while succ[order[-1]] >= 0:
        order.append(int(succ[order[-1]]))
    cuts = [0, len(order) // 5, len(order) // 2, len(order) - 1]
    for c in cuts[1:]:
        succ[order[c - 1]] = -1
    return succ, np.array([order[c] for c in cuts], dtype=np.int64)


def grid() -> list[tuple[str, str, str, int, str]]:
    """``(key, algorithm, family, seed, deployment)`` of every entry."""
    cells = []
    for algorithm, (case, _fn, _fields) in ALGORITHMS.items():
        families = CASES[case].families
        runs = [(f, s, "default") for f in families for s in SEEDS]
        runs += [(families[0], 0, "one-machine"), (families[0], 0, "strict")]
        for family, seed, deployment in runs:
            key = f"{algorithm}/{family}/seed{seed}/{deployment}"
            cells.append((key, algorithm, family, seed, deployment))
    return cells


def run_entry(algorithm: str, family: str, seed: int, deployment: str) -> dict:
    case, fn, fields = ALGORITHMS[algorithm]
    workload = make_workload(CASES[case], family, SMOKE_SIZE, seed)
    args = (workload.payload,)
    if algorithm == "multi-list-ranking":
        args = _cut_into_lists(workload.payload)
    n, m = workload.size
    config = _deployments(n + m, seed)[deployment]
    result = fn(*args, runtime=AMPCRuntime(config))
    h = hashlib.sha256()
    for name in fields:
        a = np.ascontiguousarray(getattr(result, name))
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    rows = []
    for row in result.report.to_dict()["rounds"]:
        row.pop("recovery", None)
        row.pop("index", None)
        rows.append(row)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {
        "result": h.hexdigest(),
        "ledger": hashlib.sha256(blob.encode()).hexdigest(),
        "adaptive_rounds": sum(r["kind"] == "adaptive" for r in rows),
    }


def test_frozen_file_covers_the_grid():
    frozen = json.loads(DATA.read_text())
    assert frozen["commit"] == "6b64043"
    assert set(frozen["entries"]) == {cell[0] for cell in grid()}


@pytest.mark.parametrize(
    "key,algorithm,family,seed,deployment", grid(),
    ids=[cell[0] for cell in grid()],
)
def test_production_path_reproduces_per_item_run(
        key, algorithm, family, seed, deployment):
    frozen = json.loads(DATA.read_text())["entries"]
    assert run_entry(algorithm, family, seed, deployment) == frozen[key]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "commit": commit,
        "command": "PYTHONPATH=src python3 tests/test_per_item_ledgers.py",
        "path": "default arguments (vectorized=False): per-item programs",
        "entries": {
            cell[0]: run_entry(*cell[1:]) for cell in grid()
        },
    }, indent=1) + "\n")
    print(f"wrote {len(grid())} entries at {commit} to {DATA}")
