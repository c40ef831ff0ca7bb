"""Results and ledgers of the Andoni et al. MPC baseline, frozen.

``tests/data/andoni_ledgers.json`` holds, per run of
:func:`repro.baselines.andoni_mpc_connectivity` on a few small graphs, a
hash of the labels and a digest of the ledger rows
``bench/workloads.py::ledger_rows`` keeps (wall time, index and recovery
fields excluded), with the phase and squaring counts. The comparator
shares its budget schedule and leader rule with the AMPC algorithms, so
a change to either must move this file on purpose, not by accident.

Written by ``PYTHONPATH=src python3 tests/test_andoni_ledger.py`` at the
commit recorded in the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import andoni_mpc_connectivity
from repro.graph import generators

DATA = Path(__file__).parent / "data" / "andoni_ledgers.json"
SEEDS = (0, 1)

#: name -> graph builder. The tiny one fits on one machine from the start.
GRAPHS = {
    "er-400-1000": lambda: generators.erdos_renyi_gnm(400, 1000, rng=1),
    "er-1500-4000": lambda: generators.erdos_renyi_gnm(1500, 4000, rng=3),
    "path-300": lambda: generators.path(300),
    "grid-16x16": lambda: generators.grid(16, 16),
    "er-20-30": lambda: generators.erdos_renyi_gnm(20, 30, rng=2),
}


def cells() -> list[tuple[str, str, int]]:
    """``(key, graph, seed)`` of every entry."""
    return [(f"{name}/seed{seed}", name, seed)
            for name in GRAPHS for seed in SEEDS]


def run_entry(name: str, seed: int) -> dict:
    result = andoni_mpc_connectivity(GRAPHS[name](), seed=seed)
    labels = np.ascontiguousarray(result.labels)
    h = hashlib.sha256(str(labels.dtype).encode())
    h.update(labels.tobytes())
    rows = []
    for row in result.report.to_dict()["rounds"]:
        row.pop("recovery", None)
        row.pop("index", None)
        rows.append(row)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {
        "result": h.hexdigest(),
        "ledger": hashlib.sha256(blob.encode()).hexdigest(),
        "phases": result.phases,
        "squarings": list(result.squarings_per_phase),
    }


def test_frozen_file_covers_the_grid():
    frozen = json.loads(DATA.read_text())
    assert set(frozen["entries"]) == {cell[0] for cell in cells()}


@pytest.mark.parametrize("key,name,seed", cells(),
                         ids=[cell[0] for cell in cells()])
def test_baseline_reproduces_frozen_run(key, name, seed):
    frozen = json.loads(DATA.read_text())["entries"]
    assert run_entry(name, seed) == frozen[key]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "commit": commit,
        "command": "PYTHONPATH=src python3 tests/test_andoni_ledger.py",
        "entries": {key: run_entry(name, seed) for key, name, seed in cells()},
    }, indent=1) + "\n")
    print(f"wrote {len(cells())} entries at {commit} to {DATA}")
