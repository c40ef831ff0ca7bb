#!/usr/bin/env python3
"""Append one benchmark record per workload to BENCH_trajectory.jsonl.

Runs ``bench/run.py --seed 1 --traced --out FILE`` in a checkout (every
workload plain, then traced) and appends to the trajectory file, for each
workload, one JSON line:

* ``commit``: ``git describe --always --dirty`` of the checkout (a
  ``-dirty`` suffix means uncommitted changes on top of that commit);
* ``host``: the run's host fingerprint, and ``seed``;
* ``end_to_end``: the plain run's end-to-end metrics;
* ``top_layers``: the three largest layer shares of the traced wall;
* ``digest``: the plain run's ledger digest.

    python3 tools/bench_trajectory.py [--checkout DIR] [--out FILE]

``--checkout`` defaults to this repository, ``--out`` to the
``BENCH_trajectory.jsonl`` at its root, so a trajectory can collect the
rows of older commits from a second checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO / "BENCH_trajectory.jsonl"
SEED = 1


def describe(checkout: Path) -> str:
    """The checkout's commit, ``-dirty`` when its tree has changes."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.strip()


def trajectory_rows(results: dict, commit: str) -> list[dict]:
    """One row per workload from a ``bench/run.py --traced --out`` file."""
    by_pass: dict[tuple[str, bool], dict] = {
        (r["workload"], r["traced"]): r for r in results["results"]
    }
    rows = []
    for (workload, traced), plain in by_pass.items():
        if traced:
            continue
        shares = by_pass[workload, True]["shares"]
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        rows.append({
            "commit": commit,
            "host": results["provenance"]["host"],
            "seed": results["provenance"]["seed"],
            "workload": workload,
            "correct": plain["correct"],
            "end_to_end": plain["end_to_end"],
            "top_layers": [[layer, round(share, 4)] for layer, share in top],
            "digest": plain["digest"],
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=REPO)
    parser.add_argument("--out", type=Path, default=TRAJECTORY)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        results_file = Path(tmp) / "results.json"
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--seed", str(SEED), "--traced",
             "--out", str(results_file)],
            cwd=checkout,
        )
        if not results_file.exists():
            return run.returncode or 1
        results = json.loads(results_file.read_text())
    rows = trajectory_rows(results, describe(checkout))
    with args.out.open("a") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {len(rows)} rows to {args.out}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
