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

A single run cannot tell a code change from host drift, so
``--parent DIR --pairs K`` compares two checkouts instead: for each
workload (``--workload``, repeatable; default all), it runs
``bench/run.py --workload W --trace 0`` K times in each checkout,
alternating which side goes first, and appends one ``"kind": "pairs"``
row per workload. Per end-to-end metric the row holds both sides'
median and quartiles, ``wins`` (pairs in which the change was better,
in the metric's direction from ``BENCHMARK.json``) and ``ratio``
(change median / parent median)::

    python3 tools/bench_trajectory.py --parent ../parent --pairs 10 \
        --workload listrank-1m
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def quartiles(values: list[float]) -> dict:
    """``q1``, ``median`` and ``q3`` of ``values`` (linear interpolation
    between order statistics)."""
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"q1": q1, "median": median, "q3": q3}


def pair_stats(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over K pairs: ``parent[i]`` and ``change[i]`` are the
    two sides of pair i; ``better`` is ``"lower"`` or ``"higher"``."""
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    base = sides["parent"]["median"]
    return {
        **sides,
        "wins": wins,
        "ratio": sides["change"]["median"] / base if base else None,
    }


def pair_row(
    workload: str,
    runs: list[tuple[dict, dict]],
    directions: dict[str, str],
    **fields: object,
) -> dict:
    """A ``"kind": "pairs"`` trajectory row from K ``(parent, change)``
    contract lines of ``bench/run.py --workload W --trace 0``."""
    metrics = {}
    for name, better in directions.items():
        if all(name in side["metrics"] for pair in runs for side in pair):
            metrics[name] = pair_stats(
                [p["metrics"][name]["value"] for p, _ in runs],
                [c["metrics"][name]["value"] for _, c in runs],
                better,
            )
    return {
        "kind": "pairs",
        "workload": workload,
        "pairs": len(runs),
        "correct": all(side["correct"] for pair in runs for side in pair),
        "metrics": metrics,
        **fields,
    }


def contract(checkout: Path, workload: str) -> dict:
    """One ``bench/run.py --workload W --trace 0`` run in ``checkout``:
    the JSON contract line it prints last."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed nothing\n"
                           f"{run.stderr}")
    return json.loads(lines[-1])


def paired(checkout: Path, parent: Path, pairs: int,
           workloads: list[str]) -> list[dict]:
    """The pair rows of ``workloads``, K = ``pairs`` alternating runs."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    expected = json.loads((checkout / "bench" / "expected.json").read_text())
    sys.path.insert(0, str(checkout / "src"))
    from repro.perf import host_fingerprint

    fields = {"commit": describe(checkout), "parent": describe(parent),
              "host": host_fingerprint(), "seed": SEED}
    rows = []
    for workload in workloads or [w["name"] for w in declared["workloads"]]:
        runs = []
        for i in range(pairs):
            order = (parent, checkout) if i % 2 == 0 else (checkout, parent)
            got = {side: contract(side, workload) for side in order}
            runs.append((got[parent], got[checkout]))
            print(f"{workload} pair {i + 1}/{pairs}: wall_s parent "
                  f"{got[parent]['metrics']['wall_s']['value']:.3f} change "
                  f"{got[checkout]['metrics']['wall_s']['value']:.3f}",
                  flush=True)
        # A correct run reproduces the expected digest.
        rows.append(pair_row(workload, runs, directions,
                             digest=expected["digests"][workload], **fields))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=REPO)
    parser.add_argument("--out", type=Path, default=TRAJECTORY)
    parser.add_argument("--parent", type=Path,
                        help="compare against this checkout, in pairs")
    parser.add_argument("--pairs", type=int, default=1,
                        help="alternating runs per side (with --parent)")
    parser.add_argument("--workload", action="append", default=[],
                        help="with --parent: a workload to pair (repeatable;"
                             " default all)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.parent is not None:
        rows = paired(checkout, args.parent.resolve(), args.pairs,
                      args.workload)
        with args.out.open("a") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended {len(rows)} pair rows to {args.out}")
        return 0 if all(row["correct"] for row in rows) else 1
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
