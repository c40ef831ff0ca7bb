"""Alternating pairs: the one way this repository times a change.

A single timing cannot tell a code change from host drift (the build host
changes speed by 10–20 % for minutes at a time), and a baseline stored in
one session cannot judge another. So a change is timed against its parent
in K **pairs**: each pair runs the parent and the change once, and the side
that goes first alternates from pair to pair.

:func:`compare` (``repro perf pairs``) pairs two checkouts on two kinds of
name:

* a **bench workload** (a name in ``BENCHMARK.json``) runs ``bench/run.py
  --workload W --seed 1 --trace 0`` in each checkout; its ``"kind":
  "pairs"`` row (:func:`pair_row`) is appended to ``BENCH_trajectory.jsonl``;
* a **suite cell** (:attr:`~repro.perf.suite.BenchSpec.cell`, such as
  ``dds_get[n=20000]``) runs in a fresh child process with that side's
  ``src`` on ``PYTHONPATH``; the child reports the median of
  ``CELL_REPEATS`` timed calls after ``CELL_WARMUP`` untimed ones. A cell
  has no digest, so its result is printed, not appended.

Both checkouts must sit at absolute paths of equal length: ``cc-rmat``
``peak_rss_mb`` moves by 3–5 % with the length of the checkout's path.

:func:`verdict` is the rule a speed claim is held to, per metric or cell.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from .suite import SUITES, host_fingerprint, suite_specs

BETTER, WORSE, NO_CHANGE = "better", "worse", "no-change"

#: Share of the pairs a side must win for a verdict other than no-change.
WIN_SHARE = 0.9
#: Pairs of the in-process A/A check of ``repro verify --smoke``: at
#: K = 10 the rule flags about 1 % of cells on iid lognormal noise
#: (sigma 0.3), at K = 20 about 0.01 %.
AA_PAIRS = 20
SEED = 1
CELL_WARMUP = 1
CELL_REPEATS = 7
TRAJECTORY = "BENCH_trajectory.jsonl"

T = TypeVar("T")

# The child of a suite cell. It uses only ``SUITES``, ``suite_specs`` and
# ``BenchSpec.setup`` / ``.cell``, so any checkout that has those can be a
# side of a pair.
_CELL_CHILD = """\
import json, statistics, sys, time
from repro.perf.suite import SUITES, suite_specs
name, warmup, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = next(spec for suite in SUITES for quick in (False, True)
            for spec in suite_specs(suite, quick=quick) if spec.cell == name)
run = spec.setup()
for _ in range(warmup):
    run()
samples = []
for _ in range(repeats):
    start = time.perf_counter()
    run()
    samples.append(time.perf_counter() - start)
print(json.dumps(statistics.median(samples)))
"""


def quartiles(values: list[float]) -> dict:
    """``q1``, ``median`` and ``q3`` of ``values`` (linear interpolation
    between order statistics)."""
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"q1": q1, "median": median, "q3": q3}


def pair_stats(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over K pairs: ``parent[i]`` and ``change[i]`` are the
    two sides of pair i; ``better`` is ``"lower"`` or ``"higher"``."""
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    base = sides["parent"]["median"]
    return {
        **sides,
        "wins": _wins(parent, change, better),
        "ratio": sides["change"]["median"] / base if base else None,
    }


def _wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which ``change`` beat ``parent``; a tie is no win."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """``better`` when the change wins at least ⌈0.9 K⌉ of the K pairs and
    its median beats the parent's by more than the parent's interquartile
    range; ``worse`` when the parent does the same; else ``no-change``."""
    need = math.ceil(WIN_SHARE * len(parent))
    parent_q = quartiles(parent)
    spread = parent_q["q3"] - parent_q["q1"]
    gain = float(np.median(change)) - parent_q["median"]
    if better == "lower":
        gain = -gain
    if _wins(parent, change, better) >= need and gain > spread:
        return BETTER
    worse = "higher" if better == "lower" else "lower"
    if _wins(parent, change, worse) >= need and -gain > spread:
        return WORSE
    return NO_CHANGE


def alternate(parent: Callable[[], T], change: Callable[[], T],
              pairs: int,
              done: Callable[[int], None] | None = None) -> list[tuple[T, T]]:
    """K ``(parent(), change())`` pairs; the parent runs first in even
    pairs, the change in odd ones. ``done(i)`` is called after pair i."""
    runs = []
    for i in range(pairs):
        if i % 2:
            got_change = change()
            got_parent = parent()
        else:
            got_parent = parent()
            got_change = change()
        runs.append((got_parent, got_change))
        if done is not None:
            done(i)
    return runs


def timed(run: Callable[[], Any]) -> float:
    """Wall seconds of one ``run()``."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


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
            metrics[name] = pair_stats(*_sides(runs, name), better)
    return {
        "kind": "pairs",
        "workload": workload,
        "pairs": len(runs),
        "correct": all(side["correct"] for pair in runs for side in pair),
        "metrics": metrics,
        **fields,
    }


def _sides(runs: list[tuple[dict, dict]], name: str):
    """The parent's and the change's values of metric ``name``."""
    return ([p["metrics"][name]["value"] for p, _ in runs],
            [c["metrics"][name]["value"] for _, c in runs])


def _describe(checkout: Path) -> str:
    """The checkout's commit, ``-dirty`` when its tree has changes."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.strip()


def _contract(checkout: Path, workload: str) -> dict:
    """The JSON contract line ``bench/run.py --workload W`` prints last."""
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


def _cell_median(checkout: Path, cell: str) -> float:
    """Median seconds of ``cell`` in a fresh child on ``checkout/src``."""
    run = subprocess.run(
        [sys.executable, "-c", _CELL_CHILD, cell, str(CELL_WARMUP),
         str(CELL_REPEATS)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
    )
    if run.returncode:
        raise RuntimeError(f"{checkout}: cell {cell} failed\n{run.stderr}")
    return float(run.stdout)


def _cell_names() -> set[str]:
    """Every registered suite cell, at full and at quick sizes."""
    return {spec.cell for suite in SUITES for quick in (False, True)
            for spec in suite_specs(suite, quick=quick)}


def _line(name: str, parent: list[float], change: list[float],
          better: str, scale: float = 1.0) -> tuple[str, str]:
    """A printed result line and its verdict."""
    p, c = quartiles(parent), quartiles(change)
    got = verdict(parent, change, better)
    return (f"{name}: parent {p['median'] * scale:.4g} "
            f"[{p['q1'] * scale:.4g}, {p['q3'] * scale:.4g}] change "
            f"{c['median'] * scale:.4g} [{c['q1'] * scale:.4g}, "
            f"{c['q3'] * scale:.4g}] wins {_wins(parent, change, better)}/"
            f"{len(parent)} -> {got}"), got


def compare(change: Path, parent: Path, pairs: int, names: list[str],
            out: Callable[[str], None] = print) -> int:
    """Run ``pairs`` alternating pairs of each name in both checkouts and
    print a verdict per metric or cell; append one trajectory row per
    bench workload to ``change``'s trajectory. Returns 1 when a bench
    answer was wrong or a verdict reads ``worse``, else 0."""
    if pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {pairs}")
    if len(str(change)) != len(str(parent)):
        raise ValueError(
            f"checkout paths differ in length ({change}, {parent}): "
            f"peak_rss_mb depends on it; use paths of equal length")
    declared = json.loads((change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    names = names or workloads
    unknown = sorted(set(names) - set(workloads) - _cell_names())
    if unknown:
        raise ValueError(f"unknown workload or cell: {', '.join(unknown)}")
    if set(names) & set(workloads):  # a row names both commits: ask first
        fields = {"commit": _describe(change), "parent": _describe(parent),
                  "host": host_fingerprint(), "seed": SEED}
    verdicts, correct = [], True
    for name in names:

        def done(i: int) -> None:
            out(f"{name}: pair {i + 1}/{pairs} done")

        if name not in workloads:
            runs = alternate(lambda: _cell_median(parent, name),
                             lambda: _cell_median(change, name), pairs, done)
            line, got = _line(f"{name} ms", *map(list, zip(*runs)), "lower",
                              1e3)
            out(line)
            verdicts.append(got)
            continue
        contracts = alternate(lambda: _contract(parent, name),
                              lambda: _contract(change, name), pairs, done)
        expected = json.loads((change / "bench" / "expected.json").read_text())
        row = pair_row(name, contracts, directions,
                       digest=expected["digests"][name], **fields)
        with (change / TRAJECTORY).open("a") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        correct &= row["correct"]
        for metric in row["metrics"]:
            line, got = _line(f"{name} {metric}", *_sides(contracts, metric),
                              directions[metric])
            out(line)
            verdicts.append(got)
    return int(not correct or WORSE in verdicts)
