"""Shared infrastructure for the Figure 1 reproduction benchmarks.

Each bench file covers one experiment id from DESIGN.md §4. Benchmarks
run the solver once (`benchmark.pedantic`, the solvers are deterministic
in their seed), attach the model costs (rounds, communication, budgets)
to ``benchmark.extra_info``, and append a row to a per-experiment table
that is printed at the end of the session — the same rows/series the
paper's Figure 1 reports.
"""

from __future__ import annotations

import os
from collections import defaultdict

import pytest

_TABLES: dict[str, list[list]] = defaultdict(list)
_HEADERS: dict[str, list[str]] = {}


def quick_mode() -> bool:
    """The one fast-mode switch for everything benchmark-shaped.

    ``REPRO_BENCH_QUICK=1`` (set by ``repro bench --quick``) means:
    smallest parametrizations here and tiny cell sizes in the
    ``repro.perf`` suite collector — one switch, honored uniformly.
    """
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def pytest_collection_modifyitems(config, items):
    """Quick mode (see :func:`quick_mode`): keep only the first
    parametrization of every benchmark function.

    Bench modules list their sweeps in ascending size, so the first
    collected item is the smallest instance — the quick sweep still
    executes every bench module end to end (and fails on exceptions)
    but finishes in seconds instead of minutes.
    """
    if not quick_mode():
        return
    seen: set[tuple[str, str]] = set()
    keep, drop = [], []
    for item in items:
        # Shape/aggregate tests assert over the *full* sweep's results
        # (e.g. rounds at every n) — meaningless on one tiny instance.
        if item.get_closest_marker("aggregate") is not None:
            drop.append(item)
            continue
        key = (item.module.__name__,
               getattr(item, "originalname", None) or item.name)
        if key in seen:
            drop.append(item)
        else:
            seen.add(key)
            keep.append(item)
    items[:] = keep
    if drop:
        config.hook.pytest_deselected(items=drop)


def record_row(experiment: str, headers: list[str], row: list) -> None:
    """Append one measured row to an experiment's output table."""
    _HEADERS[experiment] = headers
    _TABLES[experiment].append(row)


def attach(benchmark, **info) -> None:
    """Attach model costs to the benchmark's extra_info."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


@pytest.fixture
def record(benchmark):
    """Convenience fixture combining attach() and record_row()."""

    def _record(experiment: str, headers: list[str], row: list, **info):
        attach(benchmark, **info)
        record_row(experiment, headers, row)

    return _record


def pytest_sessionfinish(session, exitstatus):
    if not _TABLES:
        return
    from repro.analysis import render_table

    print("\n")
    print("=" * 78)
    print("Figure/Lemma reproduction tables (see DESIGN.md §4, EXPERIMENTS.md)")
    print("=" * 78)
    for experiment in sorted(_TABLES):
        print(f"\n--- {experiment} ---")
        print(render_table(_HEADERS[experiment], _TABLES[experiment]))
    print()
