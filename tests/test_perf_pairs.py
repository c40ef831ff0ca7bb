"""The pair runner and its verdict (:mod:`repro.perf.pairs`)."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.perf import BETTER, NO_CHANGE, WORSE, pairs, suite_specs
from repro.perf.pairs import alternate, pair_row, pair_stats, verdict

ROOT = Path(__file__).resolve().parent.parent


def _contract(correct, **values):
    return {"correct": correct,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_pair_stats_count_wins_in_the_metrics_direction():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 1.0, 4.0]
    lower = pair_stats(parent, change, "lower")
    assert lower["wins"] == 2  # a tie is not a win
    assert lower["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert lower["change"] == {"q1": 0.875, "median": 1.75, "q3": 2.875}
    assert lower["ratio"] == 1.75 / 2.5
    assert pair_stats(parent, change, "higher")["wins"] == 1
    one = pair_stats([2.0], [1.0], "lower")
    assert one["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (one["wins"], one["ratio"]) == (1, 0.5)
    assert pair_stats([0.0], [1.0], "lower")["ratio"] is None


def test_pair_row_keeps_only_metrics_every_run_reported():
    runs = [
        (_contract(True, wall_s=2.0, qps=0.5, extra=1.0),
         _contract(True, wall_s=1.0, qps=1.0)),
        (_contract(True, wall_s=3.0, qps=1 / 3),
         _contract(True, wall_s=1.5, qps=2 / 3)),
    ]
    row = pair_row(
        "w", runs, {"wall_s": "lower", "qps": "higher", "extra": "lower"},
        commit="c", parent="p", host={"host_cores": 2}, seed=1,
        digest="d" * 64,
    )
    assert (row["kind"], row["pairs"], row["correct"]) == ("pairs", 2, True)
    assert set(row["metrics"]) == {"wall_s", "qps"}
    assert row["metrics"]["wall_s"]["wins"] == 2
    assert row["metrics"]["qps"]["wins"] == 2
    assert row["metrics"]["wall_s"]["ratio"] == 1.25 / 2.5
    assert (row["commit"], row["parent"], row["digest"]) == ("c", "p", "d" * 64)
    runs[1] = (runs[1][0], _contract(False, wall_s=1.5, qps=2 / 3))
    assert pair_row("w", runs, {"wall_s": "lower"})["correct"] is False


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_spread():
    faster = [p * 0.8 for p in PARENT]
    assert verdict(PARENT, faster, "lower") == BETTER
    assert verdict(faster, PARENT, "lower") == WORSE
    assert verdict(PARENT, faster, "higher") == WORSE
    assert verdict(faster, PARENT, "higher") == BETTER
    # 8 of 10 wins is not enough, however large the shift.
    mixed = faster[:8] + [p * 1.1 for p in PARENT[8:]]
    assert verdict(PARENT, mixed, "lower") == NO_CHANGE
    # 9 of 10 wins is enough with a shift past the parent's IQR ...
    nine = faster[:9] + [PARENT[9] * 1.1]
    assert verdict(PARENT, nine, "lower") == BETTER
    # ... and not with a shift inside it.
    slight = [p - 0.001 for p in PARENT]
    assert verdict(PARENT, slight, "lower") == NO_CHANGE
    # 27 of 30 is nine tenths.
    thirty = PARENT * 3
    assert verdict(thirty, [p * 0.8 for p in thirty[:27]] + thirty[27:],
                   "lower") == BETTER


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), "lower") == NO_CHANGE
    same = [5.0] * 10
    assert verdict(same, same, "lower") == NO_CHANGE
    # A constant parent has no spread: any consistent shift decides.
    assert verdict(same, [4.0] * 10, "lower") == BETTER
    assert verdict(same, [4.0] * 9 + [5.0], "lower") == BETTER
    assert verdict(same, [4.0] * 8 + [5.0] * 2, "lower") == NO_CHANGE


def test_alternate_switches_which_side_runs_first():
    order = []
    runs = alternate(lambda: order.append("p") or "p",
                     lambda: order.append("c") or "c", 4, order.append)
    assert runs == [("p", "c")] * 4
    assert order == ["p", "c", 0, "c", "p", 1, "p", "c", 2, "c", "p", 3]


def test_suite_specs_quick_mode_shrinks_sizes(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
    full = {s.cell for s in suite_specs("smoke")}
    quick = {s.cell for s in suite_specs("smoke", quick=True)}
    assert full != quick
    # env switch is equivalent to quick=True
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    assert {s.cell for s in suite_specs("smoke")} == quick
    with pytest.raises(ValueError, match="unknown suite"):
        suite_specs("nope")


def test_greedy_cells_are_full_suite_cells_only():
    full = {s.bench: s for s in suite_specs("full", quick=True)}
    for bench in ("matching", "coloring", "edge_coloring"):
        assert full[bench].params["n"] <= 200
        assert full[bench].setup()() is not None
    assert not {"matching", "coloring", "edge_coloring"} & {
        s.bench for s in suite_specs("smoke")}


def _checkout(path: Path) -> Path:
    path.mkdir()
    (path / "src").symlink_to(ROOT / "src")
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def test_compare_refuses_unknown_names_and_unequal_paths(tmp_path):
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    with pytest.raises(ValueError, match="unknown workload or cell: nope"):
        pairs.compare(a, b, 1, ["nope"])
    with pytest.raises(ValueError, match="differ in length"):
        pairs.compare(a, _checkout(tmp_path / "bb"), 1, ["listrank-1m"])


@pytest.mark.perf
def test_compare_times_a_suite_cell_in_each_checkout(tmp_path):
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    lines = []
    status = pairs.compare(a, b, 2, ["dds_get[n=2000]"], out=lines.append)
    *progress, line = lines
    assert progress == [f"dds_get[n=2000]: pair {i}/2 done" for i in (1, 2)]
    assert line.startswith("dds_get[n=2000] ms: parent ")
    got = line.rsplit(" -> ", 1)[1]
    assert got in (BETTER, WORSE, NO_CHANGE)
    assert status == (got == WORSE)
    # A cell result has no digest and is printed, not appended.
    assert not (a / pairs.TRAJECTORY).exists()
