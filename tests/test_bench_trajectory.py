"""The checked-in benchmark trajectory (``tools/bench_trajectory.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_parses_and_carries_the_expected_digest():
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    lines = (ROOT / "BENCH_trajectory.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert row["seed"] == expected["seed"]
        assert row["digest"] == expected["digests"][row["workload"]]
        assert row["correct"] is True
        assert row["commit"] and row["host"]
        if row.get("kind") == "pairs":
            _check_pair_row(row)
        else:
            assert "wall_s" in row["end_to_end"]
            assert len(row["top_layers"]) == 3


def _check_pair_row(row):
    assert row["parent"] and row["pairs"] >= 1
    assert "wall_s" in row["metrics"]
    for stats in row["metrics"].values():
        for side in ("parent", "change"):
            q = stats[side]
            assert q["q1"] <= q["median"] <= q["q3"]
        assert 0 <= stats["wins"] <= row["pairs"]
        base = stats["parent"]["median"]
        if base:
            assert stats["ratio"] == stats["change"]["median"] / base
        else:
            assert stats["ratio"] is None


def _contract(correct, **values):
    return {"correct": correct,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_pair_stats_count_wins_in_the_metrics_direction():
    tool = _tool()
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 1.0, 4.0]
    lower = tool.pair_stats(parent, change, "lower")
    assert lower["wins"] == 2  # a tie is not a win
    assert lower["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert lower["change"] == {"q1": 0.875, "median": 1.75, "q3": 2.875}
    assert lower["ratio"] == 1.75 / 2.5
    assert tool.pair_stats(parent, change, "higher")["wins"] == 1
    one = tool.pair_stats([2.0], [1.0], "lower")
    assert one["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (one["wins"], one["ratio"]) == (1, 0.5)
    assert tool.pair_stats([0.0], [1.0], "lower")["ratio"] is None


def test_pair_row_keeps_only_metrics_every_run_reported():
    runs = [
        (_contract(True, wall_s=2.0, qps=0.5, extra=1.0),
         _contract(True, wall_s=1.0, qps=1.0)),
        (_contract(True, wall_s=3.0, qps=1 / 3),
         _contract(True, wall_s=1.5, qps=2 / 3)),
    ]
    row = _tool().pair_row(
        "w", runs, {"wall_s": "lower", "qps": "higher", "extra": "lower"},
        commit="c", parent="p", host={"host_cores": 2}, seed=1,
        digest="d" * 64,
    )
    assert (row["kind"], row["pairs"], row["correct"]) == ("pairs", 2, True)
    assert set(row["metrics"]) == {"wall_s", "qps"}
    assert row["metrics"]["wall_s"]["wins"] == 2
    assert row["metrics"]["qps"]["wins"] == 2
    assert row["metrics"]["wall_s"]["ratio"] == 1.25 / 2.5
    _check_pair_row(row)
    runs[1] = (runs[1][0], _contract(False, wall_s=1.5, qps=2 / 3))
    assert _tool().pair_row("w", runs, {"wall_s": "lower"})["correct"] is False


def test_rows_take_metrics_from_the_plain_pass_and_shares_from_the_traced():
    def record(traced, wall_s, shares):
        return {"workload": "w", "traced": traced, "correct": True,
                "end_to_end": {"wall_s": wall_s}, "digest": "d" * 64,
                "shares": shares}

    results = {
        "provenance": {"host": {"host_cores": 2}, "seed": 1},
        "results": [
            record(False, 1.0, {}),
            record(True, 1.2, {"a": 0.1, "b": 0.5, "c": 0.3, "d": 0.1}),
        ],
    }
    (row,) = _tool().trajectory_rows(results, "abc123")
    assert row["commit"] == "abc123"
    assert row["end_to_end"] == {"wall_s": 1.0}
    assert row["top_layers"] == [["b", 0.5], ["c", 0.3], ["a", 0.1]]
