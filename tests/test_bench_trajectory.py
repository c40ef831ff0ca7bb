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
        assert "wall_s" in row["end_to_end"]
        assert len(row["top_layers"]) == 3


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
