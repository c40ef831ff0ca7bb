"""The checked-in benchmark trajectory, ``BENCH_trajectory.jsonl``: the
single-run rows of older commits and the ``"kind": "pairs"`` rows that
``repro perf pairs`` appends (:func:`repro.perf.pair_row`)."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
