"""`repro perf pairs` input checks and the verify perf-smoke cell."""

from __future__ import annotations

import pytest

from repro.cli import main

pytestmark = pytest.mark.perf


def test_pairs_refuses_paths_of_unequal_length(tmp_path, capsys):
    assert main(["perf", "pairs", "--parent", str(tmp_path),
                 "--workload", "listrank-1m"]) == 2
    assert "differ in length" in capsys.readouterr().err


def test_pairs_refuses_fewer_than_one_pair(tmp_path, capsys):
    assert main(["perf", "pairs", "--parent", str(tmp_path),
                 "--pairs", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_verify_perf_smoke_cell():
    """The perf cell of `repro verify --smoke`: the A/A check reads
    no-change on every quick smoke cell, the slowed control reads worse."""
    from repro.verify.runner import perf_smoke_cell

    outcome = perf_smoke_cell()
    assert outcome["ok"], outcome["problems"]
    assert outcome["cells"] == 7
    assert outcome["control"] == "worse"
    assert outcome["problems"] == []
