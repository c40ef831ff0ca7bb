"""`repro perf` CLI exit codes and the verify perf-smoke cell.

Synthetic baseline/candidate fixture profiles drive the `check` exit
codes (no real benches in CI); one quick real collect exercises the
collect → auto-pin → check acceptance flow end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import Profile, ProfileStore

pytestmark = pytest.mark.perf

HOST = {"host_cores": 4, "machine": "x86_64", "platform": "Linux-test",
        "python": "3.11.0", "commit": "abc1234"}
BASE_SAMPLES = {
    "connectivity[n=96]": [0.100, 0.102, 0.098, 0.101, 0.099],
    "mis[n=80]": [0.040, 0.041, 0.0395, 0.0402, 0.0399],
}


def fixture_profile(cells, *, host=None, created="20260101T000000.000000Z",
                    suite="smoke") -> Profile:
    return Profile(
        suite=suite,
        host=dict(host or HOST),
        methodology={"repeats": 5, "warmup": 1, "statistic": "median",
                     "timer": "perf_counter", "quick": False},
        cells={
            cell: {"bench": cell.split("[")[0], "params": {},
                   "samples_s": list(samples),
                   "ts_us": [float(i) for i in range(len(samples))]}
            for cell, samples in cells.items()
        },
        created_utc=created,
    )


@pytest.fixture
def pinned_store(tmp_path):
    """A store with a pinned baseline of the fixture samples."""
    root = str(tmp_path / ".perf")
    store = ProfileStore(root)
    baseline_id = store.save(fixture_profile(BASE_SAMPLES))
    store.set_baseline("smoke", baseline_id)
    return root, store


def test_check_no_change_exits_zero(pinned_store, capsys):
    root, store = pinned_store
    store.save(fixture_profile(
        {cell: [s * 1.01 for s in samples]  # 1% — inside noise
         for cell, samples in BASE_SAMPLES.items()},
        created="20260102T000000.000000Z",
    ))
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "0 degradations" in out


def test_check_injected_2x_slowdown_exits_nonzero(pinned_store, capsys):
    """Acceptance criterion: a 2x slowdown in ONE cell fails the gate."""
    root, store = pinned_store
    cells = {cell: list(samples) for cell, samples in BASE_SAMPLES.items()}
    cells["mis[n=80]"] = [s * 2.0 for s in cells["mis[n=80]"]]
    store.save(fixture_profile(cells, created="20260102T000000.000000Z"))
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "1 degradations" in out


def test_check_improvement_exits_zero(pinned_store, capsys):
    root, store = pinned_store
    store.save(fixture_profile(
        {cell: [s * 0.5 for s in samples]
         for cell, samples in BASE_SAMPLES.items()},
        created="20260102T000000.000000Z",
    ))
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 0
    assert "2 improvements" in capsys.readouterr().out


def test_check_host_mismatch_exits_two(pinned_store, capsys):
    root, store = pinned_store
    other_host = dict(HOST, host_cores=8)
    store.save(fixture_profile(BASE_SAMPLES, host=other_host,
                               created="20260102T000000.000000Z"))
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 2
    assert "host mismatch" in capsys.readouterr().err
    # the override downgrades the refusal to warnings
    assert main(["perf", "check", "--store", root, "--suite", "smoke",
                 "--allow-host-mismatch"]) == 0


def test_check_without_baseline_exits_two(tmp_path, capsys):
    root = str(tmp_path / ".perf")
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 2
    assert "no baseline" in capsys.readouterr().err


def test_check_specific_profile_and_json_report(pinned_store, tmp_path,
                                                capsys):
    root, store = pinned_store
    cells = {cell: [s * 2.0 for s in samples]
             for cell, samples in BASE_SAMPLES.items()}
    slow_id = store.save(fixture_profile(cells,
                                         created="20260102T000000.000000Z"))
    out_json = str(tmp_path / "check.json")
    assert main(["perf", "check", "--store", root, "--suite", "smoke",
                 "--profile", slow_id, "--json", out_json]) == 1
    with open(out_json) as fh:
        doc = json.load(fh)
    assert doc["summary"]["degradations"] == 2
    assert doc["candidate_id"] == slow_id
    assert {c["verdict"] for c in doc["cells"]} == {"degradation"}
    votes = {v["detector"] for c in doc["cells"] for v in c["votes"]}
    assert votes == {"median_shift", "mann_whitney", "best_of_k"}


def test_baseline_pin_show_and_missing(pinned_store, tmp_path, capsys):
    root, store = pinned_store
    new_id = store.save(fixture_profile(BASE_SAMPLES,
                                        created="20260105T000000.000000Z"))
    assert main(["perf", "baseline", "--store", root, "--suite", "smoke",
                 "--profile", new_id]) == 0
    assert store.get_baseline("smoke").profile == new_id
    assert main(["perf", "baseline", "--store", root, "--show"]) == 0
    assert new_id in capsys.readouterr().out
    empty = str(tmp_path / "empty-store")
    assert main(["perf", "baseline", "--store", empty,
                 "--suite", "smoke"]) == 2


def test_report_renders_history(pinned_store, capsys):
    root, store = pinned_store
    store.save(fixture_profile(BASE_SAMPLES,
                               created="20260102T000000.000000Z"))
    assert main(["perf", "report", "--store", root, "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "mis[n=80]" in out
    assert "[baseline]" in out


def test_collect_list_and_unknown_suite(capsys):
    assert main(["perf", "collect", "--list"]) == 0
    out = capsys.readouterr().out
    assert "smoke:" in out and "full:" in out
    assert main(["perf", "collect", "--suite", "nope"]) == 2


def test_collect_then_check_acceptance_flow(tmp_path, monkeypatch, capsys):
    """`repro perf collect --suite smoke && repro perf check` passes
    against the freshly (auto-)pinned baseline — the ISSUE acceptance
    flow, at quick sizes."""
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    root = str(tmp_path / ".perf")
    assert main(["perf", "collect", "--store", root, "--suite", "smoke",
                 "--repeats", "3"]) == 0
    out = capsys.readouterr().out
    assert "pinned baseline 'smoke'" in out
    store = ProfileStore(root)
    first_id, = store.ids("smoke")
    assert main(["perf", "check", "--store", root, "--suite", "smoke"]) == 0
    assert "0 degradations" in capsys.readouterr().out
    # a second collect must not steal the pin
    assert main(["perf", "collect", "--store", root, "--suite", "smoke",
                 "--repeats", "3"]) == 0
    assert "pinned baseline" not in capsys.readouterr().out
    assert len(store.ids("smoke")) == 2
    assert store.get_baseline("smoke").profile == first_id


def test_verify_perf_smoke_cell(monkeypatch):
    """The `perf-smoke` cell wired into `repro verify --smoke`."""
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    from repro.verify.runner import perf_smoke_cell

    outcome = perf_smoke_cell()
    assert outcome["ok"], outcome["problems"]
    assert outcome["cells"] >= 4
    assert outcome["problems"] == []
