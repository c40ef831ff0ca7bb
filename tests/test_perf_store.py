"""Profile store round-trips, baseline pinning, collector provenance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.observe.export import read_jsonl, validate_records
from repro.perf import Profile, ProfileStore, collect, suite_specs
from repro.perf.detect import REQUIRED_METHODOLOGY

pytestmark = pytest.mark.perf


def make_profile(cells=None, suite="smoke", created=None) -> Profile:
    cells = cells if cells is not None else {
        "connectivity[n=96]": [0.010, 0.011, 0.0095, 0.0102, 0.0099],
        "mis[n=80]": [0.004, 0.0042, 0.0041],
    }
    return Profile(
        suite=suite,
        host={"host_cores": 4, "machine": "x86_64",
              "platform": "Linux-test", "python": "3.11.0",
              "commit": "abc1234"},
        methodology={"repeats": 5, "warmup": 1, "statistic": "median",
                     "timer": "perf_counter", "quick": False},
        cells={
            cell: {"bench": cell.split("[")[0], "params": {"n": 1},
                   "samples_s": samples,
                   "ts_us": [float(i * 1000) for i in range(len(samples))]}
            for cell, samples in cells.items()
        },
        created_utc=created or "",
        label="fixture",
    )


def test_profile_records_conform_to_export_schema():
    records = make_profile().to_records()
    assert validate_records(records) == []
    assert records[0]["attrs"]["kind"] == "perf-profile"


def test_profile_roundtrip_through_store(tmp_path):
    store = ProfileStore(str(tmp_path / ".perf"))
    original = make_profile()
    profile_id = store.save(original)
    loaded = store.load(profile_id)
    assert loaded.suite == original.suite
    assert loaded.samples() == original.samples()
    assert loaded.host == original.host
    assert loaded.methodology == original.methodology
    assert loaded.label == "fixture"
    assert loaded.profile_id == profile_id
    # the on-disk bytes are schema-conforming JSONL
    assert validate_records(read_jsonl(store._path(profile_id))) == []


def test_store_ids_sort_chronologically_and_filter_by_suite(tmp_path):
    store = ProfileStore(str(tmp_path / ".perf"))
    id_a = store.save(make_profile(created="20260101T000000.000000Z"))
    id_b = store.save(make_profile(created="20260102T000000.000000Z"))
    id_c = store.save(make_profile(created="20260103T000000.000000Z",
                                   suite="full"))
    assert store.ids() == [id_a, id_b, id_c]
    assert store.ids("smoke") == [id_a, id_b]
    assert store.latest("smoke") == id_b
    assert store.latest("full") == id_c
    assert store.latest("nope") is None


def test_duplicate_timestamp_ids_stay_unique(tmp_path):
    store = ProfileStore(str(tmp_path / ".perf"))
    same = "20260101T000000.000000Z"
    id_a = store.save(make_profile(created=same))
    id_b = store.save(make_profile(created=same))
    assert id_a != id_b
    assert store.load(id_b).samples() == store.load(id_a).samples()
    assert store.ids("smoke") == sorted([id_a, id_b])


def test_baseline_pinning(tmp_path):
    store = ProfileStore(str(tmp_path / ".perf"))
    profile_id = store.save(make_profile())
    pin = store.set_baseline("smoke", profile_id, note="seed")
    assert pin.profile == profile_id
    assert store.get_baseline("smoke").profile == profile_id
    assert store.baseline_profile("smoke").samples() \
        == make_profile().samples()
    assert store.get_baseline("missing") is None
    assert store.baseline_profile("missing") is None
    with pytest.raises(FileNotFoundError):
        store.set_baseline("smoke", "not-a-profile")
    # repinning overwrites, other pins survive
    other = store.save(make_profile(created="20270101T000000.000000Z"))
    store.set_baseline("smoke", other)
    store.set_baseline("alt", profile_id)
    assert store.get_baseline("smoke").profile == other
    assert store.get_baseline("alt").profile == profile_id


def test_interrupted_save_and_repin_leave_a_loadable_pin(tmp_path):
    """Profiles and ``baselines.json`` are replaced, never rewritten in
    place: killed at any Python-level call of saving a new profile and
    re-pinning the baseline to it, the store still loads its latest
    profile and a pin that is the old profile or the new one."""
    from test_ingest import _killed_at

    old_samples = make_profile().samples()
    new_cells = {"mis[n=80]": [0.5, 0.6, 0.7]}
    for k in itertools.count(1):
        store = ProfileStore(str(tmp_path / f"kill-{k}"))
        store.set_baseline("smoke", store.save(
            make_profile(created="20260101T000000.000000Z")))

        def save_and_repin():
            store.set_baseline("smoke", store.save(make_profile(
                new_cells, created="20270101T000000.000000Z")))

        killed = _killed_at(k, save_and_repin)
        pinned = store.baseline_profile("smoke").samples()
        assert pinned in (old_samples, new_cells)
        store.load(store.latest("smoke"))
        if not killed:
            break
    assert k > 20
    assert pinned == new_cells


def test_collector_records_methodology_and_host(monkeypatch):
    """Satellite: every collected profile carries host_cores / repeats /
    median — the fields `check` refuses to compare without."""
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    profile = collect("smoke", repeats=3, warmup=0)
    assert profile.methodology["repeats"] == 3
    assert profile.methodology["statistic"] == "median"
    assert profile.methodology["quick"] is True
    assert profile.host["host_cores"] >= 1
    assert "python" in profile.host and "machine" in profile.host
    for key in REQUIRED_METHODOLOGY:
        assert key in profile.methodology
    # one cell per registered smoke spec, `repeats` samples each
    assert set(profile.cells) == {s.cell for s in suite_specs("smoke")}
    for data in profile.cells.values():
        assert len(data["samples_s"]) == 3
        assert all(s > 0 for s in data["samples_s"])
    assert validate_records(profile.to_records()) == []


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


def test_profile_medians():
    profile = make_profile()
    medians = profile.medians()
    assert medians["mis[n=80]"] == pytest.approx(0.0041)
    assert medians["connectivity[n=96]"] == pytest.approx(
        float(np.median([0.010, 0.011, 0.0095, 0.0102, 0.0099]))
    )
