"""Versioned on-disk perf-profile store with named baselines.

Layout (default root ``.perf/``, gitignored)::

    .perf/
      profiles/
        20260808T101530.123456Z-smoke.jsonl   # one profile per file
        ...
      baselines.json                          # {"smoke": {"profile": id, ...}}

A **profile** is one timestamped collection sweep: per-cell wall-time
samples plus the host fingerprint (cores, machine, python, commit) and
the measurement methodology (repeats, warmup, statistic). Profiles
serialize to the :mod:`repro.observe.export` JSONL schema — a ``meta``
header followed by one ``span`` record per sample (``cat="perf"``,
``dur_us`` = the measured wall time), so the same validators and
tooling apply to perf profiles and execution traces.

A **baseline** is a name → profile-id pin (by convention the name is
the suite name); ``repro perf check`` compares the latest candidate
against it and ``repro perf baseline`` moves the pin.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterator

from repro.observe import export

#: Default store root, relative to the working directory.
DEFAULT_ROOT = ".perf"

#: ``cat`` of per-sample span records inside a profile.
PERF_CAT = "perf"


@dataclass
class Profile:
    """One collection sweep: samples per cell + provenance."""

    suite: str
    host: dict[str, Any]
    methodology: dict[str, Any]
    cells: dict[str, dict[str, Any]]  # cell -> {bench, params, samples_s, ts_us}
    created_utc: str = ""
    label: str | None = None
    profile_id: str | None = None

    def samples(self) -> dict[str, list[float]]:
        """Cell id → wall-time samples (seconds), collection order."""
        return {cell: list(data["samples_s"])
                for cell, data in self.cells.items()}

    def medians(self) -> dict[str, float]:
        import numpy as np

        return {cell: float(np.median(data["samples_s"]))
                for cell, data in self.cells.items()}

    # -- JSONL (observe/export schema) ------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """The profile as schema-conforming JSONL records."""
        header = {
            "type": "meta",
            "name": "perf-profile",
            "cat": "meta",
            "attrs": {
                "schema": export.SCHEMA_VERSION,
                "kind": "perf-profile",
                "suite": self.suite,
                "created_utc": self.created_utc,
                "label": self.label,
                "host": self.host,
                "methodology": self.methodology,
            },
        }
        records: list[dict[str, Any]] = [header]
        for cell, data in self.cells.items():
            ts_list = data.get("ts_us") or []
            for i, wall_s in enumerate(data["samples_s"]):
                ts_us = ts_list[i] if i < len(ts_list) else float(i)
                records.append({
                    "type": "span",
                    "name": cell,
                    "cat": PERF_CAT,
                    "ts_us": round(float(ts_us), 3),
                    "dur_us": round(float(wall_s) * 1e6, 3),
                    "tid": 0,
                    "attrs": {
                        "bench": data.get("bench", cell),
                        "params": data.get("params", {}),
                        "repeat": i,
                        "wall_s": float(wall_s),
                    },
                })
        return records

    @classmethod
    def from_records(cls, records: list[dict[str, Any]],
                     profile_id: str | None = None) -> "Profile":
        header = next(
            (r for r in records
             if r.get("type") == "meta"
             and r.get("attrs", {}).get("kind") == "perf-profile"),
            None,
        )
        if header is None:
            raise ValueError("not a perf profile: no perf-profile meta record")
        attrs = header["attrs"]
        cells: dict[str, dict[str, Any]] = {}
        for record in records:
            if record.get("type") != "span" or record.get("cat") != PERF_CAT:
                continue
            cell = record["name"]
            rattrs = record.get("attrs", {})
            slot = cells.setdefault(cell, {
                "bench": rattrs.get("bench", cell),
                "params": rattrs.get("params", {}),
                "samples_s": [],
                "ts_us": [],
            })
            wall_s = rattrs.get("wall_s", record.get("dur_us", 0.0) / 1e6)
            slot["samples_s"].append(float(wall_s))
            slot["ts_us"].append(float(record.get("ts_us", 0.0)))
        return cls(
            suite=attrs.get("suite", "unknown"),
            host=attrs.get("host", {}),
            methodology=attrs.get("methodology", {}),
            cells=cells,
            created_utc=attrs.get("created_utc", ""),
            label=attrs.get("label"),
            profile_id=profile_id,
        )

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(r, separators=(",", ":")) for r in self.to_records()
        ) + "\n"


@dataclass
class BaselinePin:
    """One named baseline: which profile, pinned when."""

    name: str
    profile: str
    pinned_utc: str
    note: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"profile": self.profile, "pinned_utc": self.pinned_utc,
                "note": self.note}


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` to a temp file and rename it over ``path``, so an
    interrupt at any point leaves the old file or the new one, never a
    truncated one that every later ``perf check`` would choke on."""
    pending = path + ".tmp"
    try:
        with open(pending, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(pending, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(pending)


@dataclass
class ProfileStore:
    """Filesystem-backed profile store (see module docstring)."""

    root: str = DEFAULT_ROOT
    _baselines: dict[str, BaselinePin] = field(default_factory=dict,
                                               init=False, repr=False)

    @property
    def profiles_dir(self) -> str:
        return os.path.join(self.root, "profiles")

    @property
    def baselines_path(self) -> str:
        return os.path.join(self.root, "baselines.json")

    # -- profiles ----------------------------------------------------------

    def save(self, profile: Profile) -> str:
        """Persist a profile; returns its (timestamped, unique) id."""
        os.makedirs(self.profiles_dir, exist_ok=True)
        created = profile.created_utc or _utc_now()
        profile.created_utc = created
        base_id = f"{created}-{profile.suite}"
        profile_id, n = base_id, 1
        while os.path.exists(self._path(profile_id)):
            profile_id = f"{base_id}.{n}"
            n += 1
        _replace_file(self._path(profile_id), profile.to_jsonl())
        profile.profile_id = profile_id
        return profile_id

    def load(self, profile_id: str) -> Profile:
        records = export.read_jsonl(self._path(profile_id))
        return Profile.from_records(records, profile_id=profile_id)

    def ids(self, suite: str | None = None) -> list[str]:
        """Stored profile ids, oldest first (ids sort chronologically)."""
        if not os.path.isdir(self.profiles_dir):
            return []
        out = sorted(
            name[:-len(".jsonl")]
            for name in os.listdir(self.profiles_dir)
            if name.endswith(".jsonl")
        )
        if suite is not None:
            out = [pid for pid in out if self._suite_of(pid) == suite]
        return out

    def latest(self, suite: str | None = None) -> str | None:
        ids = self.ids(suite)
        return ids[-1] if ids else None

    def iter_profiles(self, suite: str | None = None) -> Iterator[Profile]:
        for profile_id in self.ids(suite):
            yield self.load(profile_id)

    def _path(self, profile_id: str) -> str:
        return os.path.join(self.profiles_dir, f"{profile_id}.jsonl")

    @staticmethod
    def _suite_of(profile_id: str) -> str:
        # "<timestamp>-<suite>[.n]": the timestamp contains no "-".
        _, _, rest = profile_id.partition("-")
        return rest.rsplit(".", 1)[0] if rest.rpartition(".")[2].isdigit() \
            else rest

    # -- baselines ---------------------------------------------------------

    def _read_baselines(self) -> dict[str, BaselinePin]:
        if not os.path.exists(self.baselines_path):
            return {}
        with open(self.baselines_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return {
            name: BaselinePin(name=name, profile=entry["profile"],
                              pinned_utc=entry.get("pinned_utc", ""),
                              note=entry.get("note"))
            for name, entry in raw.items()
        }

    def baselines(self) -> dict[str, BaselinePin]:
        return self._read_baselines()

    def set_baseline(self, name: str, profile_id: str,
                     note: str | None = None) -> BaselinePin:
        """Pin ``name`` to a stored profile (must exist in the store)."""
        if not os.path.exists(self._path(profile_id)):
            raise FileNotFoundError(
                f"cannot pin baseline {name!r}: no stored profile "
                f"{profile_id!r}"
            )
        pins = self._read_baselines()
        pins[name] = BaselinePin(name=name, profile=profile_id,
                                 pinned_utc=_utc_now(), note=note)
        os.makedirs(self.root, exist_ok=True)
        _replace_file(self.baselines_path, json.dumps(
            {n: p.to_dict() for n, p in pins.items()},
            indent=2, sort_keys=True) + "\n")
        return pins[name]

    def get_baseline(self, name: str) -> BaselinePin | None:
        return self._read_baselines().get(name)

    def baseline_profile(self, name: str) -> Profile | None:
        pin = self.get_baseline(name)
        return self.load(pin.profile) if pin is not None else None
