"""Perf-regression harness: profiles, baselines, degradation detection.

ROADMAP item 3 made first-class (in the mold of Perun's per-version
profile stores): ``collect()`` runs a declared bench suite and emits a
timestamped :class:`Profile` in the ``observe/export.py`` JSONL schema,
:class:`ProfileStore` versions profiles on disk (``.perf/profiles/``)
with named baselines, and :func:`compare_profiles` classifies every
(bench, params) cell as improvement / no-change / degradation with
three noise-aware detectors (bootstrap median-shift CI, Mann–Whitney U,
best-of-k exceedance). The ``repro perf`` CLI wires it into CI:
``collect`` → ``baseline`` → ``check`` (exit 1 on degradation). See
``docs/perf.md``.
"""

from .detect import (
    DEGRADATION,
    IMPROVEMENT,
    NO_CHANGE,
    CellComparison,
    CheckResult,
    DetectorConfig,
    DetectorVote,
    HostMismatchError,
    best_of_k,
    classify_cell,
    compare_profiles,
    fingerprint_problems,
    mann_whitney,
    median_shift,
)
from .report import check_to_json, render_check, render_history
from .store import BaselinePin, Profile, ProfileStore
from .suite import (
    SUITES,
    BenchSpec,
    collect,
    host_fingerprint,
    observe_overhead_gate,
    quick_mode,
    suite_names,
    suite_specs,
)

__all__ = [
    "DEGRADATION",
    "IMPROVEMENT",
    "NO_CHANGE",
    "BaselinePin",
    "BenchSpec",
    "CellComparison",
    "CheckResult",
    "DetectorConfig",
    "DetectorVote",
    "HostMismatchError",
    "Profile",
    "ProfileStore",
    "SUITES",
    "best_of_k",
    "check_to_json",
    "classify_cell",
    "collect",
    "compare_profiles",
    "fingerprint_problems",
    "host_fingerprint",
    "mann_whitney",
    "median_shift",
    "observe_overhead_gate",
    "quick_mode",
    "render_check",
    "render_history",
    "suite_names",
    "suite_specs",
]
