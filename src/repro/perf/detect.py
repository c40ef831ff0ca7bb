"""Noise-aware statistical degradation detectors.

Three detectors compare the wall-time samples of one (bench, params)
cell between a *baseline* profile and a *candidate* profile:

* **median-shift** — relative shift of the median with a bootstrap
  percentile confidence interval. The cell only counts as slower when
  the whole interval clears the shift threshold, so a lucky (or
  unlucky) single resample of the same distribution stays "no-change".
* **Mann–Whitney U** — rank-sum test (normal approximation with tie
  correction and continuity correction, no SciPy dependency) asking
  whether the candidate's samples are stochastically larger.
* **best-of-k exceedance** — the fastest observed run is the least
  noise-contaminated statistic on a shared host (noise only ever adds
  time); the rule fires when the candidate's best run exceeds the
  baseline's best by a tolerance factor.

The combined verdict (:func:`classify_cell`) is deliberately
conservative: **degradation** requires the median-shift detector *and*
at least one corroborating detector to agree (symmetrically for
improvement). A single detector alone is "no-change" — that is what
keeps the false-positive rate bounded under resampling (property-tested
in ``tests/test_perf_detect.py``).

Every stochastic step (the bootstrap) is seeded from a hash of the
sample bytes, so the verdict is a pure function of the two profiles —
re-running ``repro perf check`` on the same files always produces the
identical report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

DEGRADATION = "degradation"
IMPROVEMENT = "improvement"
NO_CHANGE = "no-change"

#: Host-fingerprint keys that must match for a comparison to be
#: meaningful: scaling numbers from a 1-core host say nothing about a
#: 4-core host.
STRICT_HOST_KEYS = ("host_cores", "machine", "python")

#: Methodology keys every collected profile must record (satellite of
#: ISSUE 7: the 1-core caveat becomes machine-checked).
REQUIRED_METHODOLOGY = ("repeats", "statistic")


class HostMismatchError(ValueError):
    """Baseline and candidate were measured on incompatible hosts."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__(
            "refusing to compare profiles: " + "; ".join(self.problems)
        )


@dataclass(frozen=True)
class DetectorConfig:
    """Tunables of the three detectors and the combined vote."""

    shift_threshold: float = 0.05   # relative median shift that matters
    confidence: float = 0.95        # bootstrap CI mass
    n_boot: int = 1000              # bootstrap resamples
    alpha: float = 0.01             # Mann-Whitney significance level
    best_of: int = 3                # min samples for the exceedance rule
    best_of_tolerance: float = 1.15  # best-run ratio that fires the rule
    min_samples: int = 3            # below this a cell is incomparable


@dataclass
class DetectorVote:
    """One detector's opinion about one cell."""

    detector: str
    direction: str  # degradation | improvement | no-change
    statistic: float
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "direction": self.direction,
            "statistic": self.statistic,
            "detail": self.detail,
        }


def _seed_from_samples(*arrays: Sequence[float]) -> int:
    """Deterministic RNG seed derived from the raw sample bytes."""
    digest = hashlib.blake2b(digest_size=8)
    for array in arrays:
        digest.update(np.asarray(array, dtype=np.float64).tobytes())
    return int.from_bytes(digest.digest(), "little")


def _norm_sf(z: float) -> float:
    """Standard-normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# the three detectors
# ---------------------------------------------------------------------------


def median_shift(
    baseline: Sequence[float],
    candidate: Sequence[float],
    config: DetectorConfig = DetectorConfig(),
) -> DetectorVote:
    """Relative median shift with a bootstrap percentile CI.

    Degradation when the whole CI sits above ``shift_threshold``;
    improvement when it sits below ``-shift_threshold``.
    """
    b = np.asarray(baseline, dtype=np.float64)
    c = np.asarray(candidate, dtype=np.float64)
    med_b, med_c = float(np.median(b)), float(np.median(c))
    if med_b <= 0.0:
        return DetectorVote("median_shift", NO_CHANGE, 0.0,
                            {"reason": "non-positive baseline median"})
    shift = (med_c - med_b) / med_b

    rng = np.random.default_rng(_seed_from_samples(b, c))
    boot_b = np.median(
        b[rng.integers(0, b.size, size=(config.n_boot, b.size))], axis=1
    )
    boot_c = np.median(
        c[rng.integers(0, c.size, size=(config.n_boot, c.size))], axis=1
    )
    shifts = (boot_c - boot_b) / np.maximum(boot_b, 1e-300)
    tail = (1.0 - config.confidence) / 2.0
    lo, hi = (float(q) for q in np.quantile(shifts, [tail, 1.0 - tail]))

    if lo > config.shift_threshold:
        direction = DEGRADATION
    elif hi < -config.shift_threshold:
        direction = IMPROVEMENT
    else:
        direction = NO_CHANGE
    return DetectorVote(
        "median_shift", direction, shift,
        {"ci_lo": lo, "ci_hi": hi, "threshold": config.shift_threshold,
         "confidence": config.confidence, "n_boot": config.n_boot},
    )


def mann_whitney(
    baseline: Sequence[float],
    candidate: Sequence[float],
    config: DetectorConfig = DetectorConfig(),
) -> DetectorVote:
    """Rank-sum test: are the candidate samples stochastically larger?

    Normal approximation with tie correction and a 0.5 continuity
    correction — exact enough at bench sample sizes, and dependency-free.
    """
    b = np.asarray(baseline, dtype=np.float64)
    c = np.asarray(candidate, dtype=np.float64)
    nb, nc = b.size, c.size
    combined = np.concatenate([b, c])
    n = nb + nc

    _, inverse, counts = np.unique(
        combined, return_inverse=True, return_counts=True
    )
    upper = np.cumsum(counts)
    ranks = ((upper - counts + 1) + upper)[inverse] / 2.0

    u_candidate = float(ranks[nb:].sum()) - nc * (nc + 1) / 2.0
    mean_u = nb * nc / 2.0
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    tie_term = tie_term / (n * (n - 1)) if n > 1 else 0.0
    sigma2 = nb * nc / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0.0:  # all samples tied: no evidence either way
        return DetectorVote("mann_whitney", NO_CHANGE, u_candidate,
                            {"reason": "all samples tied"})
    sigma = math.sqrt(sigma2)
    p_slower = _norm_sf((u_candidate - mean_u - 0.5) / sigma)
    p_faster = _norm_sf((mean_u - u_candidate - 0.5) / sigma)

    if p_slower < config.alpha:
        direction = DEGRADATION
    elif p_faster < config.alpha:
        direction = IMPROVEMENT
    else:
        direction = NO_CHANGE
    return DetectorVote(
        "mann_whitney", direction, u_candidate,
        {"p_slower": p_slower, "p_faster": p_faster, "alpha": config.alpha},
    )


def best_of_k(
    baseline: Sequence[float],
    candidate: Sequence[float],
    config: DetectorConfig = DetectorConfig(),
) -> DetectorVote:
    """Exceedance of the best (fastest) observed run.

    Requires at least ``best_of`` samples on each side — a single lucky
    run is not evidence. Noise only ever adds time, so the minima are
    the cleanest point estimates two noisy sweeps can offer.
    """
    b = np.asarray(baseline, dtype=np.float64)
    c = np.asarray(candidate, dtype=np.float64)
    if b.size < config.best_of or c.size < config.best_of:
        return DetectorVote("best_of_k", NO_CHANGE, 0.0,
                            {"reason": f"needs >= {config.best_of} samples"})
    best_b, best_c = float(b.min()), float(c.min())
    if best_b <= 0.0:
        return DetectorVote("best_of_k", NO_CHANGE, 0.0,
                            {"reason": "non-positive baseline best"})
    ratio = best_c / best_b
    if ratio > config.best_of_tolerance:
        direction = DEGRADATION
    elif ratio < 1.0 / config.best_of_tolerance:
        direction = IMPROVEMENT
    else:
        direction = NO_CHANGE
    return DetectorVote(
        "best_of_k", direction, ratio,
        {"best_baseline_s": best_b, "best_candidate_s": best_c,
         "tolerance": config.best_of_tolerance},
    )


# ---------------------------------------------------------------------------
# combined per-cell verdict
# ---------------------------------------------------------------------------


@dataclass
class CellComparison:
    """Combined verdict for one (bench, params) cell."""

    cell: str
    baseline_median_s: float
    candidate_median_s: float
    shift_pct: float
    verdict: str
    votes: list[DetectorVote]

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell": self.cell,
            "baseline_median_s": self.baseline_median_s,
            "candidate_median_s": self.candidate_median_s,
            "shift_pct": self.shift_pct,
            "verdict": self.verdict,
            "votes": [v.to_dict() for v in self.votes],
        }


def classify_cell(
    cell: str,
    baseline: Sequence[float],
    candidate: Sequence[float],
    config: DetectorConfig = DetectorConfig(),
) -> CellComparison:
    """Run all three detectors on one cell and combine their votes.

    Degradation/improvement requires the median-shift detector plus at
    least one corroborating detector pointing the same way; anything
    less is no-change.
    """
    b = np.asarray(baseline, dtype=np.float64)
    c = np.asarray(candidate, dtype=np.float64)
    med_b = float(np.median(b)) if b.size else 0.0
    med_c = float(np.median(c)) if c.size else 0.0
    shift_pct = 100.0 * (med_c - med_b) / med_b if med_b > 0 else 0.0

    if b.size < config.min_samples or c.size < config.min_samples:
        vote = DetectorVote(
            "sample_count", NO_CHANGE, float(min(b.size, c.size)),
            {"reason": f"needs >= {config.min_samples} samples per side"},
        )
        return CellComparison(cell, med_b, med_c, shift_pct, NO_CHANGE,
                              [vote])

    votes = [
        median_shift(b, c, config),
        mann_whitney(b, c, config),
        best_of_k(b, c, config),
    ]
    primary = votes[0].direction
    corroborated = any(v.direction == primary for v in votes[1:])
    verdict = primary if (primary != NO_CHANGE and corroborated) else NO_CHANGE
    return CellComparison(cell, med_b, med_c, shift_pct, verdict, votes)


# ---------------------------------------------------------------------------
# profile-level comparison
# ---------------------------------------------------------------------------


def fingerprint_problems(base_host: dict, cand_host: dict) -> list[str]:
    """Incompatibilities between two host fingerprints (strict keys)."""
    problems = []
    for key in STRICT_HOST_KEYS:
        bv, cv = base_host.get(key), cand_host.get(key)
        if bv is None or cv is None:
            problems.append(f"host fingerprint missing {key!r} "
                            f"(baseline={bv!r}, candidate={cv!r})")
        elif key == "python":
            if _minor(bv) != _minor(cv):
                problems.append(f"python {bv} (baseline) vs {cv} (candidate)")
        elif bv != cv:
            problems.append(f"{key}={bv!r} (baseline) vs {cv!r} (candidate)")
    return problems


def _minor(version: Any) -> str:
    return ".".join(str(version).split(".")[:2])


def methodology_problems(profile: Any, role: str) -> list[str]:
    """Missing methodology fields that make a profile unusable."""
    problems = []
    methodology = getattr(profile, "methodology", None) or {}
    for key in REQUIRED_METHODOLOGY:
        if key not in methodology:
            problems.append(f"{role} profile records no methodology {key!r}")
    if methodology.get("statistic") not in (None, "median"):
        problems.append(
            f"{role} profile uses statistic "
            f"{methodology.get('statistic')!r}, expected 'median'"
        )
    host = getattr(profile, "host", None) or {}
    if "host_cores" not in host:
        problems.append(f"{role} profile records no host_cores")
    return problems


@dataclass
class CheckResult:
    """Outcome of comparing a candidate profile against a baseline."""

    suite: str
    baseline_id: str | None
    candidate_id: str | None
    cells: list[CellComparison]
    missing_cells: list[str]
    new_cells: list[str]
    host_warnings: list[str] = field(default_factory=list)

    @property
    def degradations(self) -> list[CellComparison]:
        return [c for c in self.cells if c.verdict == DEGRADATION]

    @property
    def improvements(self) -> list[CellComparison]:
        return [c for c in self.cells if c.verdict == IMPROVEMENT]

    @property
    def ok(self) -> bool:
        return not self.degradations

    def summary(self) -> dict[str, Any]:
        return {
            "cells": len(self.cells),
            "degradations": len(self.degradations),
            "improvements": len(self.improvements),
            "no_change": sum(
                1 for c in self.cells if c.verdict == NO_CHANGE
            ),
            "missing_cells": len(self.missing_cells),
            "new_cells": len(self.new_cells),
            "ok": self.ok,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "summary": self.summary(),
            "host_warnings": self.host_warnings,
            "missing_cells": self.missing_cells,
            "new_cells": self.new_cells,
            "cells": [c.to_dict() for c in self.cells],
        }


def compare_profiles(
    baseline: Any,
    candidate: Any,
    *,
    config: DetectorConfig = DetectorConfig(),
    allow_host_mismatch: bool = False,
) -> CheckResult:
    """Compare every shared (bench, params) cell of two profiles.

    Raises :class:`HostMismatchError` when the two profiles come from
    incompatible hosts or lack the methodology fields that make a
    comparison meaningful (``allow_host_mismatch=True`` downgrades the
    refusal to recorded warnings).
    """
    problems = methodology_problems(baseline, "baseline")
    problems += methodology_problems(candidate, "candidate")
    problems += fingerprint_problems(
        getattr(baseline, "host", None) or {},
        getattr(candidate, "host", None) or {},
    )
    if problems and not allow_host_mismatch:
        raise HostMismatchError(problems)

    base_cells = baseline.samples()
    cand_cells = candidate.samples()
    shared = [cell for cell in base_cells if cell in cand_cells]
    cells = [
        classify_cell(cell, base_cells[cell], cand_cells[cell], config)
        for cell in shared
    ]
    return CheckResult(
        suite=candidate.suite,
        baseline_id=getattr(baseline, "profile_id", None),
        candidate_id=getattr(candidate, "profile_id", None),
        cells=cells,
        missing_cells=[c for c in base_cells if c not in cand_cells],
        new_cells=[c for c in cand_cells if c not in base_cells],
        host_warnings=problems,
    )
