"""Speed evidence: alternating pairs of parent and change.

:mod:`repro.perf.pairs` is the one way this repository times a change:
``repro perf pairs --parent DIR`` runs bench workloads and suite cells in
both checkouts, alternating which goes first, and reads a verdict per
metric from the pairs (:func:`verdict`). :mod:`repro.perf.suite` registers
the cells it can time (:data:`SUITES`). See ``docs/perf.md``.
"""

from .pairs import (
    AA_PAIRS,
    BETTER,
    NO_CHANGE,
    WORSE,
    alternate,
    compare,
    pair_row,
    pair_stats,
    timed,
    verdict,
)
from .suite import (
    SUITES,
    BenchSpec,
    host_fingerprint,
    observe_overhead_gate,
    quick_mode,
    suite_specs,
)

__all__ = [
    "AA_PAIRS",
    "BETTER",
    "NO_CHANGE",
    "SUITES",
    "WORSE",
    "BenchSpec",
    "alternate",
    "compare",
    "host_fingerprint",
    "observe_overhead_gate",
    "pair_row",
    "pair_stats",
    "quick_mode",
    "suite_specs",
    "timed",
    "verdict",
]
