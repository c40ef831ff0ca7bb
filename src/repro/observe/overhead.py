"""Observability overhead measurement (the <5% guard).

One question, answered reproducibly: what does arming the default
tracer + metrics cost, and what does the *existence* of the hook points
cost when nothing is armed? The contract (enforced by the traced smoke
case of ``repro verify --smoke``):

* **disabled** — no observers installed — must be ~0%: every hook site
  is a single ``is None`` / gate-flag predicate.
* **armed** (``detail="machine"`` tracer + metrics) must stay under 5%:
  armed consumers only receive per-round and per-machine events; the
  per-operation hot paths stay unwired unless an observer actually
  overrides a per-op hook (see ``repro.core.hooks.ObserverFan``).

Timings use **process CPU time** (``time.process_time``) — observation
overhead is pure CPU, and CPU time is immune to the scheduler noise of
shared CI hosts that makes small wall-clock deltas unmeasurable. Even
so, CPU-frequency drift on such hosts moves identical runs by ±10% over
tens of seconds, so the estimator is *paired*: each sweep times every
candidate back-to-back (rotating the order — the last slot measures
faster from warmed caches), computes the overhead ratio *within* the
sweep, and the reported overhead is the **median ratio across sweeps**.
Adjacent runs share host conditions; best-of-N across the whole suite
does not. The reference workload is connectivity on a G(n, 2n) random
graph — the acceptance workload named by the roadmap's Figure 1 story.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Any, Callable

from . import TracingSession

#: Overhead budget (percent) for the armed default-detail session.
ARMED_BUDGET_PCT = 5.0


def _paired_sweeps(
    fns: list[Callable[[], Any]], repeats: int
) -> tuple[list[list[float]], list[Any]]:
    """Per-sweep times for several thunks, plus each thunk's last result.

    Returns ``(times, results)`` with ``times[sweep][i]`` the CPU
    seconds of ``fns[i]`` during that sweep. The call order rotates
    every sweep so no candidate always enjoys the warmed last slot.
    """
    times = [[0.0] * len(fns) for _ in range(max(1, repeats))]
    results: list[Any] = [None] * len(fns)
    for sweep in range(max(1, repeats)):
        order = [(sweep + j) % len(fns) for j in range(len(fns))]
        for i in order:
            # Collect before each candidate so one run's garbage (e.g.
            # trace events) never bills a later candidate's window.
            gc.collect()
            start = time.process_time()
            results[i] = fns[i]()
            times[sweep][i] = time.process_time() - start
    return times, results


def overhead_trial(
    *,
    n: int = 3000,
    seed: int = 0,
    detail: str = "machine",
    repeats: int = 3,
) -> dict[str, Any]:
    """Measure disabled and armed overhead on one connectivity workload.

    Returns a dict with ``base_s`` / ``disabled_s`` / ``armed_s``
    (median CPU seconds over ``repeats`` sweeps) and the derived
    ``disabled_overhead_pct`` / ``armed_overhead_pct`` — each a median
    of *within-sweep* ratios, the drift-robust estimator described in
    the module docstring. "Disabled" is a second unobserved run — its
    delta against the first shows the hook sites themselves are in the
    noise floor.
    """
    import repro
    from repro.graph import generators

    graph = generators.erdos_renyi_gnm(n, 2 * n, seed)

    def run_plain() -> Any:
        return repro.connectivity(graph, seed=seed)

    def run_armed() -> Any:
        with TracingSession(detail=detail, metrics=True) as session:
            result = repro.connectivity(graph, seed=seed)
        return result, session

    times, outs = _paired_sweeps([run_plain, run_plain, run_armed], repeats)
    base_result = outs[0]
    armed_result, session = outs[2]

    base_s = median(t[0] for t in times)
    disabled_s = median(t[1] for t in times)
    armed_s = median(t[2] for t in times)
    disabled_pct = median(100.0 * (t[1] - t[0]) / t[0] for t in times)
    armed_pct = median(100.0 * (t[2] - t[0]) / t[0] for t in times)

    ledger_ok = (
        armed_result.report.total_reads == base_result.report.total_reads
        and armed_result.report.total_writes == base_result.report.total_writes
    )
    return {
        "workload": f"connectivity er n={n} m={2 * n}",
        "n": n,
        "seed": seed,
        "detail": detail,
        "repeats": repeats,
        "base_s": base_s,
        "disabled_s": disabled_s,
        "armed_s": armed_s,
        "disabled_overhead_pct": disabled_pct,
        "armed_overhead_pct": armed_pct,
        "events": len(session.events),
        "ledger_identical": ledger_ok,
    }
