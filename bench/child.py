"""Child process of ``run.py``: one workload, measured in isolation.

Reads a spec file, sets the workload up, runs one warm-up and the timed
repeats (optionally some of them traced), and writes ``result.json`` plus
the last repeat's answer files into the work directory for the parent to
check. Nothing here is imported by the parent, so this process's peak RSS
is the program's plus numpy's, not the generator's or the reference's.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set of *this* program image.

    ``ru_maxrss`` will not do: across fork+exec it starts from the parent's
    own peak, so a parent that generated a large input would be billed to
    the child. ``VmHWM`` belongs to the address space created by exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["repo"]) / "src"))

    import numpy as np
    import repro.core.runtime as core_runtime
    import repro.parallel.backend  # noqa: F401  alias scan needs these loaded
    import repro.serve  # noqa: F401

    from metrics import ROOT, probe_targets, traced_metrics
    from spans import Tracer
    from workloads import BY_NAME, ledger_digest, model_counts

    workload = BY_NAME[spec["workload"]]
    work = Path(spec["work"])
    sizes, seed, seconds = spec["sizes"], spec["seed"], spec["seconds"]
    trace = bool(spec["trace"])
    startup_s = time.time() - spec["spawned_at"]
    if spec["import_only"]:
        (work / "result.json").write_text(json.dumps({"startup_s": startup_s}))
        return
    if core_runtime._GLOBAL_OBSERVERS:
        raise RuntimeError("an observer is installed; timings would include it")

    tracer = Tracer()
    targets = probe_targets() if trace else []

    def measured(fn, root_name: str | None):
        """``(fn(), seconds, root span id)``; traced iff ``root_name``."""
        if root_name is None:
            start = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - start, -1
        tracer.install(targets)
        try:
            start = time.perf_counter()
            with tracer.root(root_name) as root_id:
                out = fn()
            return out, time.perf_counter() - start, root_id
        finally:
            tracer.uninstall()

    # -- set-up, several times over; a traced run traces the last one -------
    prepare_s, state, setup_root = [], None, -1
    for i in range(spec["setup_repeats"]):
        state = None
        last = i == spec["setup_repeats"] - 1
        state, took, setup_root = measured(
            lambda: workload.prepare(work, sizes, seed),
            "bench/setup" if trace and last else None,
        )
        prepare_s.append(took)

    def repeat(traced: bool) -> dict:
        workload.before_repeat(state)
        out, wall, root_id = measured(
            lambda: workload.run(state), ROOT if traced else None
        )
        info = workload.answer(state, out, work)
        del out
        rows = info.pop("rows")
        if "serve.busy_wall_s" in info:
            info["serve.loop_overhead_s"] = wall - info["serve.busy_wall_s"]
        record = {"wall_s": wall, "traced": traced, "hash": info.pop("hash"),
                  "digest": ledger_digest(rows), "model": model_counts(rows),
                  "info": info}
        latency_ms, ticks = info.pop("_latency_ms", None), info.pop("_ticks", None)
        if traced:
            layer, record["shares"], tick_ms = traced_metrics(tracer, root_id)
            record["layer"] = layer
            if tick_ms and latency_ms is not None:
                # Queue wait = latency - the service time of the request's
                # own tick; needs the raw latencies and one step span per
                # tick. A step span is a little longer than the service time
                # the scheduler stamps, hence the floor at zero.
                waits = np.maximum(latency_ms - np.asarray(tick_ms)[ticks], 0.0)
                layer["serve.queue_wait_ms_p50"] = float(np.percentile(waits, 50))
                layer["serve.queue_wait_ms_p95"] = float(np.percentile(waits, 95))
        return record

    # -- warm-up, then timed repeats ----------------------------------------
    warmup = repeat(False)
    repeats: list[dict] = []
    peak_mb = 0.0
    began = time.perf_counter()

    def timed(traced: bool) -> None:
        nonlocal peak_mb
        repeats.append(repeat(traced))
        if len(repeats) == spec["min_repeats"]:
            # Read at a fixed repeat count: a resident engine's ledger grows
            # with every replay, and how many fit in --seconds depends on
            # the host's speed that minute.
            peak_mb = peak_rss_mb()

    if trace:
        # A third of the time untraced (the overhead baseline), the rest
        # traced; at least one of each.
        while not repeats or time.perf_counter() - began < seconds / 3:
            timed(False)
        n_plain = len(repeats)
        while len(repeats) == n_plain or time.perf_counter() - began < seconds:
            timed(True)
    else:
        while (len(repeats) < spec["min_repeats"]
               or time.perf_counter() - began < seconds):
            timed(False)
    if not peak_mb:  # fewer repeats than min_repeats (traced runs)
        peak_mb = peak_rss_mb()
    result = {
        "startup_s": startup_s,
        "prepare_s": prepare_s,
        "warmup_hash": warmup["hash"],
        "repeats": repeats,
        "peak_rss_mb": peak_mb,
        "gc_enabled": gc.isenabled(),
    }
    if trace:
        result["setup_layer"] = traced_metrics(tracer, setup_root)[0]
        result["trace"] = {
            "spans": len(tracer.spans),
            "problems": tracer.problems()[:20],
            "missing": tracer.missing,
            "still_installed": tracer.installed,
        }
        tracer.write_jsonl(str(work / "trace.jsonl"))

    # Stop pool workers and unlink shared memory before reporting, so the
    # parent's /dev/shm check sees the final state.
    from repro.parallel import scrub_arenas, shutdown_pool

    shutdown_pool()
    scrub_arenas()
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
