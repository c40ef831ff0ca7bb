#!/usr/bin/env python3
"""The repository's benchmark: one command, seven workloads, every layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is the result as one JSON
        object (end-to-end metrics with --trace 0, per-layer with --trace 1)
    python3 bench/run.py [--seed N] [--traced] [--out FILE]
        every workload in turn, as a table; --out adds a results file with
        a provenance header
    python3 bench/run.py --selftest
        every workload at tiny sizes, checking the harness itself

Each workload runs in a fresh child process (``child.py``): this process
generates the seeded inputs into ``.bench_work/`` under the checkout, the
child loads them, warms up once, times the repeats and writes its answers
back, and this process checks every answer against a sequential reference.
See ``README.md`` for what each metric means and ``workloads.py`` for why
each workload exists.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK_ROOT = REPO / ".bench_work"
SETUP_REPEATS = 3
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170


def _fail_early(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


if not (REPO / "src" / "repro" / "__init__.py").is_file():
    _fail_early("src/repro not found next to bench/: nothing to measure")
sys.path.insert(0, str(REPO / "src"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS  # noqa: E402


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def run_workload(workload, *, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, setup_repeats: int = SETUP_REPEATS,
                 min_repeats: int = MIN_REPEATS, keep_work: bool = False) -> dict:
    """Generate, measure in a child, check. Returns the full record."""
    sizes = dict(workload.sizes if sizes is None else sizes)
    work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shm_before = _shm_segments()
    try:
        generate_s, ref = [], None
        for _ in range(setup_repeats):
            ref = None
            start = time.perf_counter()
            ref = workload.generate(seed, sizes, work)
            generate_s.append(time.perf_counter() - start)

        spec = {
            "repo": str(REPO), "work": str(work), "workload": workload.name,
            "sizes": sizes, "seed": seed, "seconds": seconds,
            "trace": int(trace), "setup_repeats": setup_repeats,
            "min_repeats": min_repeats,
        }
        # Start-up (interpreter + imports) is part of set-up; like the
        # rest of it, it is sampled several times: the first children
        # only import, the last one goes on to measure.
        startup_s = []
        for i in range(setup_repeats):
            last = i == setup_repeats - 1
            result = _spawn_child(work, dict(spec, import_only=not last))
            startup_s.append(result["startup_s"])
        problems, wrong_ops = workload.check(ref, sizes, seed, work)
        leftovers = _shm_segments() - shm_before
        if leftovers:
            # Another program's segment lives for one round; a leak stays.
            time.sleep(0.5)
            leftovers &= _shm_segments()
        if leftovers:
            problems.append(f"/dev/shm leftovers: {sorted(leftovers)}")
    finally:
        if not keep_work:
            shutil.rmtree(work, ignore_errors=True)
            if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
    result["startup_s"] = startup_s
    return _verdict(workload, seed, sizes, trace, generate_s, result,
                    problems, wrong_ops)


def _spawn_child(work: Path, spec: dict) -> dict:
    spec["spawned_at"] = time.time()
    (work / "spec.json").write_text(json.dumps(spec))
    # TMPDIR keeps anything the program spills inside the checkout.
    child = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(work / "spec.json")],
        cwd=REPO, env=dict(os.environ, TMPDIR=str(work)),
        timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']}: child exited with {child.returncode}"
        )
    return json.loads((work / "result.json").read_text())


def _expected_digest(workload, seed: int, sizes: dict) -> str | None:
    """The checked-in ledger digest, if this is the configuration it pins."""
    path = BENCH / "expected.json"
    if not path.is_file():
        return None
    expected = json.loads(path.read_text())
    if seed != expected["seed"] or sizes != workload.sizes:
        return None
    return expected["digests"].get(workload.name)


def _verdict(workload, seed, sizes, trace, generate_s, result, problems,
             wrong_ops) -> dict:
    """Count failures and assemble both metric sets."""
    repeats = result["repeats"]
    final = repeats[-1]
    attempted = sum(r["info"]["ops"] for r in repeats)
    failed = 0
    want_digest = _expected_digest(workload, seed, sizes)
    if result["warmup_hash"] != final["hash"]:
        problems.append("the warm-up answered differently from the last repeat")
    for i, r in enumerate(repeats):
        info = r["info"]
        # The last repeat's answer is the one checked against the
        # reference; any repeat that answered differently is wrong too.
        bad = wrong_ops if r["hash"] == final["hash"] else info["ops"]
        if r["hash"] != final["hash"]:
            problems.append(f"repeat {i} answered differently from the last")
        if r["digest"] != final["digest"]:
            problems.append(f"repeat {i} has a different ledger digest")
            bad += 1
        elif want_digest is not None and r["digest"] != want_digest:
            bad += 1
        if workload.kind == "serve":
            lost = info["serve.sent"] - info["serve.completed"]
            bad += lost + info["serve.reconcile_problems"]
            if lost:
                problems.append(f"repeat {i}: {lost} requests shed or unserved")
            problems += info["reconcile"]
        if info.get("parallel.fallbacks"):
            problems.append(f"repeat {i}: a sharded round fell back to serial")
            bad += 1
        failed += min(bad, info["ops"])
    if want_digest is not None and final["digest"] != want_digest:
        problems.append(
            f"ledger digest {final['digest'][:12]} != expected "
            f"{want_digest[:12]} (bench/expected.json)"
        )
    if trace:
        t = result["trace"]
        problems += t["problems"]
        if t["still_installed"]:
            problems.append(f"{t['still_installed']} probes not uninstalled")
    if not result["gc_enabled"]:
        problems.append("gc was disabled in the child")
    if problems and not failed:
        failed = 1

    # Every end-to-end time is the best of its samples (see README,
    # "Statistic"): on a shared host contention only ever adds time.
    plain = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    wall_s = min(r["wall_s"] for r in plain)
    setup = {
        "generate_s": min(generate_s),
        "startup_s": min(result["startup_s"]),
        "prepare_s": min(result["prepare_s"]),
    }
    if workload.kind == "serve":
        latency = {
            "qps": max(r["info"]["serve.qps"] for r in plain),
            "p50_ms": min(r["info"]["p50_ms"] for r in plain),
        }
    else:
        latency = {"qps": 1.0 / wall_s, "p50_ms": wall_s * 1e3}
    end_to_end = {"wall_s": wall_s, "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": sum(setup.values()), **latency}

    record = {
        "workload": workload.name, "seed": seed, "sizes": sizes,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "end_to_end": end_to_end, "setup": setup,
        "samples": {"wall_s": [r["wall_s"] for r in plain],
                    "generate_s": generate_s,
                    "startup_s": result["startup_s"],
                    "prepare_s": result["prepare_s"]},
        "repeats": len(plain), "statistic": "best of repeats",
        "workers": final["info"].get("workers", 0),
        "digest": final["digest"],
    }
    if trace:
        record["per_layer"], record["shares"] = _per_layer(
            result, final, traced, plain
        )
    return record


def _per_layer(result, final, traced, plain) -> tuple[dict, dict]:
    """Every per-layer metric of a traced run.

    Span metrics are read off the fastest traced repeat, so they add up to
    its ``trace.wall_s``; metrics that need no spans (counts, qps, p99)
    come from the fastest untraced repeat, free of probe overhead.
    """
    best = min(traced, key=lambda r: r["wall_s"])
    best_plain = min(plain, key=lambda r: r["wall_s"])
    computed = {
        **{f"core.cost.{k}": v for k, v in final["model"].items()},
        "core.cost.ledger_digest": int(final["digest"][:12], 16),
        "trace.overhead_share": best["wall_s"] / best_plain["wall_s"] - 1.0,
        "trace.spans": result["trace"]["spans"],
        "trace.probes_missing": len(result["trace"]["missing"]),
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        for source in (computed, best["layer"], best_plain["info"]):
            if name in source:
                out[name] = source[name]
                break
        else:
            out[name] = 0
    # The resident state is published during set-up, not in the timed
    # region: book the traced build's share of these two where they occur.
    for name in ("core.runtime.publish_s", "core.runtime.checkpoint_s"):
        out[name] += result["setup_layer"][name]
    return out, best["shares"]


# -- output ----------------------------------------------------------------


UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def contract_line(record: dict, trace: bool) -> str:
    """The one-line JSON result the driver reads."""
    values = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    })


def print_record(record: dict, trace: bool) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"sizes={record['sizes']}  best of {record['repeats']} repeats  "
          f"failed={record['failed']}/{record['attempted']}")
    for key, value in record["end_to_end"].items():
        print(f"  {key:<34}{value:>16.6g} {UNITS[key]}")
    for key, value in record["setup"].items():
        print(f"    setup.{key:<28}{value:>16.6g} s")
    if trace:
        for key, value in record["per_layer"].items():
            print(f"  {key:<34}{value:>16.6g} {UNITS[key]}")
        shares = "  ".join(f"{k}={v:.1%}" for k, v in record["shares"].items())
        print(f"  layer shares of traced wall: {shares}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def provenance(seed: int) -> dict:
    from repro.perf import host_fingerprint

    nproc = os.cpu_count() or 1
    return {
        "host": host_fingerprint(), "nproc": nproc, "seed": seed,
        "statistic": "best of repeats", "warmup": 1,
        "min_repeats": MIN_REPEATS,
        "setup_repeats": SETUP_REPEATS,
        "unresolved": ["listrank-1m-proc"] if nproc < 2 else [],
    }


# -- selftest --------------------------------------------------------------


def selftest() -> int:
    """All workloads at tiny sizes; checks the harness, not the program."""
    import re

    failures: list[str] = []
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    for key, ours in (
        ("workloads", [(w.name, w.why) for w in WORKLOADS]),
        ("end_to_end", [tuple(m) for m in END_TO_END]),
        ("per_layer", [tuple(m) for m in PER_LAYER]),
    ):
        theirs = [tuple(d.values()) for d in declared[key]]
        if theirs != ours:
            failures.append(f"BENCHMARK.json {key} differs from bench/metrics.py")
        failures += [f"bad name {m[0]!r}" for m in ours if not name_ok.match(m[0])]

    digests = {}
    for workload in WORKLOADS:
        record = run_workload(workload, seed=7, seconds=0.2, trace=True,
                              sizes=workload.tiny, setup_repeats=1,
                              min_repeats=1)
        digests[workload.name] = record["digest"]
        failures += [f"{workload.name}: {p}" for p in record["problems"]]
        if set(record["per_layer"]) != {m[0] for m in PER_LAYER}:
            failures.append(f"{workload.name}: per-layer metric set differs")
        layer = record["per_layer"]
        if layer["trace.unattributed_s"] > layer["trace.wall_s"]:
            failures.append(f"{workload.name}: self time exceeds traced wall")
        if abs(sum(record["shares"].values()) - 1.0) > 1e-6:
            failures.append(f"{workload.name}: layer shares do not sum to 1")
        serial = workload.name != "listrank-1m-proc"
        if serial and layer["parallel.rounds_sharded"]:
            failures.append(f"{workload.name}: sharded rounds on a serial run")
        if not serial and not layer["parallel.rounds_sharded"]:
            failures.append(f"{workload.name}: no round was sharded")
        print(f"selftest {workload.name}: "
              f"{'ok' if not record['problems'] else 'FAILED'}")
    if digests["listrank-1m"] != digests["listrank-1m-proc"]:
        failures.append("process-backend ledger differs from the serial one")
    for failure in failures:
        print(f"SELFTEST FAILURE: {failure}")
    print("selftest", "passed" if not failures else "FAILED")
    return 1 if failures else 0


# -- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed repeats run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add the traced pass")
    parser.add_argument("--out", help="write a results file with provenance")
    parser.add_argument("--keep-work", action="store_true",
                        help="leave inputs, answers and trace.jsonl in "
                             ".bench_work/")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json from this run")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    if (os.cpu_count() or 1) < 2:
        print("warning: fewer than 2 cores; listrank-1m-proc is unresolved",
              file=sys.stderr)

    if args.workload:
        trace = bool(args.trace)
        record = run_workload(BY_NAME[args.workload], seed=args.seed,
                              seconds=seconds, trace=trace,
                              keep_work=args.keep_work)
        print_record(record, trace)
        print(contract_line(record, trace))
        return 0 if record["correct"] else 1

    records = []
    for workload in WORKLOADS:
        for trace in (False, True) if args.traced else (False,):
            record = run_workload(workload, seed=args.seed, seconds=seconds,
                                  trace=trace, keep_work=args.keep_work)
            print_record(record, trace)
            records.append(dict(record, traced=trace))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"provenance": provenance(args.seed), "results": records}, indent=1
        ))
    if args.update_expected:
        (BENCH / "expected.json").write_text(json.dumps({
            "seed": args.seed,
            "digests": {r["workload"]: r["digest"] for r in records},
        }, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
