"""Command-line interface: run AMPC algorithms on edge-list files.

Usage::

    python -m repro connectivity graph.txt [--epsilon 0.5] [--seed 0]
    python -m repro mis graph.txt
    python -m repro matching graph.txt
    python -m repro coloring graph.txt
    python -m repro msf weighted.txt          # needs a weight column
    python -m repro two-cycle cycles.txt
    python -m repro bc graph.txt              # bridges / articulation / 2ecc
    python -m repro chaos connectivity graph.txt --crash 0.2 --outage 0.1
    python -m repro chaos mis graph.txt --backend process \
        --kill-worker 0.1 --hang-worker 0.05 --delay-reply 0.1
    python -m repro verify --smoke [--chaos] [--json report.json]
    python -m repro verify --smoke --backend process --workers 4
    python -m repro verify --backend process --process-faults
    python -m repro trace connectivity [graph.txt] [--detail machine]
    python -m repro bench --quick
    python -m repro perf pairs --parent ../parent --pairs 10 \
        --workload listrank-1m --workload 'dds_get[n=20000]'
    python -m repro serve graph.txt --query mis_member:17
    python -m repro serve --size 500 --workload bursty-hotspot
    python -m repro loadgen --size 400 [--json rows.json]
    python -m repro generate er 1000 3000 out.txt [--seed 0]

Algorithm runs, traces, and verify sweeps accept ``--backend
{serial,process}`` and ``--workers N`` to execute rounds on the
multi-core process backend (results and cost ledgers are bit-identical
to serial; see docs/api.md "Execution backends").

Every run prints the result summary followed by the per-round cost
ledger (``--no-ledger`` to suppress). Bad input — a missing file, a
malformed parameter, an out-of-range rate — exits 2 with one
``repro <command>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

#: Verify-case input kinds an edge-list file can feed.
GRAPH_KINDS = ("graph", "weighted")

#: ``repro generate`` families and the parameters each takes.
GENERATE_PARAMS = {"er": "n m", "ba": "n k", "grid": "rows cols",
                   "cycle": "n", "two-cycle": "n", "tree": "n"}


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it as one line and
    returns 2. Raised by input validation only; an error inside a solve
    keeps its traceback."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMPC graph algorithms (SPAA 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=["serial", "process"],
                       default="serial",
                       help="execution backend: 'serial' (default) or "
                            "'process' (multi-core worker pool; results "
                            "and ledgers are bit-identical to serial)")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-backend worker count "
                            "(default: autodetect from CPU count)")

    def add_run(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="edge-list file (u v [w] per line)")
        p.add_argument("--epsilon", type=float, default=0.5,
                       help="space exponent ε (default 0.5)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-ledger", action="store_true",
                       help="suppress the per-round cost table")
        add_backend(p)
        return p

    add_run("connectivity", "connected components (paper §6)")
    add_run("mis", "maximal independent set (paper §5)")
    add_run("matching", "maximal matching (extension)")
    add_run("coloring", "greedy (Δ+1)-coloring (extension)")
    add_run("msf", "minimum spanning forest (paper §7; weighted input)")
    add_run("two-cycle", "one cycle or two? (paper §4; 2-regular input)")
    add_run("bc", "bridges / articulation points / 2ECC (paper §9)")

    from repro.verify.oracles import CASES

    chaos = sub.add_parser(
        "chaos",
        help="run an algorithm under a fault plan and print the recovery "
             "ledger",
    )
    chaos.add_argument("algorithm", choices=[
                           name for name, case in CASES.items()
                           if case.kind in GRAPH_KINDS],
                       help="verify case to run under faults (msf and "
                            "affinity read a weight column)")
    chaos.add_argument("graph", help="edge-list file (u v [w] per line)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="algorithm seed (placement, permutations)")
    chaos.add_argument("--fault-seed", type=int, default=1,
                       help="seed of the fault streams (independent of "
                            "--seed)")
    chaos.add_argument("--crash", type=float, default=0.2,
                       help="machine crash probability per attempt")
    chaos.add_argument("--outage", type=float, default=0.1,
                       help="DDS server outage probability per round")
    chaos.add_argument("--timeout", type=float, default=0.0,
                       help="transient read-timeout probability")
    chaos.add_argument("--straggler", type=float, default=0.0,
                       help="straggler probability per machine per round")
    chaos.add_argument("--replication", type=int, default=2,
                       help="replicas per key-value pair (failover depth)")
    chaos.add_argument("--kill-worker", type=float, default=0.0,
                       metavar="P",
                       help="real-process fault: SIGKILL a pool worker "
                            "mid-task with probability P per shard "
                            "(needs --backend process). Process faults "
                            "reach only rounds that shard (per-item and "
                            "per-block, e.g. mis); connectivity's rounds "
                            "are fused and run in the parent")
    chaos.add_argument("--hang-worker", type=float, default=0.0,
                       metavar="P",
                       help="real-process fault: worker computes but "
                            "never replies (after the armed-plan 1 s deadline "
                            "the parent re-runs its shard)")
    chaos.add_argument("--delay-reply", type=float, default=0.0,
                       metavar="P",
                       help="real-process fault: delay a worker's reply "
                            "(straggler; costs wall time only)")
    chaos.add_argument("--fork-fail", type=float, default=0.0,
                       metavar="P",
                       help="real-process fault: respawn fork attempts "
                            "fail with probability P")
    add_backend(chaos)
    chaos.add_argument("--no-verify", action="store_true",
                       help="skip the fault-free reference run and the "
                            "bit-identity check")
    chaos.add_argument("--no-ledger", action="store_true",
                       help="suppress the per-round cost table")

    verify = sub.add_parser(
        "verify",
        help="conformance sweep: algorithms x generators x seeds, with "
             "runtime invariant observers and differential oracles",
    )
    verify.add_argument("--algorithm", "-a", action="append", default=None,
                        metavar="NAME",
                        help="restrict to this algorithm (repeatable; "
                             "default: all registered)")
    verify.add_argument("--family", "-f", action="append", default=None,
                        metavar="NAME",
                        help="restrict to this generator family (repeatable)")
    verify.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="seed matrix (default: 0 1 for --smoke, "
                             "0 1 2 otherwise)")
    verify.add_argument("--size", type=int, default=None,
                        help="target instance size n (default by mode)")
    verify.add_argument("--smoke", action="store_true",
                        help="CI mode: small instances, two seeds")
    verify.add_argument("--chaos", action="store_true",
                        help="also run every case with its runtimes armed "
                             "with the default fault plan; a cell where no "
                             "fault fired is marked n/a (no fault fired)")
    verify.add_argument("--process-faults", action="store_true",
                        help="arm the default real-process fault plan "
                             "(kill/hang/delay workers) for every cell; "
                             "requires --backend process — the serial "
                             "twin stays fault-free and must still be "
                             "bit-identical; a fused-only case is exempt "
                             "(one line), and any other cell whose rounds "
                             "never shard fails")
    add_backend(verify)
    verify.add_argument("--balance-slack", type=float, default=4.0,
                        help="constant factor over the Lemma 2.1 balance "
                             "bound (default 4.0)")
    verify.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON conformance report here "
                             "('-' for stdout)")
    verify.add_argument("--list", action="store_true",
                        help="list registered algorithms and families, "
                             "then exit")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress the per-cell progress lines")

    trace = sub.add_parser(
        "trace",
        help="run one algorithm with the observability layer armed; "
             "export a Chrome/Perfetto trace, JSONL events, and a "
             "metrics snapshot, all reconciled against the cost ledger",
    )
    trace.add_argument("algorithm",
                       help="a registered algorithm (see `repro verify "
                            "--list`)")
    trace.add_argument("graph", nargs="?", default=None,
                       help="edge-list file; omit to generate a workload "
                            "with --family/--size")
    trace.add_argument("--family", default=None, metavar="NAME",
                       help="generator family for synthetic input "
                            "(default: the algorithm's first registered "
                            "family)")
    trace.add_argument("--size", type=int, default=200,
                       help="synthetic instance size n (default 200)")
    trace.add_argument("--seed", type=int, default=0)
    add_backend(trace)
    trace.add_argument("--detail", choices=["round", "machine", "op"],
                       default="machine",
                       help="trace granularity (default machine; op emits "
                            "one event per remote read/write)")
    trace.add_argument("--chrome", metavar="PATH", default="trace.json",
                       help="Chrome trace_event output for "
                            "chrome://tracing / Perfetto (default "
                            "trace.json; '-' to skip)")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="also write the raw JSONL event stream here")
    trace.add_argument("--metrics", metavar="PATH",
                       default="metrics.json",
                       help="metrics snapshot output (default "
                            "metrics.json; '-' to skip the file and print "
                            "to stdout)")
    trace.add_argument("--no-summary", action="store_true",
                       help="suppress the rendered timeline and metric "
                            "summary")

    perf = sub.add_parser(
        "perf",
        help="time this checkout against a parent checkout in alternating "
             "pairs (docs/perf.md)",
    )
    perf_sub = perf.add_subparsers(dest="perf_cmd", required=True)
    pairs = perf_sub.add_parser(
        "pairs",
        help="run bench workloads and suite cells in both checkouts, "
             "alternating which goes first; print a verdict per metric or "
             "cell (exit 1 on a wrong answer or a 'worse' verdict)",
    )
    pairs.add_argument("--parent", required=True, metavar="DIR",
                       help="the parent checkout, at a path as long as "
                            "this one's")
    pairs.add_argument("--pairs", type=int, default=10, metavar="K",
                       help="alternating pairs per name (default 10)")
    pairs.add_argument("--workload", action="append", default=[],
                       metavar="NAME",
                       help="a BENCHMARK.json workload or a suite cell "
                            "such as 'dds_get[n=20000]' (repeatable; "
                            "default every workload)")

    bench = sub.add_parser(
        "bench",
        help="run the benchmark suite under pytest (--quick for a tiny "
             "deterministic smoke sweep of every bench module)",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smoke mode: keep only the smallest "
                            "parametrization of each benchmark, disable "
                            "timing, fail on any exception")
    bench.add_argument("--bench-dir", default="benchmarks", metavar="DIR",
                       help="benchmark directory (default: benchmarks)")
    bench.add_argument("-k", dest="keyword", default=None, metavar="EXPR",
                       help="forwarded to pytest -k")

    serve = sub.add_parser(
        "serve",
        help="build a resident serving engine and answer queries "
             "(LFMIS membership, connectivity, subtree aggregates) "
             "against its sealed state",
    )
    serve.add_argument("graph", nargs="?", default=None,
                       help="edge-list file; omit to generate an ER "
                            "workload with --size")
    serve.add_argument("--size", type=int, default=200,
                       help="synthetic instance size n (default 200; "
                            "m = 2n)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--epsilon", type=float, default=0.5)
    serve.add_argument("--query", action="append", default=None,
                       metavar="KIND:KEY[,KEY2]",
                       help="answer one request and print its ledger; "
                            "repeatable (kinds: mis_member, component_of, "
                            "same_component, subtree_size)")
    serve.add_argument("--workload", default="poisson-zipf",
                       help="named workload to demo when no --query is "
                            "given (default poisson-zipf)")
    serve.add_argument("--requests", type=int, default=50,
                       help="demo workload length (default 50)")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive synthetic traffic at a resident serving engine; "
             "report sustained QPS + p50/p95/p99 per workload",
    )
    loadgen.add_argument("graph", nargs="?", default=None,
                         help="edge-list file; omit to generate an ER "
                              "workload with --size")
    loadgen.add_argument("--size", type=int, default=400,
                         help="synthetic instance size n (default 400; "
                              "m = 2n)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--workloads", default=None, metavar="A,B,...",
                         help="comma-separated workload names (default: "
                              "all standard patterns)")
    loadgen.add_argument("--requests", type=int, default=None,
                         help="override n_requests per workload")
    loadgen.add_argument("--max-queue", type=int, default=256,
                         help="admission-control queue bound (default 256)")
    loadgen.add_argument("--batch-window", type=int, default=32,
                         help="requests per scheduling tick (default 32)")
    loadgen.add_argument("--json", metavar="PATH", default=None,
                         help="write the result rows as JSON here "
                              "('-' for stdout)")

    stats_p = sub.add_parser("stats", help="describe a graph file")
    stats_p.add_argument("graph", help="edge-list file")

    ingest = sub.add_parser(
        "ingest",
        help="convert an edge-list file or RMAT spec into a "
             "memory-mapped binary CSR cache (out-of-core; see "
             "repro.graph.csr) and print its stats",
    )
    ingest.add_argument("source",
                        help="edge-list path, or an RMAT spec "
                             "'rmat:SCALE[:EDGE_FACTOR]' "
                             "(e.g. rmat:20:16)")
    ingest.add_argument("out", help="output CSR cache directory")
    ingest.add_argument("--seed", type=int, default=0,
                        help="RMAT seed (default 0)")
    ingest.add_argument("--chunk-edges", type=int, default=1 << 20,
                        metavar="K",
                        help="edges processed per chunk (bounds RSS; "
                             "default 2**20)")
    ingest.add_argument("--drop-self-loops", action="store_true",
                        help="silently drop u==u rows from edge-list "
                             "input instead of failing (RMAT input "
                             "always drops them)")
    ingest.add_argument("--force", action="store_true",
                        help="rebuild even if the cache directory "
                             "already holds a CSR cache of this source")
    ingest.add_argument("--no-stats", action="store_true",
                        help="skip the graph-stats summary (avoids "
                             "touching every page of a huge cache)")

    gen = sub.add_parser("generate", help="write a synthetic workload")
    gen.add_argument("family", choices=list(GENERATE_PARAMS))
    gen.add_argument("params", nargs="+", help=" | ".join(
        f"{family}: {names}" for family, names in GENERATE_PARAMS.items()
    ))
    gen.add_argument("out", help="output edge-list path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weighted", action="store_true",
                     help="attach distinct random weights")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _generate, "chaos": _chaos, "verify": _verify,
        "trace": _trace, "bench": _bench, "perf": _perf, "serve": _serve,
        "loadgen": _loadgen, "stats": _stats, "ingest": _ingest,
    }.get(args.command, _run)
    try:
        return handler(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _read_graph(path: str, weighted: bool = False):
    """The edge list at ``path``; a missing or malformed file is bad input."""
    from repro.graph import files

    read = files.read_weighted_edge_list if weighted else files.read_edge_list
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {path}: {reason}") from None


def _file_workload(case, path: str, seed: int):
    """The :class:`~repro.verify.oracles.Workload` a graph-input verify
    case reads from the edge list at ``path`` (with its weight column
    when the case is weighted)."""
    from repro.verify.oracles import Workload

    payload = _read_graph(path, case.kind == "weighted")
    return Workload(family="file", kind=case.kind, payload=payload, seed=seed)


def _stats(args) -> int:
    from repro.graph import stats

    print(stats.graph_stats(_read_graph(args.graph)).format())
    return 0


def _ingest(args) -> int:
    """Build an on-disk CSR cache from an edge list or RMAT spec."""
    from repro.graph import csr, stats

    try:
        graph, built = csr.ingest(
            args.source, args.out, seed=args.seed,
            chunk_edges=args.chunk_edges,
            drop_self_loops=args.drop_self_loops, force=args.force)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"{args.source}: {reason}") from None
    if not built:
        print(f"cache up to date: {graph!r} (use --force to rebuild)")
        return 0
    print(f"built {graph!r}")
    if not args.no_stats:
        print(stats.graph_stats(graph).format())
    return 0


def _generate(args) -> int:
    from repro.graph import files, generators

    names = GENERATE_PARAMS[args.family]
    try:
        p = [int(x) for x in args.params]
    except ValueError:
        p = []
    if len(p) != len(names.split()):
        raise UsageError(f"{args.family} takes integer parameters {names}, "
                         f"got {' '.join(args.params)}")
    if args.family == "er":
        g = generators.erdos_renyi_gnm(p[0], p[1], rng=args.seed)
    elif args.family == "ba":
        g = generators.barabasi_albert(p[0], p[1], rng=args.seed)
    elif args.family == "grid":
        g = generators.grid(p[0], p[1])
    elif args.family == "cycle":
        g = generators.cycle(p[0])
    elif args.family == "two-cycle":
        g, _ = generators.random_two_cycle_instance(p[0], rng=args.seed)
    else:  # tree
        g = generators.random_tree(p[0], rng=args.seed)
    if args.weighted:
        g = generators.with_random_weights(g, rng=args.seed)
    files.write_edge_list(g, args.out)
    print(f"wrote {args.family} graph: n={g.n} m={g.m} -> {args.out}")
    return 0


def _bench(args) -> int:
    """``repro bench [--quick]`` — pytest over the benchmark directory.

    ``--quick`` sets ``REPRO_BENCH_QUICK=1`` (the benchmark conftest
    keeps only the smallest parametrization of each test) and disables
    timing, so the sweep exercises every bench module end to end in
    seconds and fails on any exception.
    """
    import os
    import subprocess

    import repro

    if not os.path.isdir(args.bench_dir):
        raise UsageError(f"benchmark directory not found: {args.bench_dir}")

    env = dict(os.environ)
    # Make sure the subprocess resolves the same `repro` package.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")

    cmd = [sys.executable, "-m", "pytest", args.bench_dir, "-q",
           "-p", "no:cacheprovider"]
    if args.quick:
        env["REPRO_BENCH_QUICK"] = "1"
        cmd.append("--benchmark-disable")
    if args.keyword:
        cmd += ["-k", args.keyword]

    mode = "quick smoke" if args.quick else "full"
    print(f"bench: {mode} sweep of {args.bench_dir}/ "
          f"({' '.join(cmd[2:])})")
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        print(f"bench: FAILED (pytest exit {proc.returncode})",
              file=sys.stderr)
    return proc.returncode


def _perf(args) -> int:
    """``repro perf pairs``: this checkout against ``--parent``."""
    from pathlib import Path

    from repro.perf import compare

    change = Path(__file__).resolve().parents[2]
    if not (change / "BENCHMARK.json").is_file():
        raise UsageError(f"{change} is not a checkout of this repository")
    try:
        return compare(change, Path(args.parent).resolve(), args.pairs,
                       args.workload)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _verify(args) -> int:
    from repro.verify import case_names, verify_sweep
    from repro.verify.oracles import CASES
    from repro.verify.runner import family_names

    if args.list:
        print("algorithms:", " ".join(case_names()))
        print("families:  ", " ".join(family_names()))
        return 0

    if args.process_faults and args.backend != "process":
        raise UsageError("--process-faults injects real worker faults and "
                         "needs --backend process")

    # With `--json -` the report owns stdout; human lines go to stderr.
    human = sys.stderr if args.json == "-" else sys.stdout

    def progress(record) -> None:
        na = " (no fault fired)" if record.no_fault_fired else ""
        marker = "FAIL" if not record.ok else "n/a" if na else "ok "
        print(f"  [{marker}] {record.algorithm:20s} "
              f"{record.family:18s} seed={record.seed} "
              f"n={record.n} rounds={record.rounds}{na}", file=human)

    report = verify_sweep(
        algorithms=args.algorithm,
        families=args.family,
        seeds=args.seeds,
        size=args.size,
        smoke=args.smoke,
        chaos=args.chaos,
        backend=args.backend,
        workers=args.workers,
        process_faults=args.process_faults,
        balance_slack=args.balance_slack,
        progress=None if args.quiet else progress,
    )

    summary = report.summary()
    print(f"verify: {summary['cells']} cells, "
          f"{summary['failed']} failed, "
          f"{summary['invariant_violations']} invariant violations, "
          f"{summary['oracle_disagreements']} oracle disagreements, "
          f"{summary['nondeterministic']} nondeterministic", file=human)
    for name in report.settings["algorithms"]:
        for armed, kind in ((args.chaos, "chaos"), (args.process_faults, "process")):
            reason = getattr(CASES[name], f"{kind}_exempt")
            if armed and reason:
                print(f"  [n/a] {name}: {kind} exempt: {reason}", file=human)
    if summary["unfaulted_cases"]:
        print(f"no fault fired in any armed cell of: "
              f"{' '.join(summary['unfaulted_cases'])}", file=human)
    if not report.ok:
        print(report.format_failures(), file=human)

    if args.json == "-":
        print(report.to_json())
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote JSON report -> {args.json}")

    # At smoke shapes a case whose every armed cell went unhit fails.
    ok = report.ok and not (args.smoke and summary["unfaulted_cases"])
    if args.smoke:
        from repro.verify.runner import SMOKE_CELLS

        markers = {True: "ok ", False: "FAIL"}
        for _name, skip, run in SMOKE_CELLS:
            if skip(args):
                continue
            for outcome in run(args):
                print(f"  [{markers[outcome['ok']]}] {outcome['summary']}",
                      file=human)
                for problem in outcome["problems"]:
                    print(f"    {problem}", file=human)
                ok = ok and outcome["ok"]
    return 0 if ok else 1


def _serve_graph(args):
    """Load the edge-list, or generate the default ER serving instance."""
    from repro.graph import generators

    if args.graph is not None:
        return _read_graph(args.graph), args.graph
    n = args.size
    return (generators.erdos_renyi_gnm(n, 2 * n, rng=args.seed),
            f"er(n={n}, m={2 * n})")


def _parse_query(spec: str):
    from repro.serve import ServeRequest

    kind, _, keys = spec.partition(":")
    parts = [p for p in keys.split(",") if p]
    try:
        key = int(parts[0])
        key2 = int(parts[1]) if len(parts) > 1 else -1
    except (IndexError, ValueError):
        raise UsageError(f"malformed --query {spec!r}; expected "
                         f"KIND:KEY[,KEY2]") from None
    return ServeRequest(kind=kind, key=key, key2=key2)


def _serve(args) -> int:
    """``repro serve`` — build a resident engine, answer queries."""
    from repro.serve import ServingEngine, run_loadgen, workload_config

    graph, source = _serve_graph(args)
    requests = [_parse_query(spec) for spec in args.query or ()]
    engine = ServingEngine(graph, epsilon=args.epsilon, seed=args.seed)
    for spec, request in zip(args.query or (), requests):
        try:
            engine.validate(request)
        except ValueError as exc:
            raise UsageError(f"--query {spec}: {exc}") from None
    s = engine.summary()
    print(f"resident engine over {source}: n={s['n']} m={s['m']} "
          f"components={s['n_components']} "
          f"(built in {s['build_rounds']} rounds)")
    if args.query:
        for spec, request in zip(args.query, requests):
            resp = engine.execute_one(request)
            print(f"  {spec:32s} -> {resp.value!r}  "
                  f"[reads={resp.reads} writes={resp.writes} "
                  f"query_calls={resp.query_calls}]")
        problems = engine.reconcile()
        for problem in problems:
            print(f"  ledger problem: {problem}", file=sys.stderr)
        return 0 if not problems else 1
    cfg = workload_config(args.workload, n_requests=args.requests,
                          seed=args.seed)
    result = run_loadgen(engine, cfg)
    row = result.summary()
    print(f"  workload {row['workload']}: {row['completed']} served, "
          f"{row['rejected']} shed, qps={row['qps']:.0f}, "
          f"p50={row['p50_ms']:.3f}ms p99={row['p99_ms']:.3f}ms, "
          f"reconciled={row['reconciled']}")
    return 0 if row["reconciled"] else 1


def _loadgen(args) -> int:
    """``repro loadgen`` — replay the named workloads, one row each."""
    import json as _json

    from repro.serve import (
        STANDARD_WORKLOADS, AdmissionControl, loadgen_matrix,
    )

    names = (args.workloads.split(",") if args.workloads
             else sorted(STANDARD_WORKLOADS))
    unknown = [name for name in names if name not in STANDARD_WORKLOADS]
    if unknown:
        raise UsageError(f"unknown workload {', '.join(unknown)}; expected "
                         f"{', '.join(sorted(STANDARD_WORKLOADS))}")
    graph, source = _serve_graph(args)
    admission = AdmissionControl(max_queue=args.max_queue,
                                 batch_window=args.batch_window)
    payload = loadgen_matrix(
        graph, workloads=names, n_requests=args.requests, seed=args.seed,
        admission=admission,
    )
    payload["source"] = source
    print(f"loadgen over {source}: {len(names)} workloads")
    header = (f"  {'workload':18s} {'served':>7s} "
              f"{'shed':>5s} {'qps':>9s} {'p50ms':>8s} {'p99ms':>8s} ok")
    print(header)
    all_ok = True
    for row in payload["rows"]:
        all_ok &= row["reconciled"]
        print(f"  {row['workload']:18s} "
              f"{row['completed']:7d} {row['rejected']:5d} "
              f"{row['qps']:9.0f} {row['p50_ms']:8.3f} "
              f"{row['p99_ms']:8.3f} "
              f"{'yes' if row['reconciled'] else 'NO'}")
    if args.json == "-":
        print(_json.dumps(payload, indent=2))
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if all_ok else 1


def _trace(args) -> int:
    import json

    from repro.analysis import render_timeline
    from repro.observe import (
        TracingSession,
        reconcile_metrics,
        reconcile_with_report,
        to_chrome_trace,
        validate_chrome,
        validate_records,
        to_records,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.verify.oracles import CASES
    from repro.verify.runner import make_workload

    if args.algorithm not in CASES:
        raise UsageError(f"unknown algorithm {args.algorithm!r}; "
                         f"registered: {' '.join(CASES)}")
    case = CASES[args.algorithm]

    if args.graph is not None:
        if case.kind not in GRAPH_KINDS:
            raise UsageError(f"{case.name} consumes generated {case.kind!r} "
                             f"instances; drop the graph file and use "
                             f"--family/--size")
        workload = _file_workload(case, args.graph, args.seed)
        source = args.graph
    else:
        family = args.family or case.families[0]
        if family not in case.families:
            raise UsageError(f"{case.name} does not accept family "
                             f"{family!r} (choices: "
                             f"{' '.join(case.families)})")
        workload = make_workload(case, family, args.size, args.seed)
        n, m = workload.size
        source = f"{family} n={n} m={m}"

    print(f"tracing {case.name} on {source} "
          f"(detail={args.detail}, backend={args.backend})")

    with _backend(args):
        with TracingSession(detail=args.detail, metrics=True) as session:
            result = case.run(workload, args.seed)
    report = case.report_of(result)

    # Schema + ledger reconciliation: a trace that disagrees with the
    # cost ledger is worse than no trace, so failure is an error exit.
    problems = validate_records(to_records(session.events))
    problems += validate_chrome(to_chrome_trace(session.events))
    if report is not None:
        problems += reconcile_with_report(session.events, report)
        problems += reconcile_metrics(session.snapshot, report)

    if args.chrome != "-":
        write_chrome_trace(session.events, args.chrome)
        print(f"wrote Chrome trace -> {args.chrome}  "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(session.events, args.jsonl)
        print(f"wrote JSONL events -> {args.jsonl}")
    if args.metrics == "-":
        print(json.dumps(session.snapshot, indent=2, sort_keys=True))
    elif args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(session.snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics snapshot -> {args.metrics}")

    if not args.no_summary and report is not None:
        counters = session.snapshot.get("counters", {})
        print()
        print(f"{len(session.events)} trace events, "
              f"{report.n_rounds} rounds, "
              f"reads={report.total_reads} writes={report.total_writes} "
              f"(ledger == trace == metrics: {not problems})")
        scalar_r = counters.get("ops.scalar_reads", 0)
        batch_r = counters.get("ops.batch_read_elems", 0)
        if scalar_r or batch_r:
            print(f"read mix: {scalar_r} scalar, {batch_r} batched")
        print()
        print(render_timeline(report))

    if problems:
        print()
        for p in problems:
            print(f"trace problem: {p}", file=sys.stderr)
        return 1
    return 0


def chaos_plan(args):
    """The :class:`~repro.core.chaos.FaultPlan` ``repro chaos`` arms;
    raises ValueError on an out-of-range rate."""
    from repro.core.chaos import FaultPlan

    return FaultPlan(
        seed=args.fault_seed,
        machine_crash_probability=args.crash,
        server_outage_probability=args.outage,
        read_timeout_probability=args.timeout,
        straggler_probability=args.straggler,
        worker_kill_probability=args.kill_worker,
        worker_hang_probability=args.hang_worker,
        reply_delay_probability=args.delay_reply,
        fork_failure_probability=args.fork_fail,
    )


def _chaos(args) -> int:
    from repro.analysis import render_recovery_table
    from repro.core.chaos import ChaosRuntime
    from repro.core.runtime import use_runtime
    from repro.verify.oracles import CASES

    process_faults = any((args.kill_worker, args.hang_worker,
                          args.delay_reply, args.fork_fail))
    if process_faults and args.backend != "process":
        raise UsageError("--kill-worker/--hang-worker/--delay-reply/"
                         "--fork-fail inject real process faults and need "
                         "--backend process")
    if args.replication < 1:
        raise UsageError(f"--replication must be >= 1, got {args.replication}")
    case = CASES[args.algorithm]
    workload = _file_workload(case, args.graph, args.seed)
    print(f"loaded {workload.payload!r} from {args.graph}")
    try:
        plan = chaos_plan(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"fault plan: crash={args.crash} outage={args.outage} "
          f"timeout={args.timeout} straggler={args.straggler} "
          f"replication={args.replication} seed={args.fault_seed}")
    if process_faults:
        print(f"process faults: kill={args.kill_worker} "
              f"hang={args.hang_worker} delay={args.delay_reply} "
              f"fork-fail={args.fork_fail} "
              f"(backend={args.backend}, workers={args.workers or 'auto'})")

    with use_runtime(lambda c: ChaosRuntime(
            c.with_replication(args.replication), plan=plan,
            backend=args.backend, n_workers=args.workers)):
        res = case.run(workload, args.seed)
    report = case.report_of(res)
    print(f"{case.name}: {report.n_rounds} rounds")

    if not args.no_verify:
        identical = case.digest(res) == case.digest(
            case.run(workload, args.seed))
        print(f"bit-identical to fault-free run: {identical}")
        if not identical:
            return 1

    print()
    print(render_recovery_table(report))
    if not args.no_ledger:
        print()
        print(report.format_table())
    return 0


def _backend(args):
    """Build every runtime inside the ``with`` block on ``--backend`` with
    ``--workers``."""
    from functools import partial

    from repro.core.runtime import AMPCRuntime, use_runtime

    return use_runtime(partial(AMPCRuntime, backend=args.backend,
                               n_workers=args.workers))


def _run(args) -> int:
    graph = _read_graph(args.graph, args.command == "msf")
    print(f"loaded {graph!r} from {args.graph}")
    if args.backend != "serial":
        print(f"backend: {args.backend} "
              f"(workers={args.workers or 'auto'})")
    with _backend(args):
        return _run_dispatch(args, graph)


def _run_dispatch(args, graph) -> int:
    import repro

    kwargs = dict(epsilon=args.epsilon, seed=args.seed)
    if args.command == "connectivity":
        res = repro.connectivity(graph, **kwargs)
        print(f"components: {res.n_components} "
              f"(phases: {res.phases}, rounds: {res.report.n_rounds})")
    elif args.command == "mis":
        res = repro.maximal_independent_set(graph, **kwargs)
        print(f"|MIS| = {res.vertices.size} "
              f"(iterations: {res.iterations}, rounds: {res.report.n_rounds})")
    elif args.command == "matching":
        res = repro.maximal_matching(graph, **kwargs)
        print(f"|matching| = {res.edge_ids.size} "
              f"(iterations: {res.iterations}, rounds: {res.report.n_rounds})")
    elif args.command == "coloring":
        res = repro.greedy_coloring(graph, **kwargs)
        print(f"colors used: {res.n_colors} "
              f"(iterations: {res.iterations}, rounds: {res.report.n_rounds})")
    elif args.command == "msf":
        res = repro.minimum_spanning_forest(graph, **kwargs)
        print(f"MSF: {res.edge_ids.size} edges, "
              f"total weight {res.total_weight:.6g} "
              f"(phases: {res.phases}, rounds: {res.report.n_rounds})")
    elif args.command == "two-cycle":
        res = repro.two_cycle(graph, **kwargs)
        answer = "two cycles" if res.is_two_cycles else "one cycle"
        print(f"answer: {answer} (lengths {res.cycle_lengths}, "
              f"rounds: {res.report.n_rounds})")
    elif args.command == "bc":
        res = repro.bc_labeling(graph, **kwargs)
        print(f"bridges: {res.bridges.shape[0]}, "
              f"articulation points: {res.articulation_points.size}, "
              f"2-edge-connected components: "
              f"{int(np.unique(res.two_edge_labels).size)} "
              f"(rounds: {res.report.n_rounds})")
    else:  # pragma: no cover - argparse prevents this
        raise SystemExit(f"unknown command {args.command}")

    if not args.no_ledger:
        print()
        print(res.report.format_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
