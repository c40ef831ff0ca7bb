"""The multi-core process backend (:mod:`repro.parallel`).

Every test here asserts the backend's central contract: results AND
per-round cost ledgers are bit-identical to the serial path. The module
is ``parallel``-marked (hard per-test timeout via tests/conftest.py) and
wrapped in a /dev/shm leak check — a shared-memory segment that survives
a test is a failure even if the answers match.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import repro
from repro.core import AMPCConfig, AMPCRuntime
from repro.core.chaos import ChaosRuntime, FaultPlan
from repro.core.errors import BudgetExceededError, RoundProtocolError
from repro.core.hooks import RuntimeObserver
from repro.core.runtime import new_runtime, use_runtime
from repro.graph import generators
from repro.parallel import autodetect_workers
from repro.verify.runner import _run_cell, _summary_without_walltime
from repro.verify.oracles import CASES

pytestmark = pytest.mark.parallel

# Satellite: worker-count autodetect with single-core skip — tests that
# check genuine multi-worker placement are meaningless (and skipped) on
# a single-core host; the bit-identity tests below run everywhere.
multicore = pytest.mark.skipif(
    autodetect_workers() < 2,
    reason="single-core host: autodetected worker count < 2",
)


# The /dev/shm leak check is an autouse fixture in tests/conftest.py,
# armed for every parallel/faultproc-marked test.


def _ledger(report):
    return _summary_without_walltime(report)


def _process(workers=2):
    """Build every runtime inside the ``with`` block on the process
    backend."""
    return use_runtime(partial(AMPCRuntime, backend="process",
                               n_workers=workers))


def _run_both(fn, workers=2):
    """Run ``fn()`` serially and under the process backend."""
    serial = fn()
    with _process(workers):
        process = fn()
    return serial, process


# -- end-to-end algorithm parity -------------------------------------------


def _spy_on_dispatch(monkeypatch):
    """Record every ``WorkerPool.run_tasks`` call (then make it)."""
    from repro.parallel import WorkerPool

    dispatched = []
    real = WorkerPool.run_tasks

    def spy(self, *args, **kwargs):
        dispatched.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "run_tasks", spy)
    return dispatched


def test_connectivity_bit_identical(monkeypatch):
    g = generators.erdos_renyi_gnm(300, 450, rng=5)
    dispatched = _spy_on_dispatch(monkeypatch)
    # On 2 workers, and on more workers than the host may have cores.
    for workers in (2, 4):
        serial, process = _run_both(
            lambda: repro.connectivity(g, seed=3), workers
        )
        assert np.array_equal(serial.labels, process.labels)
        assert _ledger(serial.report) == _ledger(process.report)
        # No faults armed: the supervisor had nothing to recover.
        assert process.report.task_retries == 0
        assert process.report.worker_respawns == 0
    # Fused-only: every round ran in the parent.
    assert dispatched == []


def test_connectivity_fused_bfs_runs_in_the_parent(monkeypatch):
    """Connectivity's rounds are all fused, so on the process backend
    the whole solve runs in the parent: no task reaches the pool, no
    round counts as a fallback, and results and ledgers hold."""
    g = generators.erdos_renyi_gnm(2000, 6000, rng=3)
    config = AMPCConfig.for_input(g.n + g.m, seed=4)
    serial = repro.connectivity(g, runtime=AMPCRuntime(config))
    dispatched = _spy_on_dispatch(monkeypatch)
    with _process():
        runtime = new_runtime(config)
        process = repro.connectivity(g, runtime=runtime)
    assert runtime.backend == "process"
    assert runtime.parallel_fallbacks == 0
    assert dispatched == []
    assert np.array_equal(serial.labels, process.labels)
    assert _ledger(serial.report) == _ledger(process.report)


@pytest.mark.parametrize("vectorized", [False, True])
def test_list_ranking_bit_identical(vectorized, monkeypatch):
    # The keyword selects nothing; on either value the fused Shrink and
    # fill-back programs run in the parent.
    succ = generators.linked_list(250, rng=7)
    dispatched = _spy_on_dispatch(monkeypatch)
    serial, process = _run_both(
        lambda: repro.list_ranking(succ, seed=2, vectorized=vectorized)
    )
    assert np.array_equal(serial.ranks, process.ranks)
    assert _ledger(serial.report) == _ledger(process.report)
    assert dispatched == []


@pytest.mark.parametrize("additive", [True, False])
def test_fill_back_across_machine_groups_bit_identical(additive, monkeypatch):
    """Fill-back in several machine groups: the absorber reads are
    de-duplicated per machine within each group, and the process
    backend, which runs the fused program in the parent, must charge
    what the serial run charges."""
    from repro.algorithms.shrink import fill_back, shrink

    config = AMPCConfig(space=8192, n_machines=32, seed=3)
    succ = generators.linked_list(3000, rng=5)
    runs = []
    dispatched = _spy_on_dispatch(monkeypatch)

    def run():
        runtime = new_runtime(config)
        outcome = shrink(succ, runtime, delta=0.5, target_size=750,
                         forced=np.array([generators.list_head(succ)]))
        values = np.full(succ.size, np.nan)
        values[outcome.alive] = outcome.alive
        filled = fill_back(runtime, outcome.history, values,
                           additive=additive)
        runs.append(runtime)
        return filled, runtime.report

    (serial, serial_report), (process, process_report) = _run_both(run)
    assert np.array_equal(serial, process)
    assert _ledger(serial_report) == _ledger(process_report)
    runtime = runs[1]
    assert runtime.backend == "process" and runtime.parallel_fallbacks == 0
    assert dispatched == []


def test_mis_bit_identical():
    g = generators.barabasi_albert(200, 3, rng=11)
    serial, process = _run_both(
        lambda: repro.maximal_independent_set(g, seed=1)
    )
    assert np.array_equal(serial.in_mis, process.in_mis)
    assert _ledger(serial.report) == _ledger(process.report)


@pytest.mark.parametrize("fn,field", [
    (repro.maximal_matching, "edge_ids"),
    (repro.greedy_coloring, "colors"),
    (repro.greedy_edge_coloring, "colors"),
])
def test_greedy_query_rounds_ship_and_stay_bit_identical(fn, field):
    """Matching and both colorings run the shared per-item query
    program: every machine of every round runs in a pool worker (no
    serial fallback), and results and ledgers equal the serial run's."""
    from repro.observe import TracingSession

    g = generators.erdos_renyi_gnm(300, 900, rng=4)
    serial = fn(g, seed=2, query_cap=4)
    with _process():
        with TracingSession(detail="machine") as session:
            process = fn(g, seed=2, query_cap=4)
    assert np.array_equal(getattr(serial, field), getattr(process, field))
    assert serial.iterations == process.iterations > 1
    assert _ledger(serial.report) == _ledger(process.report)
    machines = [e for e in session.events if e.name.startswith("machine ")]
    assert machines
    assert all("worker" in (e.attrs or {}) for e in machines)


def test_msf_bit_identical(monkeypatch):
    # Prim's fused program runs in the parent on either backend; its
    # replayed reads are charged once per machine.
    g = generators.with_random_weights(
        generators.erdos_renyi_gnm(2000, 6000, rng=3), rng=3
    )
    config = AMPCConfig.for_input(g.n + g.m, seed=4)
    runtimes = []
    dispatched = _spy_on_dispatch(monkeypatch)

    def run():
        runtimes.append(new_runtime(config))
        return repro.minimum_spanning_forest(g, runtime=runtimes[-1])

    serial, process = _run_both(run)
    assert np.array_equal(serial.edge_ids, process.edge_ids)
    assert _ledger(serial.report) == _ledger(process.report)
    # No round counted as a fallback to the serial loop.
    assert [rt.backend for rt in runtimes] == ["serial", "process"]
    assert runtimes[1].parallel_fallbacks == 0
    assert dispatched == []


def test_trace_spans_tagged_with_worker():
    from repro.observe import TracingSession

    # MIS: its query round is a per-block program, so every machine has
    # a span of its own (a fused round has one span for all machines).
    g = generators.erdos_renyi_gnm(200, 300, rng=1)
    with _process():
        with TracingSession(detail="machine") as session:
            repro.maximal_independent_set(g, seed=0)
    workers = {e.attrs["worker"] for e in session.events
               if e.attrs and "worker" in e.attrs}
    assert workers, "no machine span carried a worker tag"
    assert all(0 <= w < 2 for w in workers)


@multicore
def test_shards_spread_across_workers():
    from repro.observe import TracingSession

    # MIS: a per-block round, one span per machine (as above).
    g = generators.erdos_renyi_gnm(400, 800, rng=2)
    with _process():
        with TracingSession(detail="machine") as session:
            repro.maximal_independent_set(g, seed=0)
    workers = {e.attrs["worker"] for e in session.events
               if e.attrs and "worker" in e.attrs}
    assert len(workers) >= 2


# -- runtime-level behaviour -----------------------------------------------


def test_unknown_backend_rejected():
    config = AMPCConfig(epsilon=0.5, space=64, n_machines=8, seed=7)
    with pytest.raises(ValueError, match="unknown backend"):
        AMPCRuntime(config, backend="threads")


def test_strict_budget_error_parity():
    def run():
        config = AMPCConfig(epsilon=0.5, space=8, n_machines=4, seed=3,
                            strict=True)
        runtime = new_runtime(config)
        runtime.bootstrap((("v", i), i) for i in range(300))

        def hungry(ctx, item):
            for i in range(300):  # read budget is 32 * 8 = 256
                ctx.read(("v", i))
            return item

        runtime.round(list(range(16)), hungry)

    with pytest.raises(BudgetExceededError) as serial_err:
        run()
    with _process():
        with pytest.raises(BudgetExceededError) as process_err:
            run()
    assert serial_err.value.args == process_err.value.args


def test_chaos_runtime_stays_serial_and_identical():
    """Chaos runs opt out of sharding but stay bit-identical."""
    g = generators.erdos_renyi_gnm(150, 220, rng=9)
    config = AMPCConfig.for_input(g.n + g.m, seed=4, replication_factor=2)
    plan = FaultPlan.machine_crashes(0.1, seed=1)

    from repro.algorithms.connectivity import connectivity

    base = connectivity(g, runtime=ChaosRuntime(config, plan=plan))
    with _process():
        armed = ChaosRuntime(config, plan=plan, backend="process",
                                     n_workers=2)
        assert armed.backend == "process"
        assert not armed.parallel_capable
        under = connectivity(g, runtime=armed)
    assert np.array_equal(base.labels, under.labels)
    assert _ledger(base.report) == _ledger(under.report)


def test_machine_crashes_keep_the_fault_free_connectivity_run():
    """Under a crash plan the fused BFS runs one machine at a time, and a
    crashed machine's replacement replays its items: labels and every
    ledger field but the recovery ones match a fault-free run."""
    g = generators.erdos_renyi_gnm(150, 220, rng=9)
    config = AMPCConfig.for_input(g.n + g.m, seed=4, replication_factor=2)

    from repro.algorithms.connectivity import connectivity

    def rows(report):
        out = report.to_dict()["rounds"]
        for row in out:
            row.pop("recovery", None)
        return out

    clean = connectivity(g, runtime=AMPCRuntime(config))
    armed = ChaosRuntime(
        config, plan=FaultPlan.machine_crashes(0.3, seed=1)
    )
    crashed = connectivity(g, runtime=armed)
    assert armed.report.recovery_summary()["crashes"] > 0
    assert np.array_equal(clean.labels, crashed.labels)
    assert rows(clean.report) == rows(crashed.report)
    assert _ledger(clean.report) == _ledger(crashed.report)


# -- the round contract: one matrix over shape x backend x P x observer -----

N_ITEMS = 48
SHAPES = ("per-item", "per-block", "fused", "per-machine")


def _item_program(ctx, v):
    x = ctx.read(("v", v))
    ctx.write(("o", v), x + 1)
    if v == 0:
        _interleaved_writes(ctx, v, x)
    return x * 2


def _block_program(ctx, block):
    x = ctx.read_array("v", block)
    ctx.write_array("o", block, x + 1)
    _interleaved_writes(ctx, int(block[0]), int(x[0]))
    return x * 2


def _interleaved_writes(ctx, v, x):
    # Scalar writes on both sides of a batch write, two of them to a key
    # every such call writes: the merge must keep every pair's order.
    ctx.write(("dup", -1), v)
    ctx.write_array("b", np.array([v, v + 1]), np.array([x, x]))
    ctx.write(("s", v, 0), x)
    ctx.write(("s", v), x + 2)
    ctx.write(("dup", -1), -v)


def _replay_reads(gctx):
    # Overlapping ranges of few keys: a machine's items share most of
    # them, and each machine pays for each distinct key once.
    gctx.charge_replayed_reads(
        "v", gctx.items % 5, gctx.items % 3 + 1, owner=gctx.machines
    )
    # Slotted keys ("a", row, slot): ranges merge per (machine, row).
    gctx.charge_replayed_reads(
        "a", gctx.items % 2, gctx.items % 4, owner=gctx.machines,
        rows=gctx.items % 3,
    )


def _fused_program(gctx):
    x = gctx.read_array("v", gctx.items, owner=gctx.machines)
    _replay_reads(gctx)
    gctx.write_array("o", gctx.items, x + 1, owner=gctx.machines)
    return x * 2


def _machine_program(ctx):
    x = ctx.read(("v", ctx.machine_id))
    ctx.write(("o", ctx.machine_id), x + 1)
    return x * 2 if ctx.machine_id % 2 else None


def _run_shape(runtime, shape, program=None, n_items=N_ITEMS):
    """One round of ``shape`` reading v[i] = 3i; returns the RoundResult."""
    ids = np.arange(n_items, dtype=np.int64)
    pairs = [(("v", i), 3 * i) for i in range(n_items)]
    arrays = [("v", ids, 3 * ids)]
    if shape == "per-item":
        return runtime.round(list(range(n_items)), program or _item_program,
                             setup=pairs, tag="t")
    if shape == "per-machine":
        return runtime.round(per_machine=program or _machine_program,
                             setup=pairs, tag="t")
    return runtime.round_batch(
        ids, program or (_fused_program if shape == "fused" else _block_program),
        setup_arrays=arrays, fused=shape == "fused", tag="t",
    )


def _row(stats):
    return (stats.tag, stats.kind, stats.rounds, stats.total_reads,
            stats.total_writes, stats.max_machine_reads,
            stats.max_machine_writes, stats.n_machines_active,
            stats.budget_violations, stats.max_server_load)


def _plain(value):
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.tolist() if isinstance(value, np.ndarray) else value


class _Recorder(RuntimeObserver):
    """Records every hook, in order, with its model-visible arguments."""

    def __init__(self):
        self.events = []
        self.worker_ids = set()

    def _machine(self, ctx):
        return getattr(ctx, "machine_id", "fused")

    def on_round_start(self, runtime, read_store, next_store):
        self.events.append(("round_start", read_store.round_index,
                            next_store.round_index))

    def on_assignment(self, runtime, assignment, n_items):
        self.events.append(("assignment", assignment.tolist(), n_items))

    def on_machine_start(self, ctx):
        self.events.append(("machine_start", self._machine(ctx)))

    def on_machine_end(self, ctx):
        self.worker_ids.add(getattr(ctx, "worker_id", None))
        self.events.append(("machine_end", self._machine(ctx),
                            _plain(ctx.reads_used), _plain(ctx.writes_used)))

    def on_machine_read(self, ctx, key):
        self.events.append(("machine_read", self._machine(ctx), key))

    def on_machine_write(self, ctx, key):
        self.events.append(("machine_write", self._machine(ctx), key))

    def on_machine_read_batch(self, ctx, namespace, ids):
        self.events.append(("machine_read_batch", self._machine(ctx),
                            namespace, ids.tolist()))

    def on_machine_write_batch(self, ctx, namespace, ids):
        self.events.append(("machine_write_batch", self._machine(ctx),
                            namespace, ids.tolist()))

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        self.events.append(("round_end", _row(stats),
                            [c.machine_id for c in contexts]))

    def on_restore(self, runtime, checkpoint):
        self.events.append(("restore", checkpoint.report_length))


def _contract_runtime(backend, n_machines, observed, space=256, **config):
    config = AMPCConfig(epsilon=0.5, space=space, n_machines=n_machines,
                        seed=7, **config)
    runtime = (
        ChaosRuntime(config, plan=FaultPlan()) if backend == "chaos"
        else AMPCRuntime(config, backend=backend, n_workers=2)
    )
    recorder = None
    if observed:
        recorder = _Recorder()
        runtime.attach_observer(recorder)
    return runtime, recorder


@pytest.mark.parametrize("n_machines", [1, 8])
@pytest.mark.parametrize("shape", SHAPES)
def test_round_contract_matrix(shape, n_machines):
    """Every program shape gives the same results, ledger row, next store
    and hook-event order on both backends, observed or not."""
    outcomes = {}
    for backend in ("serial", "process"):
        for observed in (False, True):
            runtime, recorder = _contract_runtime(backend, n_machines, observed)
            result = _run_shape(runtime, shape)
            assert runtime.parallel_fallbacks == 0
            outcomes[backend, observed] = (
                _plain(result.results),
                _row(result.stats),
                list(result.store.items()),
                result.store.get_indexed(("dup", -1), 2),
                recorder,
            )
    results, row, written, second, _ = outcomes["serial", False]
    if shape == "per-machine":
        assert results == [6 * m for m in range(n_machines) if m % 2]
    else:
        assert results == [6 * i for i in range(N_ITEMS)]
    assert (second is not None) == (shape in ("per-item", "per-block"))
    for got in outcomes.values():
        assert got[:4] == (results, row, written, second)
    serial, process = outcomes["serial", True][4], outcomes["process", True][4]
    assert serial.events == process.events
    stages = [e for e in serial.events if e[0] in (
        "round_start", "assignment", "machine_start", "machine_end",
        "round_end")]
    assert [e[0] for e in stages[:2]] == ["round_start"] + (
        ["machine_start"] if shape == "per-machine" else ["assignment"])
    assert serial.events[-1][0] == "round_end"
    started = [e[1] for e in stages if e[0] == "machine_start"]
    assert started == [e[1] for e in stages if e[0] == "machine_end"]
    assert started == (["fused"] if shape == "fused" else sorted(set(started)))
    assert serial.worker_ids == {None}
    sharded = n_machines > 1 and shape in ("per-item", "per-block")
    assert (process.worker_ids != {None}) == sharded


# -- the same contract under simulated faults: shape x plan x P -------------


def _item_program2(ctx, v):
    x = ctx.read(("v", v))
    y = ctx.read(("v", (v + 1) % N_ITEMS))
    ctx.write(("o", v), x + y)
    return x * 2


def _block_program2(ctx, block):
    x = ctx.read_array("v", block)
    y = ctx.read_array("v", (block + 1) % N_ITEMS)
    ctx.write_array("o", block, x + y)
    return x * 2


def _fused_program2(gctx):
    x = gctx.read_array("v", gctx.items, owner=gctx.machines)
    _replay_reads(gctx)
    y = gctx.read_array("v", (gctx.items + 1) % N_ITEMS, owner=gctx.machines)
    gctx.write_array("o", gctx.items, x + y, owner=gctx.machines)
    return x * 2


_CHAOS_PROGRAMS = {"per-item": _item_program2, "per-block": _block_program2,
                   "fused": _fused_program2}
_CHAOS_PLANS = {
    "crashes": FaultPlan.machine_crashes(0.5),
    # Replication 1 (below): any downed server is beyond replication.
    "outages": FaultPlan.server_outages(0.5),
    "timeouts+stragglers": (FaultPlan.read_timeouts(0.2)
                            | FaultPlan.stragglers(0.5)),
    "composed": (FaultPlan.machine_crashes(0.5) | FaultPlan.server_outages(0.5)
                 | FaultPlan.read_timeouts(0.2) | FaultPlan.stragglers(0.5)),
}
_RECOVERY = ("crashes", "server_outages", "stragglers", "retry_reads",
             "failover_reads", "wasted_reads", "checkpoint_restores")


class _MachineTally(RuntimeObserver):
    """Per-machine ``(id, reads_used, writes_used)`` at each round's end."""

    def __init__(self):
        self.rounds = []

    def on_round_end(self, runtime, stats, contexts, read_store, next_store):
        self.rounds.append(sorted(
            (c.machine_id, c.reads_used, c.writes_used) for c in contexts
        ))


def _three_rounds(runtime, shape):
    """Three rounds of ``shape`` staged from one-shot generators; returns
    ``(results, ledger rows, next-store items)`` per round."""
    tally = _MachineTally()
    runtime.attach_observer(tally)
    ids = np.arange(N_ITEMS, dtype=np.int64)
    out = []
    for _ in range(3):
        if shape == "per-item":
            result = runtime.round(
                list(range(N_ITEMS)), _CHAOS_PROGRAMS[shape],
                setup=((("v", i), 3 * i) for i in range(N_ITEMS)), tag="t",
            )
        else:
            result = runtime.round_batch(
                ids, _CHAOS_PROGRAMS[shape],
                setup_arrays=(entry for entry in [("v", ids, 3 * ids)]),
                fused=shape == "fused", tag="t",
            )
        out.append((_plain(result.results), _row(result.stats),
                    sorted(result.store.items())))
    return out, tally.rounds


@pytest.mark.chaos
@pytest.mark.parametrize("n_machines", [1, 4])
@pytest.mark.parametrize("plan_name", list(_CHAOS_PLANS))
@pytest.mark.parametrize("shape", list(_CHAOS_PROGRAMS))
def test_round_contract_matrix_under_chaos(shape, plan_name, n_machines):
    """Under every fault plan, every program shape returns the fault-free
    results, next store and non-recovery ledger row; a machine crashes
    and replays as a unit whatever its program's shape."""
    config = AMPCConfig(epsilon=0.5, space=256, n_machines=n_machines, seed=7)
    want, want_machines = _three_rounds(AMPCRuntime(config), shape)
    assert want[0][0] == [6 * i for i in range(N_ITEMS)]

    plan = _CHAOS_PLANS[plan_name].with_seed(5)
    runs = []
    for _ in range(2):
        runtime = ChaosRuntime(config, plan=plan)
        got, machines = _three_rounds(runtime, shape)
        assert got == want
        # Rolled-back attempts leave no trace in the budgets: a machine
        # ends with its committed rows plus its publications.
        assert machines == want_machines
        assert all(sum(w for _, _, w in r) == 2 * N_ITEMS for r in machines)
        runs.append({f: getattr(runtime.report, f) for f in _RECOVERY})
    # One seeded plan, one fault schedule.
    assert runs[0] == runs[1]
    recovery = runs[0]
    if plan_name in ("crashes", "composed"):
        assert recovery["crashes"] > 0 and recovery["wasted_reads"] > 0
    if plan_name in ("outages", "composed"):
        # The staged generators were consumed once and replayed.
        assert recovery["checkpoint_restores"] > 0
    if plan_name in ("timeouts+stragglers", "composed"):
        assert recovery["retry_reads"] > 0 and recovery["stragglers"] > 0
    if plan_name == "timeouts+stragglers":
        assert recovery["crashes"] == 0


def _short_block(ctx, block):
    return block[:-1]


def _odd_machines_silent(ctx, block):
    return None if ctx.machine_id % 2 else block


def _fused_double_rows(gctx):
    return np.repeat(gctx.items, 2)


def _hungry_item(ctx, v):
    for i in range(N_ITEMS):
        ctx.read(("v", i))
    return v


def _hungry_block(ctx, block):
    ctx.read_array("v", np.arange(N_ITEMS))
    return block


def _hungry_fused(gctx):
    for _ in range(8):
        gctx.read_array("v", gctx.items, owner=gctx.machines)
    return gctx.items


def _writes_value(value, ctx, v):
    # Item 5 writes ``value``, every other item a word.
    ctx.write(("o", v), value if v == 5 else v)
    return v


def _writes_id(id_, ctx, v):
    ctx.write(("o", id_ if v == 5 else v), v)
    return v


def _int_then_pair(ctx, v):
    # Namespace "o" gets int rows and pairs: the first write in machine
    # order fixes its layout, the first of the other kind raises.
    ctx.write(("o", v), v if v % 2 else (v, v))
    return v


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("shape, program, error, strict", [
    ("per-block", _short_block, RoundProtocolError, False),
    ("per-block", _odd_machines_silent, RoundProtocolError, False),
    ("fused", _fused_double_rows, RoundProtocolError, False),
    ("per-item", _hungry_item, BudgetExceededError, True),
    ("per-block", _hungry_block, BudgetExceededError, True),
    ("fused", _hungry_fused, BudgetExceededError, True),
    ("per-item", partial(_writes_value, list(range(100_000))), TypeError,
     False),
    ("per-item", partial(_writes_value, "x" * (1 << 20)), TypeError, False),
    ("per-item", partial(_writes_value, np.arange(1000)), TypeError, False),
    ("per-item", partial(_writes_id, 2**63), TypeError, False),
    ("per-item", _int_then_pair, ValueError, False),
], ids=["block-row-count", "all-or-none", "fused-row-count",
        "strict-per-item", "strict-per-block", "strict-fused",
        "list-value", "1MB-str-value", "ndarray-value", "id-past-int64",
        "layout-change"])
def test_round_errors_identical_across_backends(
        shape, program, error, strict, observed):
    """A model violation raises the same exception, with the same
    message, wherever the machines ran — and the runtime aborts back to
    its state before the round. A write that is no DDS word raises at
    the op in a chaos runtime's journal too."""
    raised = {}
    backends = ("serial", "process") + (
        ("chaos",) if error is TypeError else ())
    for backend in backends:
        runtime, recorder = _contract_runtime(
            backend, 8, observed, strict=strict,
            **({"space": 32, "budget_multiplier": 1.0} if strict else {}))
        runtime.bootstrap([(("k", 0), 1)])
        before = (runtime.store, runtime._round_counter,
                  runtime._store_counter, len(runtime.report.rounds))
        with pytest.raises(error) as info:
            _run_shape(runtime, shape, program)
        raised[backend] = (type(info.value), str(info.value), info.value.args)
        assert runtime.parallel_fallbacks == 0
        assert before == (runtime.store, runtime._round_counter,
                          runtime._store_counter, len(runtime.report.rounds))
        if recorder is not None:
            assert recorder.events[-1][0] == "restore"
        # The runtime is usable again: same round, this time well-behaved.
        assert _plain(_run_shape(runtime, shape).results)[:2] == [0, 6]
    assert raised["serial"] == raised["process"] == raised.get(
        "chaos", raised["serial"])


@pytest.mark.parametrize("shape", ["per-item", "per-block", "fused"])
def test_fallback_on_unshippable_worker(shape):
    """A program that cannot cross the pipe runs serially, bit-identical,
    and the degradation is counted exactly once. A fused program never
    ships, so it is no degradation."""
    import threading

    lock = threading.Lock()  # captured by the closures: unpicklable
    programs = {
        "per-item": lambda ctx, v: lock and _item_program(ctx, v),
        "per-block": lambda ctx, block: lock and _block_program(ctx, block),
        "fused": lambda gctx: lock and _fused_program(gctx),
    }
    serial, _ = _contract_runtime("serial", 8, False)
    want = _run_shape(serial, shape, programs[shape])
    process, _ = _contract_runtime("process", 8, False)
    got = _run_shape(process, shape, programs[shape])
    assert process.parallel_fallbacks == (shape != "fused")
    assert serial.parallel_fallbacks == 0
    assert _plain(got.results) == _plain(want.results)
    assert _row(got.stats) == _row(want.stats)


def test_fused_round_never_touches_the_pool(monkeypatch):
    """On the process backend a fused round runs in the parent: no pool
    is started, no task dispatched, no fallback counted, and its results
    and ledger row equal serial's."""
    from repro.parallel import pool, shutdown_pool

    shutdown_pool()
    dispatched = _spy_on_dispatch(monkeypatch)
    outcomes = {}
    for backend in ("serial", "process"):
        runtime, _ = _contract_runtime(backend, 8, False)
        result = _run_shape(runtime, "fused")
        assert runtime.parallel_fallbacks == 0
        outcomes[backend] = (_plain(result.results), _row(result.stats),
                             list(result.store.items()))
    assert dispatched == []
    assert pool._POOL is None
    assert outcomes["serial"][0] == [6 * i for i in range(N_ITEMS)]
    assert outcomes["process"] == outcomes["serial"]


def test_leak_check_counts_only_our_own_segments(shm_leak_check):
    """A segment created outside our arenas — as another process's would
    be — is no leak of ours; a segment one of our arenas leaves behind
    is."""
    from multiprocessing import shared_memory

    from repro.parallel import ShmArena

    foreign = shared_memory.SharedMemory(create=True, size=64)
    arena = ShmArena()
    try:
        arena.share_array(np.arange(8))
        leaked = shm_leak_check.leaked()
        assert foreign.name not in leaked
        assert len(leaked) == 1 and leaked == shm_leak_check.names
    finally:
        arena.close()
        foreign.close()
        foreign.unlink()
    assert shm_leak_check.leaked() == []


def test_fallback_on_unshippable_result(small_config):
    """A worker output that cannot be pickled falls back to serial."""
    runtime = AMPCRuntime(small_config, backend="process", n_workers=2)
    runtime.bootstrap((("x", 0), i) for i in range(16))

    def worker(ctx, item):
        return lambda: item  # unpicklable result

    results = runtime.round(list(range(16)), worker).results
    assert runtime.parallel_fallbacks == 1
    assert [r() for r in results] == list(range(16))


# -- conformance-harness integration ---------------------------------------


def test_verify_cell_backend_oracle():
    record = _run_cell(CASES["connectivity"], "er", 48, 0,
                       balance_slack=4.0, chaos=False,
                       backend="process", workers=2)
    assert record.status == "ok", record.error
    assert record.backend == "process"
    assert record.backend_identical is True
    assert record.to_dict()["backend_identical"] is True


def test_verify_sweep_rejects_unknown_backend():
    from repro.verify.runner import verify_sweep

    with pytest.raises(ValueError, match="unknown backend"):
        verify_sweep(backend="gpu")


# -- satellite: bounded _mix_part string cache -----------------------------


def test_str_mix_cache_capped():
    from repro.core import partition

    partition._STR_MIX_CACHE.clear()
    reference = partition._mix_part("probe-key")
    for i in range(3 * partition._STR_MIX_CACHE_MAX):
        partition._mix_part(f"churn-{i}")
        assert len(partition._STR_MIX_CACHE) <= partition._STR_MIX_CACHE_MAX
    # Eviction churn never changes the hash of a re-derived key.
    assert partition._mix_part("probe-key") == reference


def test_str_mix_cache_lru_keeps_hot_keys():
    from repro.core import partition

    partition._STR_MIX_CACHE.clear()
    partition._mix_part("hot")
    for i in range(partition._STR_MIX_CACHE_MAX - 1):
        partition._mix_part(f"cold-{i}")
        partition._mix_part("hot")  # refresh to MRU each round
    partition._mix_part("evictor")  # cache full: evicts the LRU entry
    assert "hot" in partition._STR_MIX_CACHE


# -- satellite: Hypothesis cross-backend property tests --------------------

def test_shadow_store_reads_through_the_shipped_index():
    """export_store -> attach_store for one column of each index shape:
    the shadow answers and charges like the parent, and only the arrays
    a column holds cross the process boundary."""
    from repro.core.dds import DistributedDataStore
    from repro.parallel.shm import ShmArena, attach_store, export_store

    def build():
        store = DistributedDataStore(3, n_servers=4, seed=9)
        # dense, written out of order, with duplicates: table + row order
        store.write_array("table", np.array([7, 3, 5, 3, 9, 4]),
                          np.array([70, 30, 50, 31, 90, 40]))
        # dense, written in order: table, identity order
        store.write_array("identity", np.arange(10, 20), np.arange(10.0) / 4)
        # wide span, slotted, written in order: sorted composite keys
        store.write_array("wide", np.array([-(2**40), 12, 2**50]),
                          np.array([[1, 2], [3, 4], [5, 6]]),
                          slots=np.array([2, 0, 1]))
        # scalar-written: a numeric column like any other
        store.write(("obj", 4), (1, 2.5))
        store.seal()
        return store

    def traffic(store):
        got = [
            store.read_array("table", np.array([3, 4, 6, 9, 100]), fill=-1,
                             return_found=True),
            store.read_array("identity", np.array([19, 10, 9]), fill=-1.0),
            store.read_array("wide", np.array([12, 2**50, 12]),
                             slots=np.array([0, 1, 1]), fill=0),
            store.read_array("obj", np.array([4, 5]), fill=-1),
        ]
        scalars = [
            store.get(("table", 3)), store.get_indexed(("table", 3), 2),
            store.get(("identity", 12)), store.get(("wide", 2**50, 1)),
            store.get(("wide", 5, 0)), store.multiplicity(("table", 3)),
            ("identity", 20) in store, len(store),
            store.get(("obj", 4)),
        ]
        return got, scalars

    parent, twin = build(), build()
    with ShmArena() as arena:
        export = export_store(parent, arena)
        shipped = {
            namespace: {name for name in ("order", "table", "sorted_keys")
                        if parts[name] is not None}
            for (namespace, _), parts in export["columns"].items()
        }
        assert shipped == {"table": {"order", "table"},
                           "identity": {"table"}, "wide": {"sorted_keys"},
                           "obj": {"table"}}
        # Every column's values travel as an array, none pickled.
        assert all(isinstance(parts["values"], dict)
                   for parts in export["columns"].values())
        assert set(export) == {"round_index", "n_servers", "seed",
                               "max_words", "columns"}
        shadow, handles = attach_store(export)
        try:
            got, scalars = traffic(shadow)
            want, want_scalars = traffic(twin)
            for a, b in zip(got, want):
                np.testing.assert_equal(a, b)
            assert scalars == want_scalars
            assert shadow.n_reads == twin.n_reads
            assert np.array_equal(shadow.server_read_loads,
                                  twin.server_read_loads)
        finally:
            handles.close()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.verify import strategies  # noqa: E402

_H_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**_H_SETTINGS)
@given(batch=strategies.id_batches(min_size=1, max_size=64),
       seed=strategies.seeds())
def test_dds_ops_backend_parity(batch, seed):
    """Scalar + batch DDS traffic: results and ledgers match serially."""
    namespace, ids, values = batch

    def run():
        config = AMPCConfig(epsilon=0.5, space=64, n_machines=8,
                            seed=seed % 64)
        runtime = new_runtime(config)
        runtime.bootstrap([(("n", 0), int(ids.size))])
        runtime.round([0], lambda ctx, item: ctx.write(
            ("seeded", 0), True) or ctx.read(("n", 0)))

        def writer(ctx, item):
            lo, hi = item
            ctx.write_array(namespace, ids[lo:hi], values[lo:hi])
            return hi - lo

        n = ids.size
        cuts = sorted({0, n // 3, 2 * n // 3, n})
        blocks = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        runtime.round(blocks, writer)

        def reader(ctx, item):
            lo, hi = item
            got = ctx.read_array(namespace, ids[lo:hi])
            ctx.write(("echo", lo), float(np.sum(got)))
            return got

        outs = runtime.round(blocks, reader).results
        return ([np.asarray(o) for o in outs], runtime.report)

    (serial_out, serial_rep) = run()
    with _process():
        (process_out, process_rep) = run()
    assert len(serial_out) == len(process_out)
    for a, b in zip(serial_out, process_out):
        np.testing.assert_array_equal(a, b)
    assert _ledger(serial_rep) == _ledger(process_rep)


@settings(**_H_SETTINGS)
@given(succ=strategies.linked_lists(min_n=2, max_n=120),
       seed=strategies.seeds(max_seed=100))
def test_list_ranking_backend_parity(succ, seed):
    serial, process = _run_both(
        lambda: repro.list_ranking(succ, seed=seed)
    )
    assert np.array_equal(serial.ranks, process.ranks)
    assert _ledger(serial.report) == _ledger(process.report)
