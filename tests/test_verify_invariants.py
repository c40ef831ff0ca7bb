"""Unit tests for the runtime invariant observers (repro.verify.invariants).

Two directions: clean executions must record nothing, and seeded
violations of each invariant must be caught. Violations that the core
runtime makes structurally impossible are exercised by driving the
observer hooks directly with hand-built contexts.
"""

import numpy as np
import pytest

from repro.algorithms import connectivity, list_ranking
from repro.baselines.label_propagation import label_propagation
from repro.core import AMPCConfig, AMPCRuntime, DistributedDataStore
from repro.core.machine import MachineContext
from repro.graph import generators
from repro.verify.invariants import (
    BudgetObserver,
    InvariantSuite,
    InvariantViolationError,
    PartitionBalanceObserver,
    StoreDisciplineObserver,
    TraceObserver,
)


def small_runtime(**overrides) -> AMPCRuntime:
    kwargs = dict(space=32, n_machines=4, seed=1)
    kwargs.update(overrides)
    return AMPCRuntime(AMPCConfig(**kwargs))


class TestCleanRuns:
    def test_algorithms_record_no_violations(self):
        g = generators.erdos_renyi_gnm(60, 90, 2)
        with InvariantSuite() as suite:
            connectivity(g, seed=0)
            list_ranking(generators.linked_list(40, 3), seed=0)
        assert suite.violations == []
        assert suite.summary() == {}
        suite.check()  # must not raise

    def test_mpc_baseline_passes_mpc_discipline(self):
        g = generators.erdos_renyi_gnm(50, 70, 4)
        with InvariantSuite() as suite:
            label_propagation(g, seed=0)
        assert suite.violations == []

    def test_uninstall_stops_observing(self):
        g = generators.erdos_renyi_gnm(30, 40, 5)
        with InvariantSuite(trace=True) as suite:
            connectivity(g, seed=0)
        events_inside = len(suite.trace.events)
        connectivity(g, seed=0)  # outside the with block: unobserved
        assert len(suite.trace.events) == events_inside


class TestBudgetObserver:
    def test_flags_read_overrun(self):
        rt = small_runtime(budget_multiplier=0.125)  # read budget = 4
        violations = []
        rt.attach_observer(BudgetObserver(violations))
        rt.bootstrap([(("x", i), i) for i in range(16)])

        def hungry(ctx):
            for i in range(16):
                ctx.read(("x", i))

        rt.round(per_machine=hungry, machines=[0], tag="hungry")
        assert violations and violations[0].invariant == "budget"
        assert "reads" in violations[0].message

    def test_flags_overcharged_primitive(self):
        rt = small_runtime()
        violations = []
        rt.attach_observer(BudgetObserver(violations))
        rt.charge("huge-scan", rounds=1, reads=10**9, writes=0)
        assert any("charged primitive" in v.message for v in violations)

    def test_within_budget_is_silent(self):
        rt = small_runtime()
        violations = []
        rt.attach_observer(BudgetObserver(violations))
        rt.bootstrap([(("a", 0), 1)])
        rt.round(per_machine=lambda ctx: ctx.read(("a", 0)), machines=[0])
        assert violations == []


class TestStoreDisciplineObserver:
    def _ctx(self, prev_sealed=True, next_sealed=False):
        config = AMPCConfig(space=8, n_machines=2, seed=0)
        prev = DistributedDataStore(0, n_servers=2)
        if prev_sealed:
            prev.seal()
        nxt = DistributedDataStore(1, n_servers=2)
        if next_sealed:
            nxt.seal()
        return MachineContext(0, config, prev, nxt)

    def test_read_from_unsealed_store_flagged(self):
        violations = []
        obs = StoreDisciplineObserver(violations)
        obs.on_machine_read(self._ctx(prev_sealed=False), "k")
        assert any("unsealed" in v.message for v in violations)

    def test_write_into_sealed_store_flagged(self):
        violations = []
        obs = StoreDisciplineObserver(violations)
        obs.on_machine_write(self._ctx(next_sealed=True), "k")
        assert any("sealed" in v.message for v in violations)

    def test_same_store_read_write_flagged(self):
        violations = []
        obs = StoreDisciplineObserver(violations)
        config = AMPCConfig(space=8, n_machines=2, seed=0)
        store = DistributedDataStore(0, n_servers=2)
        store.seal()
        ctx = MachineContext(0, config, store, store)
        obs.on_machine_read(ctx, "k")
        assert any("same store" in v.message for v in violations)

    def test_real_rounds_are_clean(self):
        rt = small_runtime()
        violations = []
        rt.attach_observer(StoreDisciplineObserver(violations))
        rt.bootstrap([(("a", 0), 1), (("a", 1), 2)])
        rt.round(
            work=[0, 1],
            worker=lambda ctx, v: ctx.read(("a", v)),
            tag="read-two",
        )
        assert violations == []


class TestPartitionBalanceObserver:
    def test_skewed_assignment_flagged(self):
        rt = small_runtime()
        violations = []
        obs = PartitionBalanceObserver(violations, slack=1.0)
        obs.on_assignment(rt, np.zeros(4096, dtype=np.int64), 4096)
        assert violations and violations[0].invariant == "partition-balance"

    def test_uniform_assignment_is_silent(self):
        rt = small_runtime()
        violations = []
        obs = PartitionBalanceObserver(violations, slack=1.0)
        assignment = np.arange(4096, dtype=np.int64) % rt.config.n_machines
        obs.on_assignment(rt, assignment, 4096)
        assert violations == []

    def test_random_assignment_within_default_slack(self):
        g = generators.erdos_renyi_gnm(200, 400, 7)
        with InvariantSuite() as suite:
            connectivity(g, seed=1)
        assert suite.summary().get("partition-balance", 0) == 0


class TestStrictMode:
    def test_strict_raises_at_first_violation(self):
        violations = []
        obs = PartitionBalanceObserver(violations, strict=True, slack=1.0)
        rt = small_runtime()
        with pytest.raises(InvariantViolationError):
            obs.on_assignment(rt, np.zeros(4096, dtype=np.int64), 4096)

    def test_check_raises_with_collected_violations(self):
        suite = InvariantSuite()
        suite.observers[0].record("synthetic violation")
        with pytest.raises(InvariantViolationError, match="synthetic"):
            suite.check()


class TestTraceObserver:
    def _trace_of(self, seed: int) -> str:
        g = generators.erdos_renyi_gnm(50, 75, 9)
        suite = InvariantSuite(trace=True)
        with suite:
            connectivity(g, seed=seed)
        return suite.trace.digest()

    def test_same_seed_same_digest(self):
        assert self._trace_of(3) == self._trace_of(3)

    def test_different_seed_different_digest(self):
        assert self._trace_of(3) != self._trace_of(4)
