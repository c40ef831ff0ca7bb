"""Tests for the §2.1 fault-tolerance claim: crashed machines restart
from scratch against the immutable round store and the results are
bit-identical to a fault-free run."""

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime, ChaosRuntime, FaultPlan
from repro.core import MachineCrash
from repro.graph import generators
from repro.graph.io import orient_cycles


def config(seed=1):
    return AMPCConfig.for_input(600, seed=seed)


def crashing(cfg, crash_probability):
    """A runtime whose machines crash mid-read with ``crash_probability``
    per attempt — worker crashes only, the §2.1 story."""
    return ChaosRuntime(cfg, plan=FaultPlan.machine_crashes(
        crash_probability, seed=cfg.seed, max_retries=16))


class TestFaultInjection:
    def test_crashes_actually_happen(self):
        rt = crashing(config(), 0.5)
        rt.bootstrap([(("v", i), i) for i in range(100)])

        def worker(ctx, v):
            total = 0
            for i in range(5):
                total += ctx.read(("v", (v + i) % 100))
            return total

        rt.round(list(range(100)), worker)
        assert rt.crashes_injected > 5
        assert rt.report.wasted_reads > 0

    def test_results_identical_to_fault_free_run(self):
        def run(runtime_cls):
            rt = runtime_cls(config(seed=3))
            rt.bootstrap([(("v", i), (i * 7) % 100) for i in range(100)])

            def worker(ctx, v):
                cur = v
                for _ in range(4):
                    cur = ctx.read(("v", cur))
                ctx.write(("out", v), cur)
                return cur

            result = rt.round(list(range(100)), worker)
            return result

        clean = run(AMPCRuntime)
        faulty = run(lambda cfg: crashing(cfg, 0.4))
        assert clean.results == faulty.results
        # The committed stores are identical too (no partial writes leak).
        clean_pairs = sorted(
            (k, v) for k, v in clean.store.items()
            if isinstance(k, tuple) and k[0] == "out"
        )
        faulty_pairs = sorted(
            (k, v) for k, v in faulty.store.items()
            if isinstance(k, tuple) and k[0] == "out"
        )
        assert clean_pairs == faulty_pairs

    def test_no_partial_writes_from_crashed_attempts(self):
        rt = crashing(config(seed=5), 0.6)
        rt.bootstrap([(("v", i), i) for i in range(50)])

        def worker(ctx, v):
            # Writes before reads: a crash mid-read must roll these back.
            ctx.write(("partial", v), -1)
            ctx.read(("v", v))
            ctx.read(("v", (v + 1) % 50))
            return v

        result = rt.round(list(range(50)), worker)
        assert rt.crashes_injected > 0
        # Every committed ("partial", v) appears exactly once.
        counts = {}
        for k, _v in result.store.items():
            if isinstance(k, tuple) and k[0] == "partial":
                counts[k] = counts.get(k, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert len(counts) == 50

    def test_replacement_machine_gets_fresh_budget(self):
        """A replacement machine re-runs the work from scratch on new
        hardware: the crashed attempt's reads must NOT count against its
        O(S) budget (they land in the recovery ledger instead). With
        strict budgets, a leak would raise BudgetExceededError."""
        cfg = AMPCConfig.for_input(600, seed=13, strict=True)
        clean_rt = AMPCRuntime(cfg)
        faulty_rt = crashing(cfg, 0.6)

        def run(rt):
            rt.bootstrap([(("v", i), i) for i in range(100)])

            def worker(ctx, v):
                return sum(ctx.read(("v", (v + i) % 100)) for i in range(4))

            return rt.round(list(range(100)), worker)

        clean = run(clean_rt)
        faulty = run(faulty_rt)
        assert faulty_rt.crashes_injected > 0
        assert faulty.results == clean.results
        # Replacement machines may legitimately re-read keys their lost
        # cache held, but no machine exceeds its per-attempt budget (the
        # strict config raises on a leak), and the waste is ledgered.
        assert faulty.stats.total_reads >= clean.stats.total_reads
        assert faulty.stats.max_machine_reads <= cfg.read_budget
        assert faulty.stats.wasted_reads > 0
        assert faulty.stats.budget_violations == 0

    def test_replacement_machines_can_crash_again(self):
        """Crashes are not limited to a machine's first attempt: with
        high crash probability there are more crashes than work items,
        which requires recovery depth > 1."""
        rt = crashing(config(seed=21), 0.85)
        rt.bootstrap([(("v", i), i) for i in range(40)])

        def worker(ctx, v):
            return sum(ctx.read(("v", (v + i) % 40)) for i in range(6))

        rt.round(list(range(40)), worker)
        assert rt.crashes_injected > 40

    def test_zero_probability_injects_nothing(self):
        rt = crashing(config(), 0.0)
        rt.bootstrap([(("k", 0), 1)])
        rt.round([0, 1], lambda ctx, v: ctx.read(("k", 0)))
        assert rt.crashes_injected == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            crashing(config(), 1.0)

    def test_machine_crash_carries_context(self):
        err = MachineCrash(3, 17)
        assert err.machine_id == 3 and err.after_reads == 17


class TestAlgorithmsUnderFaults:
    def test_shrink_survives_crashes(self):
        """End-to-end: the Shrink engine on a crashy cluster produces the
        same contraction as on a healthy one."""
        from repro.algorithms.shrink import shrink

        g = generators.cycle(300)
        succ, _ = orient_cycles(g)

        healthy_rt = AMPCRuntime(config(seed=9))
        healthy = shrink(succ, healthy_rt, delta=0.5, target_size=40)

        faulty_rt = crashing(config(seed=9), 0.3)
        faulty = shrink(succ, faulty_rt, delta=0.5, target_size=40)

        assert faulty_rt.crashes_injected > 0
        assert np.array_equal(healthy.alive, faulty.alive)
        assert np.array_equal(healthy.succ, faulty.succ)
        assert np.array_equal(healthy.length, faulty.length)

    def test_recovery_overhead_is_recorded(self):
        from repro.algorithms.shrink import shrink

        g = generators.cycle(200)
        succ, _ = orient_cycles(g)
        rt = crashing(config(seed=11), 0.4)
        shrink(succ, rt, delta=0.5, target_size=30)
        assert rt.report.wasted_reads > 0
