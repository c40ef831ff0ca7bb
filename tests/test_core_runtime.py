"""Unit tests for the AMPC runtime: rounds, budgets, accounting."""

import numpy as np
import pytest

from repro.core import (
    AMPCConfig,
    AMPCRuntime,
    AdaptivityError,
    BudgetExceededError,
    MPCRuntime,
    RoundProtocolError,
)


def make_runtime(**kw) -> AMPCRuntime:
    defaults = dict(epsilon=0.5, space=64, n_machines=4, seed=3)
    defaults.update(kw)
    return AMPCRuntime(AMPCConfig(**defaults))


class TestRoundExecution:
    def test_bootstrap_populates_d0(self):
        rt = make_runtime()
        rt.bootstrap([(("v", i), i * i) for i in range(10)])
        result = rt.round([3, 7], lambda ctx, v: ctx.read(("v", v)))
        assert result.results == [9, 49]

    def test_worker_results_align_with_work_order(self):
        rt = make_runtime()
        rt.bootstrap([])
        result = rt.round(list(range(20)), lambda ctx, v: v * 2)
        assert result.results == [v * 2 for v in range(20)]

    def test_setup_pairs_visible_to_workers(self):
        rt = make_runtime()
        result = rt.round(
            [1, 2], lambda ctx, v: ctx.read(("x", v)),
            setup=[(("x", 1), 10), (("x", 2), 20)],
        )
        assert result.results == [10, 20]

    def test_setup_replaces_previous_store(self):
        rt = make_runtime()
        rt.bootstrap([(("old", 0), 1)])
        result = rt.round([0], lambda ctx, v: ctx.read(("old", 0)),
                          setup=[(("new", 0), 2)])
        assert result.results == [None]

    def test_writes_visible_next_round_not_same_round(self):
        rt = make_runtime()
        rt.bootstrap([])

        def writer(ctx, v):
            ctx.write(("out", v), v + 100)
            return ctx.read(("out", v))  # reads previous store: absent

        r1 = rt.round([5], writer)
        assert r1.results == [None]
        r2 = rt.round([5], lambda ctx, v: ctx.read(("out", v)))
        assert r2.results == [105]

    def test_adaptive_reads_chain_within_round(self):
        rt = make_runtime()
        rt.bootstrap([(("next", i), i + 1) for i in range(20)])

        def chase(ctx, v):
            cur = v
            for _ in range(5):
                cur = ctx.read(("next", cur))
            return cur

        assert rt.round([0, 3], chase).results == [5, 8]

    def test_per_machine_mode_runs_all_machines(self):
        rt = make_runtime(n_machines=6)
        rt.bootstrap([])
        seen = []
        rt.round(per_machine=lambda ctx: seen.append(ctx.machine_id))
        assert sorted(seen) == list(range(6))

    def test_work_and_per_machine_are_exclusive(self):
        rt = make_runtime()
        with pytest.raises(RoundProtocolError):
            rt.round([1], lambda ctx, v: v, per_machine=lambda ctx: None)

    def test_work_without_worker_rejected(self):
        rt = make_runtime()
        with pytest.raises(RoundProtocolError):
            rt.round([1], None)

    def test_item_assignment_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            rt = make_runtime(seed=11)
            rt.bootstrap([])
            result = rt.round(list(range(30)), lambda ctx, v: ctx.machine_id)
            outs.append(result.results)
        assert outs[0] == outs[1]

    def test_tuple_work_items_with_item_key(self):
        rt = make_runtime()
        rt.bootstrap([])
        items = [(i, i * 10) for i in range(8)]
        result = rt.round(items, lambda ctx, it: it[1], item_key=lambda t: t[0])
        assert result.results == [i * 10 for i in range(8)]


class TestAccounting:
    def test_reads_and_writes_counted(self):
        rt = make_runtime()
        rt.bootstrap([(("a", i), i) for i in range(10)])

        def worker(ctx, v):
            ctx.read(("a", v))
            ctx.write(("b", v), 1)
            return None

        result = rt.round(list(range(10)), worker)
        assert result.stats.total_reads == 10
        assert result.stats.total_writes == 10

    def test_cached_rereads_free(self):
        rt = make_runtime()
        rt.bootstrap([(("k", 0), 1)])

        def worker(ctx, v):
            for _ in range(100):
                ctx.read(("k", 0))
            return None

        result = rt.round([0], worker)
        assert result.stats.total_reads == 1

    def test_result_publication_charged_as_write(self):
        rt = make_runtime()
        rt.bootstrap([])
        result = rt.round([1, 2, 3], lambda ctx, v: v)
        assert result.stats.total_writes == 3

    def test_setup_charged_as_writes(self):
        rt = make_runtime()
        result = rt.round(setup=[(("s", i), i) for i in range(25)])
        assert result.stats.total_writes == 25

    def test_round_counter_accumulates(self):
        rt = make_runtime()
        rt.bootstrap([])
        rt.round([1], lambda ctx, v: None)
        rt.round([1], lambda ctx, v: None)
        rt.charge("sort", rounds=3)
        assert rt.report.n_rounds == 5

    def test_bootstrap_costs_zero_rounds(self):
        rt = make_runtime()
        rt.bootstrap([(("a", 0), 1)])
        assert rt.report.n_rounds == 0

    def test_charge_records_communication(self):
        rt = make_runtime()
        stats = rt.charge("scan", rounds=2, reads=100, writes=50)
        assert stats.communication == 150
        assert rt.report.total_communication == 150

    def test_negative_charge_rejected(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.charge("bad", rounds=-1)

    def test_max_machine_reads_tracked(self):
        rt = make_runtime(n_machines=2)
        rt.bootstrap([(("x", i), i) for i in range(40)])

        def worker(ctx, v):
            ctx.read_many([("x", i) for i in range(v)])
            return None

        result = rt.round([1, 30], worker)
        assert result.stats.max_machine_reads >= 30


class TestBudgets:
    def test_strict_mode_raises_on_read_overrun(self):
        rt = make_runtime(space=4, budget_multiplier=1.0, strict=True)
        rt.bootstrap([(("x", i), i) for i in range(20)])

        def greedy(ctx, v):
            ctx.read_many([("x", i) for i in range(10)])

        with pytest.raises(BudgetExceededError):
            rt.round([0], greedy)

    def test_nonstrict_mode_records_violation(self):
        rt = make_runtime(space=4, budget_multiplier=1.0, strict=False)
        rt.bootstrap([(("x", i), i) for i in range(20)])

        def greedy(ctx, v):
            ctx.read_many([("x", i) for i in range(10)])

        result = rt.round([0], greedy)
        assert result.stats.budget_violations >= 1

    def test_write_budget_enforced(self):
        rt = make_runtime(space=4, budget_multiplier=1.0, strict=True)
        rt.bootstrap([])

        def writer(ctx, v):
            for i in range(10):
                ctx.write(("w", i), i)

        with pytest.raises(BudgetExceededError):
            rt.round([0], writer)


class TestMPCRuntime:
    def test_messages_delivered_to_inbox(self):
        rt = MPCRuntime(AMPCConfig(space=64, n_machines=4, seed=1))
        got = {}

        def program(ctx):
            got[ctx.machine_id] = sorted(ctx.inbox())

        rt.message_round(program, messages=[(0, 1), (0, 2), (2, 3)])
        assert got[0] == [1, 2]
        assert got[2] == [3]
        assert got[1] == []

    def test_sends_arrive_next_round(self):
        rt = MPCRuntime(AMPCConfig(space=64, n_machines=2, seed=1))
        rt.message_round(lambda ctx: ctx.send(1 - ctx.machine_id, ctx.machine_id))
        got = {}
        rt.message_round(lambda ctx: got.update({ctx.machine_id: ctx.inbox()}))
        assert got[0] == [1] and got[1] == [0]

    def test_adaptive_read_rejected(self):
        rt = MPCRuntime(AMPCConfig(space=64, n_machines=2, seed=1))
        rt.bootstrap([(("secret", 1), 42)])

        def cheat(ctx):
            ctx.read(("secret", 1))

        with pytest.raises(AdaptivityError):
            rt.round(per_machine=cheat)

    def test_foreign_inbox_read_rejected(self):
        rt = MPCRuntime(AMPCConfig(space=64, n_machines=2, seed=1))
        rt.bootstrap([])

        def spy(ctx):
            ctx.read(("msg", 1 - ctx.machine_id))

        with pytest.raises(AdaptivityError):
            rt.round(per_machine=spy)

    def test_mpc_rounds_tagged_mpc(self):
        rt = MPCRuntime(AMPCConfig(space=64, n_machines=2, seed=1))
        result = rt.message_round(lambda ctx: None)
        assert result.stats.kind == "mpc"
