"""Unit tests for MachineContext read/write semantics and caching."""

import pytest

from repro.core import AMPCConfig
from repro.core.dds import DistributedDataStore
from repro.core.machine import MachineContext, MPCMachineContext


DUP, MISSING = ("dup", 0), ("missing", 0)


def make_ctx(strict=False, budget=32.0, space=4, cls=MachineContext):
    config = AMPCConfig(space=space, n_machines=2, seed=1, strict=strict,
                        budget_multiplier=budget)
    prev = DistributedDataStore(0, 2, seed=1)
    for i in range(10):
        prev.write(("k", i), i * 2)
    for value in (10, 11, 12):
        prev.write(DUP, value)
    prev.seal()
    nxt = DistributedDataStore(1, 2, seed=1)
    return cls(0, config, prev, nxt), prev, nxt


class TestReads:
    def test_read_returns_value_or_none(self):
        ctx, *_ = make_ctx()
        assert ctx.read(("k", 3)) == 6
        assert ctx.read(MISSING) is None

    def test_read_caching_is_per_key(self):
        ctx, *_ = make_ctx()
        ctx.read(("k", 1))
        ctx.read(("k", 1))
        ctx.read(("k", 2))
        assert ctx.reads_used == 2

    def test_none_results_also_cached(self):
        ctx, *_ = make_ctx()
        ctx.read(MISSING)
        ctx.read(MISSING)
        assert ctx.reads_used == 1

    def test_read_indexed_separate_cache_entries(self):
        ctx, *_ = make_ctx()
        assert ctx.read_indexed(DUP, 1) == 10
        assert ctx.read_indexed(DUP, 2) == 11
        assert ctx.read_indexed(DUP, 2) == 11
        assert ctx.reads_used == 2

    def test_read_bucket_charges_terminating_probe(self):
        ctx, *_ = make_ctx()
        values = ctx.read_bucket(DUP)
        assert values == [10, 11, 12]
        assert ctx.reads_used == 4  # 3 hits + 1 empty probe

    def test_read_bucket_with_limit(self):
        ctx, *_ = make_ctx()
        assert ctx.read_bucket(DUP, limit=2) == [10, 11]
        assert ctx.reads_used == 2

    def test_read_many(self):
        ctx, *_ = make_ctx()
        out = ctx.read_many([("k", 0), ("k", 5)])
        assert out == [0, 10]


class TestWrites:
    def test_write_goes_to_next_store(self):
        ctx, _prev, nxt = make_ctx()
        ctx.write(("out", 0), 99)
        nxt.seal()
        assert nxt.get(("out", 0)) == 99
        assert ctx.writes_used == 1

    def test_write_many(self):
        ctx, _prev, nxt = make_ctx()
        ctx.write_many([(("a", 0), 1), (("b", 0), 2)])
        assert ctx.writes_used == 2


class TestScratch:
    def test_scratch_is_private_per_context(self):
        ctx1, *_ = make_ctx()
        ctx2, *_ = make_ctx()
        ctx1.scratch["x"] = 1
        assert "x" not in ctx2.scratch


class TestMPCContext:
    def test_inbox_and_send(self):
        config = AMPCConfig(space=16, n_machines=2, seed=1)
        prev = DistributedDataStore(0, 2, seed=1)
        prev.write(("msg", 0), (1, 7))
        prev.write(("msg", 0), (2, 8))
        prev.seal()
        nxt = DistributedDataStore(1, 2, seed=1)
        ctx = MPCMachineContext(0, config, prev, nxt)
        assert ctx.inbox() == [(1, 7), (2, 8)]
        ctx.send(1, (3, 9))
        nxt.seal()
        assert nxt.get(("msg", 1)) == (3, 9)

    def test_arbitrary_reads_blocked(self):
        from repro.core import AdaptivityError

        ctx, *_ = make_ctx(cls=MPCMachineContext)
        with pytest.raises(AdaptivityError):
            ctx.read(("k", 1))
        with pytest.raises(AdaptivityError):
            ctx.read_indexed(("k", 1), 1)
        with pytest.raises(AdaptivityError):
            ctx.read(("msg", 1))  # someone else's inbox
