"""Unit tests for the Shrink engine and fill-back (paper §4 Algorithm 1)."""

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime
from repro.graph import generators
from repro.graph.io import orient_cycles
from repro.algorithms.shrink import TAIL, fill_back, shrink


def fresh_runtime(n=1000, seed=0) -> AMPCRuntime:
    return AMPCRuntime(AMPCConfig.for_input(n, seed=seed))


class TestShrinkOnCycles:
    def test_contracted_structure_is_cycle_with_same_total_length(self):
        g = generators.cycle(200)
        succ, _ = orient_cycles(g)
        rt = fresh_runtime(200)
        out = shrink(succ, rt, delta=0.5, target_size=30)
        assert out.alive.size <= 30 + 1
        # Walk the contracted cycle; lengths must sum to 200.
        index = {int(v): i for i, v in enumerate(out.alive.tolist())}
        start = int(out.alive[0])
        total, cur, hops = 0.0, start, 0
        while True:
            i = index[cur]
            total += out.length[i]
            cur = int(out.succ[i])
            hops += 1
            assert hops <= out.alive.size
            if cur == start:
                break
        assert total == 200

    def test_every_element_absorbed_or_alive_exactly_once(self):
        g = generators.cycle(300)
        succ, _ = orient_cycles(g)
        rt = fresh_runtime(300)
        out = shrink(succ, rt, delta=0.5, target_size=40)
        absorbed = np.concatenate([r.absorbed for r in out.history]) \
            if out.history else np.zeros(0, np.int64)
        all_ids = np.concatenate([absorbed, out.alive])
        assert np.all(np.sort(all_ids) == np.arange(300))

    def test_rounds_bounded_by_o_one_over_delta(self):
        for n in (200, 2000, 20000):
            g = generators.cycle(n)
            succ, _ = orient_cycles(g)
            rt = fresh_runtime(n)
            out = shrink(succ, rt, delta=0.5,
                         target_size=int(2 * n**0.5))
            assert out.n_rounds <= 8, f"n={n} took {out.n_rounds} rounds"

    def test_unsampled_small_cycles_survive_intact(self):
        # Tiny cycles may receive no sample in a round; the engine must
        # keep them alive rather than dropping them.
        g = generators.union_of_cycles([3] * 50)
        succ, _ = orient_cycles(g)
        rt = fresh_runtime(150)
        out = shrink(succ, rt, delta=0.5, target_size=4)
        # All cycles still represented among the survivors.
        index = {int(v): i for i, v in enumerate(out.alive.tolist())}
        seen_cycles = 0
        visited = set()
        for v in out.alive.tolist():
            if v in visited:
                continue
            seen_cycles += 1
            cur = v
            while cur not in visited:
                visited.add(cur)
                cur = int(out.succ[index[cur]])
        assert seen_cycles == 50

    def test_deterministic_given_seed(self):
        g = generators.cycle(150)
        succ, _ = orient_cycles(g)
        outs = []
        for _ in range(2):
            rt = fresh_runtime(150, seed=9)
            outs.append(shrink(succ, rt, delta=0.5, target_size=20))
        assert np.array_equal(outs[0].alive, outs[1].alive)
        assert np.array_equal(outs[0].succ, outs[1].succ)


class TestShrinkOnLists:
    def test_forced_head_survives(self):
        succ = generators.linked_list(120, rng=1)
        from repro.graph.generators import list_head

        head = list_head(succ)
        rt = fresh_runtime(120)
        out = shrink(succ, rt, delta=0.5, target_size=20,
                     forced=np.array([head]))
        assert head in out.alive.tolist()

    def test_contracted_list_lengths_sum_to_n_minus_1(self):
        succ = generators.linked_list(150, rng=2)
        from repro.graph.generators import list_head

        head = list_head(succ)
        rt = fresh_runtime(150)
        out = shrink(succ, rt, delta=0.5, target_size=25,
                     forced=np.array([head]))
        index = {int(v): i for i, v in enumerate(out.alive.tolist())}
        cur, total = head, 0.0
        while cur != TAIL:
            i = index[cur]
            nxt = int(out.succ[i])
            if nxt != TAIL:
                total += out.length[i]
            cur = nxt
        # Links from head to tail = n - 1; last survivor's length counts
        # the walk into the tail which we folded above.
        assert total <= 150

    def test_empty_input(self):
        rt = fresh_runtime(10)
        out = shrink(np.zeros(0, np.int64), rt, delta=0.5, target_size=1)
        assert out.alive.size == 0 and out.n_rounds == 0


class TestFillBack:
    def test_label_propagation_reaches_all_elements(self):
        g = generators.union_of_cycles([40, 60])
        succ, _ = orient_cycles(g)
        rt = fresh_runtime(100)
        out = shrink(succ, rt, delta=0.5, target_size=12)
        seeds = np.full(100, np.nan)
        seeds[out.alive] = out.alive % 7
        values = fill_back(rt, out.history, seeds, additive=False)
        absorbed = set()
        for r in out.history:
            absorbed.update(r.absorbed.tolist())
        assert absorbed.issubset(np.flatnonzero(~np.isnan(values)).tolist())

    def test_additive_fill_back_recovers_list_ranks(self):
        # End-to-end rank check through the public list_ranking API is in
        # test_algo_list_ranking; here check offsets accumulate additively.
        succ = np.array([1, 2, 3, -1], dtype=np.int64)
        rt = AMPCRuntime(AMPCConfig(space=64, n_machines=2, seed=1))
        out = shrink(succ, rt, delta=0.9, target_size=1,
                     forced=np.array([0]))
        seeds = np.full(4, np.nan)
        # Seed survivors with their true rank (walk the contracted list).
        index = {int(v): i for i, v in enumerate(out.alive.tolist())}
        cur, rank = 0, 0.0
        while cur != TAIL:
            seeds[cur] = rank
            i = index[cur]
            rank += out.length[i]
            cur = int(out.succ[i])
        values = fill_back(rt, out.history, seeds, additive=True)
        for v in range(4):
            assert values[v] == float(v)

    def test_missing_absorber_value_raises(self):
        succ = generators.linked_list(60, rng=3)
        from repro.graph.generators import list_head

        rt = fresh_runtime(60)
        out = shrink(succ, rt, delta=0.5, target_size=10,
                     forced=np.array([list_head(succ)]))
        if not out.history or out.history[-1].absorbed.size == 0:
            pytest.skip("no absorption happened at this size/seed")
        with pytest.raises((RuntimeError, KeyError)):
            fill_back(rt, out.history, np.full(60, np.nan), additive=False)


class TestFootprint:
    @pytest.mark.parametrize("additive", [True, False])
    def test_fill_back_level_peak_allocation(self, additive):
        """One fill-back level over 2^18 list elements (about 250 k of
        them absorbed) allocates no more at its peak than the per-machine
        block program it replaced did (the bound is that program's
        measured peak, 21.65 MB either way)."""
        import tracemalloc

        n = 1 << 18
        succ = generators.linked_list(n, rng=1)
        runtime = AMPCRuntime(AMPCConfig.for_input(n, seed=2))
        level = shrink(
            succ, runtime, delta=0.5, target_size=n // 4,
            forced=np.array([generators.list_head(succ)]),
        ).history[0]
        assert level.absorbed.size > 200_000
        values = np.zeros(n)
        values[level.absorbed] = np.nan
        tracemalloc.start()
        try:
            fill_back(runtime, [level], values, additive=additive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 21.65 * 2**20
