"""The batch execution engine vs the scalar simulator.

The batch path (``splitmix64_array`` placement, columnar DDS arrays,
``round_batch``) is a pure simulator optimization: the model contract —
results, rounds, read/write charges, per-server contention — must be
*bit-identical* to what scalar operations would produce. The engine
tests assert that equivalence directly; the algorithm tests hold each
production (block) program to its per-item spec
(:mod:`repro.verify.specs`) round by round, and check that the
``vectorized=`` keyword of the entry points selects nothing.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.connectivity import connectivity
from repro.algorithms.list_ranking import (
    list_ranking,
    multi_list_ranking,
    sequential_list_ranks,
)
from repro.algorithms.shrink import fill_back, shrink
from repro.core import AMPCConfig, AMPCRuntime
from repro.core.dds import DistributedDataStore
from repro.core.errors import (
    AdaptivityError,
    BudgetExceededError,
    RoundProtocolError,
    StoreNotSealedError,
    StoreSealedError,
)
from repro.core.partition import (
    _STR_MIX_CACHE,
    key_hash,
    key_hash_array,
    server_of,
    server_of_array,
    splitmix64,
    splitmix64_array,
)
from repro.graph import generators
from repro.verify import specs
from repro.verify import strategies as vst


def _ledger(report):
    """Cost ledger rows with every model-visible field (no wall time)."""
    return [
        (s.tag, s.kind, s.rounds, s.total_reads, s.total_writes,
         s.max_machine_reads, s.max_machine_writes, s.n_machines_active,
         s.budget_violations, s.max_server_load)
        for s in report.rounds
    ]


@contextlib.contextmanager
def _round_calls():
    """Count ``AMPCRuntime.round`` / ``round_batch`` calls made inside."""
    calls = {"round": 0, "round_batch": 0}
    originals = {name: getattr(AMPCRuntime, name) for name in calls}

    def counting(name):
        def method(self, *args, **kwargs):
            calls[name] += 1
            return originals[name](self, *args, **kwargs)
        return method

    for name in calls:
        setattr(AMPCRuntime, name, counting(name))
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(AMPCRuntime, name, original)


def _keyword_selects_nothing(run):
    """``run()``, ``run(vectorized=False)`` and ``run(vectorized=True)``
    execute the same machine programs — block programs only, the same
    number of rounds — with identical ledgers. Returns the first and the
    last result for the caller to compare."""
    outcomes = []
    for kwargs in ({}, {"vectorized": False}, {"vectorized": True}):
        with _round_calls() as calls:
            result = run(**kwargs)
        assert calls["round"] == 0 and calls["round_batch"] > 0
        outcomes.append((result, _ledger(result.report), calls))
    (first, ledger, calls), *others = outcomes
    for _result, other_ledger, other_calls in others:
        assert other_ledger == ledger
        assert other_calls == calls
    return first, outcomes[-1][0]


def _store_state(store: DistributedDataStore):
    return (
        store.n_reads,
        store.n_writes,
        store.server_read_loads.tolist(),
        store.server_item_loads.tolist(),
        len(store),
    )


# ---------------------------------------------------------------------------
# placement hashing
# ---------------------------------------------------------------------------


class TestVectorizedHashing:
    def test_splitmix64_array_matches_scalar(self):
        xs = np.array([0, 1, 2, 97, 2**40, 2**63 - 1, 123456789],
                      dtype=np.int64)
        got = splitmix64_array(xs.astype(np.uint64))
        want = [splitmix64(int(x)) for x in xs]
        assert got.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(vst.id_arrays(min_size=1, max_size=128), vst.seeds(),
           st.integers(1, 97))
    def test_server_of_array_elementwise_parity(self, ids, seed, n_servers):
        got = server_of_array(["succ", ids], n_servers, seed=seed)
        want = [server_of(("succ", int(i)), n_servers, seed=seed)
                for i in ids]
        assert got.tolist() == want

    def test_key_hash_array_three_component_keys(self):
        us = np.arange(50, dtype=np.int64)
        is_ = us % 7
        got = key_hash_array(["adj", us, is_], seed=11)
        want = [key_hash(("adj", int(u), int(i)), seed=11)
                for u, i in zip(us, is_)]
        assert got.tolist() == want

    def test_key_hash_array_requires_an_array_component(self):
        with pytest.raises(ValueError):
            key_hash_array(["only", "scalars"])

    def test_str_mix_memoization(self):
        before = len(_STR_MIX_CACHE)
        a = key_hash(("a-namespace-string", 1))
        b = key_hash(("a-namespace-string", 2))
        assert "a-namespace-string" in _STR_MIX_CACHE
        assert len(_STR_MIX_CACHE) >= before
        # Memoized result stays consistent with the first computation.
        assert a == key_hash(("a-namespace-string", 1))
        assert a != b


# ---------------------------------------------------------------------------
# columnar DDS
# ---------------------------------------------------------------------------


class TestBatchStore:
    def _scalar_twin(self, namespace, ids, values, n_servers=16, seed=3):
        # A k-word row is written as the k-tuple a scalar read returns.
        store = DistributedDataStore(0, n_servers=n_servers, seed=seed)
        rows = values.tolist()
        for i, v in zip(ids.tolist(), map(tuple, rows) if values.ndim == 2
                        else rows):
            store.write((namespace, i), v)
        return store

    @settings(max_examples=40, deadline=None)
    @given(vst.id_batches(min_size=0, max_size=128), vst.seeds(max_seed=50))
    def test_batch_matches_scalar_store(self, batch, seed):
        namespace, ids, values = batch
        scalar = self._scalar_twin(namespace, ids, values, seed=seed)
        batched = DistributedDataStore(0, n_servers=16, seed=seed)
        batched.write_array(namespace, ids, values)
        assert _store_state(scalar) == _store_state(batched)
        scalar.seal()
        batched.seal()
        got, found = batched.read_array(namespace, ids, return_found=True)
        assert bool(found.all()) == (ids.size > 0) or ids.size == 0
        # First-occurrence-wins duplicate semantics match scalar get().
        want = [scalar.get((namespace, int(i))) for i in ids]
        assert got.tolist() == pytest.approx(want)
        assert _store_state(scalar) == _store_state(batched)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                              st.integers(0, 6), st.integers(0, 4)),
                    max_size=30),
           st.booleans())
    def test_replayed_reads_charge_each_distinct_key_once(self, ranges,
                                                         slotted):
        """``charge_replayed_reads`` bills machine m for each distinct key
        of its ranges once — flat ``("adj", start + j)`` keys, or slotted
        ``("adj", row, start + j)`` ones — on the key's server."""
        from repro.core.runtime import BatchRoundContext

        owner, rows, starts, lengths = (
            np.array([r[i] for r in ranges], dtype=np.int64).reshape(-1)
            for i in range(4)
        )
        config = AMPCConfig(epsilon=0.5, space=64, n_machines=4, seed=3)
        store = DistributedDataStore(0, n_servers=8, seed=3)
        store.seal()
        gctx = BatchRoundContext(
            config, store, DistributedDataStore(1, n_servers=8, seed=3),
            np.zeros(0, np.int64), np.zeros(0, np.int64), None,
        )
        gctx.charge_replayed_reads(
            "adj", starts, lengths, owner=owner,
            rows=rows if slotted else None,
        )
        keys = {
            (m, ("adj", r, j) if slotted else ("adj", j))
            for m, r, b, k in ranges for j in range(b, b + k)
        }
        reads = np.zeros(4, dtype=np.int64)
        loads = np.zeros(8, dtype=np.int64)
        for m, key in keys:
            reads[m] += 1
            loads[server_of(key, 8, 3)] += 1
        assert gctx.reads_used.tolist() == reads.tolist()
        assert store.server_read_loads.tolist() == loads.tolist()
        assert store.n_reads == len(keys)

    @settings(max_examples=40, deadline=None)
    @given(vst.weighted_batches(min_size=0, max_size=128),
           vst.seeds(max_seed=50))
    def test_weighted_batch_matches_scalar_store(self, batch, seed):
        # Multi-word float rows — the shape the flat weighted-graph
        # encoding writes — keep scalar/batch store-state parity.
        namespace, ids, values = batch
        scalar = self._scalar_twin(namespace, ids, values, seed=seed)
        batched = DistributedDataStore(0, n_servers=16, seed=seed)
        batched.write_array(namespace, ids, values)
        assert _store_state(scalar) == _store_state(batched)
        scalar.seal()
        batched.seal()
        got = batched.read_array(namespace, ids)
        # Exact equality: both paths store the same float64 bits.
        want = [scalar.get((namespace, int(i))) for i in ids]
        rows = got.tolist()
        assert (rows if got.ndim == 1 else list(map(tuple, rows))) == want

    def test_read_array_missing_ids_fill_and_found(self):
        store = DistributedDataStore(0, n_servers=8, seed=1)
        store.write_array("x", np.array([1, 3], dtype=np.int64),
                          np.array([10.0, 30.0]))
        store.seal()
        got, found = store.read_array(
            "x", np.array([1, 2, 3], dtype=np.int64),
            fill=-1.0, return_found=True,
        )
        assert got.tolist() == [10.0, -1.0, 30.0]
        assert found.tolist() == [True, False, True]

    def test_seal_discipline(self):
        store = DistributedDataStore(0, n_servers=8, seed=1)
        ids = np.array([1], dtype=np.int64)
        with pytest.raises(StoreNotSealedError):
            store.read_array("x", ids)
        store.write_array("x", ids, np.array([1.0]))
        store.seal()
        with pytest.raises(StoreSealedError):
            store.write_array("x", ids, np.array([2.0]))

    def test_read_namespace_write_order_with_duplicates(self):
        store = DistributedDataStore(0, n_servers=8, seed=1)
        store.write_array("a", np.array([5, 5, 2], dtype=np.int64),
                          np.array([1.0, 2.0, 3.0]))
        ids, values = store.read_namespace("a")
        assert ids.tolist() == [5, 5, 2]
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert store.multiplicity(("a", 5)) == 2
        assert ("a", 5) in store and ("a", 7) not in store

    def test_two_dim_values_roundtrip(self):
        store = DistributedDataStore(0, n_servers=8, seed=1)
        ids = np.array([4, 9], dtype=np.int64)
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        store.write_array("pair", ids, vals)
        store.seal()
        got = store.read_array("pair", ids)
        assert got.tolist() == vals.tolist()
        assert store.get(("pair", 4)) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# machine-context batch APIs
# ---------------------------------------------------------------------------


class TestBatchContext:
    def _round_pair(self, worker, n_items=40, **cfg):
        config = AMPCConfig(space=64, n_machines=4, seed=2, **cfg)
        rt = AMPCRuntime(config)
        ids = np.arange(n_items, dtype=np.int64)
        return rt, rt.round_batch(
            ids, worker, setup_arrays=[("v", ids, ids.astype(np.float64))],
            tag="t",
        )

    def test_budget_charged_in_one_batch(self):
        def worker(ctx, block):
            before = ctx.reads_used
            ctx.read_array("v", block)
            assert ctx.reads_used == before + block.size
            return block

        rt, result = self._round_pair(worker)
        assert result.stats.total_reads == 40

    def test_budget_violation_raises_in_strict_mode(self):
        config = AMPCConfig(space=4, n_machines=1, seed=2,
                            strict=True, budget_multiplier=1.0)
        rt = AMPCRuntime(config)
        ids = np.arange(200, dtype=np.int64)

        def worker(ctx, block):
            ctx.read_array("v", block)
            return block

        with pytest.raises(BudgetExceededError):
            rt.round_batch(
                ids, worker,
                setup_arrays=[("v", ids, ids.astype(np.float64))], tag="t",
            )

    def test_mpc_context_rejects_batch_reads(self):
        from repro.core.runtime import MPCRuntime

        rt = MPCRuntime(AMPCConfig(space=64, n_machines=4, seed=2))

        def worker(ctx, v):
            ctx.read_array("v", np.array([0], dtype=np.int64))

        with pytest.raises(AdaptivityError):
            rt.round([0], worker, setup=[(("v", 0), 1)], tag="t")

    def test_chaos_runtime_runs_block_programs_and_crashes(self):
        """A block program's array writes are buffered and its machine
        crashes and replays as a unit: same results, same next store."""
        from repro.core.chaos import FaultPlan, arm

        ids = np.arange(64, dtype=np.int64)

        def worker(ctx, block):
            vals = ctx.read_array("v", block)
            ctx.read_array("v", block[:1])
            ctx.write_array("out", block, vals * 2)
            return vals

        def run(rt):
            result = rt.round_batch(
                ids, worker,
                setup_arrays=[("v", ids, ids.astype(np.float64))], tag="t",
            )
            return (result.results.tolist(),
                    [a.tolist() for a in result.store.read_namespace("out")],
                    _ledger(rt.report))

        config = AMPCConfig.for_input(64, seed=1, replication_factor=2)
        rt = arm(AMPCRuntime)(config, plan=FaultPlan.machine_crashes(0.4))
        assert run(rt) == run(AMPCRuntime(config))
        assert rt.report.crashes > 0

    def test_round_batch_rejects_non_integer_work(self):
        rt = AMPCRuntime(AMPCConfig(space=64, n_machines=4, seed=2))
        with pytest.raises(RoundProtocolError):
            rt.round_batch(np.array([0.5, 1.5]), lambda ctx, b: b, tag="t")

    def test_round_batch_rejects_misaligned_output(self):
        rt = AMPCRuntime(AMPCConfig(space=64, n_machines=4, seed=2))

        def worker(ctx, block):
            return block[:-1]

        with pytest.raises(RoundProtocolError):
            rt.round_batch(np.arange(8, dtype=np.int64), worker, tag="t")

    @pytest.mark.parametrize("n_machines", [1, 4])
    @pytest.mark.parametrize("fused, worker, message", [
        (False, lambda ctx, block: block[:-1],
         r"returned \d+ rows for a block of \d+ items"),
        (False, lambda ctx, block: (block, block[:-1]),
         r"returned \d+ rows for a block of \d+ items"),
        (True, lambda gctx: gctx.items[:-1],
         "returned 7 rows for 8 work items"),
    ], ids=["block", "block-tuple", "fused"])
    def test_misaligned_output_message_names_the_counts(
            self, n_machines, fused, worker, message):
        rt = AMPCRuntime(AMPCConfig(space=64, n_machines=n_machines, seed=2))
        with pytest.raises(RoundProtocolError, match=message):
            rt.round_batch(np.arange(8, dtype=np.int64), worker,
                           fused=fused, tag="t")

    def test_round_batch_outputs_are_all_or_none(self):
        rt = AMPCRuntime(AMPCConfig(space=64, n_machines=4, seed=2))

        def worker(ctx, block):
            return block if ctx.machine_id % 2 else None

        with pytest.raises(RoundProtocolError, match="for every block or"):
            rt.round_batch(np.arange(32, dtype=np.int64), worker, tag="t")


# ---------------------------------------------------------------------------
# round_batch vs round: identical stats
# ---------------------------------------------------------------------------


class TestRoundParity:
    def _setup_pairs(self, n):
        return [(("v", i), float(i)) for i in range(n)]

    def _scalar_round(self, config, n):
        rt = AMPCRuntime(config)
        res = rt.round(
            list(range(n)),
            lambda ctx, v: ctx.read(("v", v)) * 2,
            setup=self._setup_pairs(n), tag="t",
        )
        return res.results, _ledger(rt.report)

    def _batch_round(self, config, n, fused):
        rt = AMPCRuntime(config)
        ids = np.arange(n, dtype=np.int64)

        def per_block(ctx, block):
            return ctx.read_array("v", block) * 2

        def lockstep(gctx):
            vals = gctx.read_array("v", gctx.items, owner=gctx.machines)
            return vals * 2

        res = rt.round_batch(
            ids, lockstep if fused else per_block,
            setup_arrays=[("v", ids, ids.astype(np.float64))],
            fused=fused, tag="t",
        )
        return res.results.tolist(), _ledger(rt.report)

    def test_per_machine_mode_matches_scalar_round(self):
        config = AMPCConfig(space=256, n_machines=8, seed=5)
        assert self._batch_round(config, 300, False) == \
            self._scalar_round(config, 300)

    def test_fused_mode_matches_scalar_round(self):
        config = AMPCConfig(space=256, n_machines=8, seed=5)
        assert self._batch_round(config, 300, True) == \
            self._scalar_round(config, 300)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("n_machines, n", [(1, 300), (8, 1), (1, 1)])
    def test_single_group_rounds_match_scalar_round(self, n_machines, n, fused):
        """One machine or one item: the round is a single group, and must
        still agree with the scalar round on results and ledger."""
        config = AMPCConfig(space=1024, n_machines=n_machines, seed=5)
        assert self._batch_round(config, n, fused) == \
            self._scalar_round(config, n)

    def test_single_machine_fast_path_matches_grouped_loop(self):
        n = 64
        pairs = self._setup_pairs(n)

        def run(n_machines):
            rt = AMPCRuntime(
                AMPCConfig(space=1024, n_machines=n_machines, seed=5)
            )
            res = rt.round(
                list(range(n)), lambda ctx, v: ctx.read(("v", v)),
                setup=pairs, tag="t",
            )
            return [res.results[i] for i in range(n)], rt.report

        out_1, report_1 = run(1)
        out_8, report_8 = run(8)
        assert out_1 == out_8
        # Same totals; machine-local maxima legitimately differ with p.
        assert report_1.total_reads == report_8.total_reads
        assert report_1.total_writes == report_8.total_writes


# ---------------------------------------------------------------------------
# algorithm parity: results AND full cost ledgers
# ---------------------------------------------------------------------------


class TestAlgorithmParity:
    @pytest.mark.parametrize("n,seed", [(60, 0), (400, 3), (1500, 11)])
    def test_list_ranking(self, n, seed):
        succ = generators.linked_list(n, rng=seed)
        a, b = _keyword_selects_nothing(
            lambda **kw: list_ranking(succ, seed=seed, **kw)
        )
        assert np.array_equal(a.ranks, b.ranks)
        assert np.array_equal(a.ranks, sequential_list_ranks(succ))
        assert a.shrink_rounds == b.shrink_rounds

    def test_multi_list_ranking(self):
        rng = np.random.default_rng(7)
        sizes = [40, 90, 1, 13]
        succ = np.full(sum(sizes), -1, dtype=np.int64)
        heads, base = [], 0
        perm = rng.permutation(sum(sizes))
        for size in sizes:
            chunk = perm[base:base + size]
            heads.append(int(chunk[0]))
            for i in range(size - 1):
                succ[chunk[i]] = chunk[i + 1]
            base += size
        heads = np.array(heads, dtype=np.int64)
        a, b = _keyword_selects_nothing(
            lambda **kw: multi_list_ranking(succ, heads, seed=5, **kw)
        )
        assert np.array_equal(a.ranks, b.ranks)
        assert np.array_equal(a.head_of, b.head_of)
        assert sorted(np.unique(a.head_of).tolist()) == sorted(heads.tolist())

    @pytest.mark.parametrize("make,seed", [
        (lambda: generators.erdos_renyi_gnm(150, 450, rng=0), 0),
        (lambda: generators.union_of_cycles([20, 31, 9]), 2),
        (lambda: generators.random_forest(120, 10, rng=4), 1),
    ])
    def test_connectivity(self, make, seed):
        g = make()
        a, b = _keyword_selects_nothing(
            lambda **kw: connectivity(g, seed=seed, **kw)
        )
        assert np.array_equal(a.labels, b.labels)
        assert a.phases == b.phases
        assert a.n_components == b.n_components

    @pytest.mark.parametrize("n,m,seed", [
        (60, 180, 0), (250, 1000, 3), (900, 3600, 5),
    ])
    def test_mis(self, n, m, seed):
        from repro.algorithms.mis import (
            maximal_independent_set,
            sequential_lfmis,
        )

        g = generators.erdos_renyi_gnm(n, m, rng=seed)
        a, b = _keyword_selects_nothing(
            lambda **kw: maximal_independent_set(g, seed=seed, **kw)
        )
        assert np.array_equal(a.in_mis, b.in_mis)
        assert np.array_equal(a.settled_at, b.settled_at)
        assert a.iterations == b.iterations
        assert a.total_query_calls == b.total_query_calls
        assert np.array_equal(b.in_mis, sequential_lfmis(g, b.pi))

    @pytest.mark.parametrize("n,m,seed", [
        (80, 200, 1), (300, 1500, 4), (1000, 4000, 7),
    ])
    def test_msf(self, n, m, seed):
        from repro.algorithms.msf import (
            minimum_spanning_forest,
            sequential_msf_ids,
        )

        g = generators.with_random_weights(
            generators.erdos_renyi_gnm(n, m, rng=seed), rng=seed + 1
        )
        a, b = _keyword_selects_nothing(
            lambda **kw: minimum_spanning_forest(g, seed=seed, **kw)
        )
        assert np.array_equal(a.edge_ids, b.edge_ids)
        assert a.total_weight == b.total_weight
        assert a.phases == b.phases
        assert a.budgets == b.budgets
        assert np.array_equal(b.edge_ids, sequential_msf_ids(g))

    # -- spec parity, round by round ---------------------------------------
    #
    # Each adaptive round runs once through its per-item spec
    # (``runtime.round``) and once through its production program
    # (``round_batch``) on the same staged input; results, next-store
    # rows and the ledger row (max_server_load included) must agree.

    @settings(max_examples=15, deadline=None)
    @given(vst.weighted_graphs_with_seed(min_n=2, max_n=40,
                                         families=("er", "grid", "tree")),
           st.integers(2, 7))
    def test_msf_batch_vs_scalar_property(self, case, d):
        g, seed = case
        config = AMPCConfig.for_input(g.n + g.m, seed=seed)
        assert specs.weighted_round_problems(g, d, config) == []

    @settings(max_examples=15, deadline=None)
    @given(vst.graphs(min_n=1, max_n=40), vst.seeds(max_seed=50),
           st.integers(2, 7), st.integers(1, 12))
    def test_graph_rounds_match_their_specs(self, g, seed, d, cap):
        config = AMPCConfig.for_input(g.n + g.m, seed=seed)
        assert specs.graph_round_problems(g, d, cap, seed, config) == []

    def test_bfs_through_a_hub_row_longer_than_the_read_cap(self):
        """A star whose hub has more neighbours than 4d² at d = 2: the
        hub's row is read one window at a time and cut where the ball
        fills. The cap itself never binds a BFS — a search dequeues at
        most d - 1 rows and reads at most d - 1 fresh and d - 2 in-ball
        slots per row, fewer than d² keys — so the spec and the fused
        program must agree on where each row stops without it."""
        star = generators.star(40)
        assert star.degree(0) > 4 * 2 * 2
        for seed in (1, 2):
            config = AMPCConfig.for_input(star.n + star.m, seed=seed)
            assert specs.graph_round_problems(star, 2, 4, seed, config) == []

    @pytest.mark.parametrize("d", [2, 3, 5, 14])
    def test_bfs_on_a_hub_heavy_rmat_graph(self, d):
        """Hub rows far longer than any window beside many short ones."""
        g = generators.rmat_graph(10, 8, rng=1)
        assert g.degrees.max() > 300
        config = AMPCConfig.for_input(g.n + g.m, seed=2)
        assert specs.graph_round_problems(g, d, 4, 2, config) == []

    @pytest.mark.parametrize("d", [1, 3, 6, 9])
    def test_bfs_in_cliques_smaller_than_the_ball(self, d):
        """Balls close at their clique before reaching d vertices (at
        d = 6 the 5-cliques close with one slot to spare); at d = 1 no
        search starts, not even at the isolated vertex."""
        g = generators.disjoint_union(
            [generators.complete(k) for k in (1, 2, 3, 5, 5, 8)]
        )
        config = AMPCConfig.for_input(g.n + g.m, seed=3)
        assert specs.graph_round_problems(g, d, 4, 3, config) == []

    def test_bfs_on_an_mmap_graph(self, tmp_path):
        from repro.graph import csr

        g = generators.rmat_graph(8, 8, rng=4)
        mapped = csr.build_csr(g.edges(), g.n, tmp_path, chunk_edges=97)
        assert isinstance(mapped, csr.MmapGraph)
        config = AMPCConfig.for_input(g.n + g.m, seed=4)
        for d in (3, 8):
            assert specs.graph_round_problems(mapped, d, 4, 4, config) == []

    @settings(max_examples=15, deadline=None)
    @given(vst.linked_lists(min_n=1, max_n=80), vst.seeds(max_seed=50),
           st.booleans(), st.sampled_from([1, 4]))
    def test_list_rounds_match_their_specs(self, succ, seed, additive,
                                           n_machines):
        config = AMPCConfig(space=64, n_machines=n_machines, seed=seed)
        assert specs.list_round_problems(succ, additive, config) == []

    @pytest.mark.parametrize("additive", [True, False])
    def test_fill_back_across_machine_groups(self, additive):
        """A deployment whose fill-back runs in several machine groups
        (fill-back de-duplicates each machine's absorber reads within its
        group): every level still charges what the per-item spec's read
        cache does."""
        from repro.core.dds import KEY_SLICE

        config = AMPCConfig(space=8192, n_machines=32, seed=3)
        assert config.n_machines // (KEY_SLICE // config.space) >= 4
        succ = generators.linked_list(3000, rng=5)
        assert specs.list_round_problems(succ, additive, config) == []

    def test_spec_parity_notices_a_different_program(self):
        """The check has teeth: every round is compared, and a spec with
        another budget, or another rule, disagrees."""
        from repro.algorithms.connectivity import _increase_degrees

        g = generators.erdos_renyi_gnm(60, 180, rng=1)
        config = AMPCConfig.for_input(g.n + g.m, seed=1)
        for d, agrees in ((4, True), (5, False)):
            rt = specs.SpecCheckedRuntime(config, lambda tag: specs.bfs(d))
            _increase_degrees(g, 4, rt, tag="bfs")
            assert rt.checked == 1
            assert (rt.problems == []) == agrees
        # Ranking a list: shrink rounds and fill-back levels, all checked;
        # filling without offsets is not what list ranking asked for.
        succ = generators.linked_list(300, rng=2)
        for additive, agrees in ((True, True), (False, False)):
            rt = specs.SpecCheckedRuntime(
                AMPCConfig.for_input(300, seed=2),
                lambda tag: specs.walk if "shrink" in tag
                else specs.fill(additive),
            )
            ranked = list_ranking(succ, runtime=rt)
            assert rt.checked == 2 * ranked.shrink_rounds > 0
            assert (rt.problems == []) == agrees

    def test_spec_parity_smoke_cell(self):
        from repro.verify.runner import SMOKE_CELLS, spec_parity_cell

        assert "spec-parity" in [name for name, _skip, _run in SMOKE_CELLS]
        outcome = spec_parity_cell()
        assert outcome["ok"], outcome["problems"]

    @pytest.mark.parametrize("edges,weights,d,exhausted,leader", [
        # Path a-b, d = 2: F_a is the whole component and the heap ran
        # empty (b's only edge leads back into F_a); vertex 2 is
        # isolated, so its heap never held anything.
        ([(0, 1)], [1.0], 2, [True] * 3, [0, 0, 2]),
        # Triangle, d = 3: F_v is the whole component, but the edge to
        # the last member that was not taken is still in the heap.
        ([(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0], 3, [False] * 3,
         [0, 1, 2]),
    ])
    def test_msf_exhausted_is_heap_empty_not_whole_component(
        self, edges, weights, d, exhausted, leader
    ):
        from repro.algorithms.msf import _choose_leaders, _msf_increase_degree
        from repro.graph.graph import WeightedGraph

        g = WeightedGraph.from_weighted_edges(3, edges, weights)
        config = AMPCConfig(epsilon=0.5, space=64, n_machines=2, seed=1)
        assert specs.weighted_round_problems(g, d, config) == []
        _ids, src, dst, got = _msf_increase_degree(
            g, d, AMPCRuntime(config), tag="prim"
        )
        assert got.tolist() == exhausted
        # Without a leader, only an exhausted F_v contracts (onto its
        # minimum vertex).
        no_leader = np.zeros(3, dtype=bool)
        assert _choose_leaders(3, src, dst, got, no_leader).tolist() == leader

    def test_msf_leader_choice_with_several_leader_members(self):
        """F_v rows reach the one leader choice in two harvest orders
        (grouped by vertex from the spec's per-vertex writes, in work
        order from the fused program's writes); "first leader member"
        must not depend on which."""
        from repro.algorithms.msf import (
            _choose_leaders,
            _msf_increase_degree,
        )
        from repro.graph.io import encode_weighted_graph_arrays

        g = generators.with_random_weights(
            generators.erdos_renyi_gnm(200, 800, rng=2), rng=3
        )
        config = AMPCConfig.for_input(g.n + g.m, seed=4)
        assert config.n_machines > 1
        is_leader = np.random.default_rng(0).random(g.n) < 0.5

        msf_ids, src, dst, exhausted = _msf_increase_degree(
            g, 6, AMPCRuntime(config), tag="prim"
        )
        leader = _choose_leaders(g.n, src, dst, exhausted, is_leader)

        spec_rt = AMPCRuntime(config)
        spec_rt.publish_state(arrays=encode_weighted_graph_arrays(g))
        result = spec_rt.round(list(range(g.n)), specs.prim(6), tag="prim")
        spec_ids, _ones = result.store.read_namespace("msf")
        spec_src, spec_dst = result.store.read_namespace("fv")
        spec_exhausted = np.array([flag for _size, flag in result.results])
        assert not np.array_equal(spec_src, src)  # the orders do differ
        assert np.array_equal(np.unique(spec_ids), np.unique(msf_ids))
        assert np.array_equal(
            _choose_leaders(g.n, spec_src, spec_dst, spec_exhausted,
                            is_leader),
            leader,
        )

        # Reference: the per-vertex rule over members in Prim order.
        want = np.arange(g.n)
        several = 0
        for v in np.flatnonzero(~is_leader).tolist():
            members = dst[src == v].tolist()
            leaders = [u for u in members if is_leader[u]]
            several += len(leaders) >= 2
            if leaders:
                want[v] = leaders[0]
            elif members and exhausted[v]:
                want[v] = min(min(members), v)
        assert several > 0
        assert np.array_equal(leader, want)

    def test_connectivity_isolated_vertex_and_small_clique(self):
        """The branches of the leader rule a vertex reaches without a
        leader neighbor: a small clique contracts to min(first neighbor,
        self), an isolated vertex stays put."""
        from repro.algorithms.connectivity import _choose_leaders
        from repro.graph.graph import Graph

        big = generators.erdos_renyi_gnm(120, 480, rng=5)
        edges = np.concatenate([big.edges(), [[120, 121], [121, 122],
                                              [120, 122]]])
        g = Graph.from_edges(124, edges)  # 123 is isolated
        is_leader = np.random.default_rng(1).random(g.n) < 0.3
        is_leader[120:] = False
        leader = _choose_leaders(g, is_leader, 8)
        want = np.arange(g.n)
        for v in np.flatnonzero(~is_leader).tolist():
            nbrs = g.neighbors(v)
            if nbrs.size and is_leader[nbrs].any():
                want[v] = nbrs[is_leader[nbrs]][0]
            elif 0 < nbrs.size < 8:
                want[v] = min(int(nbrs[0]), v)
        assert np.array_equal(leader, want)
        assert leader[120:].tolist() == [120, 120, 120, 123]
        a, b = _keyword_selects_nothing(
            lambda **kw: connectivity(g, seed=3, **kw)
        )
        assert np.array_equal(a.labels, b.labels)
        assert a.labels[120:].tolist() == [120, 120, 120, 123]
        assert (a.phases, a.budgets) == (b.phases, b.budgets)

    def test_shrink_and_fill_back(self):
        """Shrink to a remainder, rank it by hand, fill back: every
        element gets its sequential rank, on fused and block rounds
        only."""
        succ = generators.linked_list(500, rng=9)
        want = sequential_list_ranks(succ)
        rt = AMPCRuntime(AMPCConfig.for_input(500, seed=3))
        with _round_calls() as calls:
            outcome = shrink(
                succ, rt, delta=0.5, target_size=30,
                forced=np.array([generators.list_head(succ)]),
            )
            values = np.full(500, np.nan)
            values[outcome.alive] = want[outcome.alive]
            out = fill_back(rt, outcome.history, values, additive=True)
        assert calls == {"round": 0,
                         "round_batch": 2 * len(outcome.history)}
        assert np.array_equal(out, want)
        absorbed = np.concatenate([r.absorbed for r in outcome.history])
        assert np.array_equal(
            np.sort(np.concatenate([absorbed, outcome.alive])),
            np.arange(500),
        )

    def test_chaos_runs_the_block_program_and_still_crashes(self):
        from repro.core.chaos import FaultPlan, arm

        g = generators.erdos_renyi_gnm(60, 120, rng=1)
        config = AMPCConfig.for_input(g.n + g.m, seed=2,
                                      replication_factor=2)
        rt = arm(AMPCRuntime)(config, plan=FaultPlan.machine_crashes(0.15))
        with _round_calls() as calls:
            res = connectivity(g, runtime=rt, vectorized=True)
        assert calls["round"] == 0 and calls["round_batch"] > 0
        assert rt.report.crashes > 0
        ref = connectivity(g, config=AMPCConfig.for_input(g.n + g.m, seed=2))
        assert np.array_equal(res.labels, ref.labels)


def test_benchmark_sweep_smoke():
    """Batched DDS writes beat the scalar loop even at small sizes; that
    both leave the same store is ``TestBatchStore``'s job."""
    import time

    ids = np.arange(2_000, dtype=np.int64)

    def scalar():
        store = DistributedDataStore(0, n_servers=64, seed=1)
        for i in ids.tolist():
            store.write(("k", i), i)

    def batched():
        store = DistributedDataStore(0, n_servers=64, seed=1)
        store.write_array("k", ids, ids)

    def timed(fn) -> float:
        began = time.perf_counter()
        fn()
        return time.perf_counter() - began

    assert timed(batched) < timed(scalar)
