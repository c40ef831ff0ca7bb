"""DDS encodings exercised through real runtime rounds (not just as
pair lists), plus small gaps: lexsort, mixed work items, list pointers."""

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime
from repro.graph import generators, io
from repro.primitives.sorting import charged_lexsort


def make_runtime(n=500, seed=3):
    return AMPCRuntime(AMPCConfig.for_input(n, seed=seed))


class TestGraphEncodingThroughRounds:
    def test_workers_can_reconstruct_adjacency(self):
        g = generators.erdos_renyi_gnm(40, 90, rng=1)
        rt = make_runtime()

        def gather(ctx, v):
            deg = ctx.read(("deg", v))
            return sorted(ctx.read(("adj", v, i)) for i in range(deg))

        result = rt.round(list(range(g.n)), gather,
                          setup=io.encode_graph(g), tag="gather")
        for v in range(g.n):
            assert result.results[v] == sorted(g.neighbors(v).tolist())

    def test_weighted_encoding_through_round(self):
        g = generators.erdos_renyi_gnm(25, 60, rng=2)
        wg = generators.with_random_weights(g, rng=2)
        rt = make_runtime()

        def lightest(ctx, v):
            deg = ctx.read(("deg", v))
            best = None
            for i in range(deg):
                nbr, w, eid = ctx.read(("adjw", v, i))
                if best is None or w < best[0]:
                    best = (w, nbr, eid)
            return best

        result = rt.round(list(range(wg.n)), lightest,
                          setup=io.encode_weighted_graph(wg), tag="min-edge")
        for v in range(wg.n):
            if wg.degree(v) == 0:
                assert result.results[v] is None
                continue
            w, nbr, eid = result.results[v]
            ws = wg.neighbor_weights(v)
            assert w == pytest.approx(float(ws.min()))
            # A mixed int/float row reads back as a float row.
            assert wg.edge_weights()[int(eid)] == pytest.approx(w)

    def test_list_pointer_encoding(self):
        succ = generators.linked_list(30, rng=3)
        rt = make_runtime()

        def step(ctx, v):
            return ctx.read(("succ", v))

        result = rt.round(list(range(30)), step,
                          setup=io.encode_list_pointers(succ), tag="step")
        assert result.results == succ.tolist()

    def test_cycle_pointer_encoding_traversal(self):
        g = generators.cycle(20)
        rt = make_runtime()

        def around(ctx, v):
            cur = v
            for _ in range(20):
                cur = ctx.read(("succ", cur))
            return cur

        result = rt.round([0, 7], around,
                          setup=io.encode_cycle_pointers(g), tag="around")
        assert result.results == [0, 7]  # full loop returns home


class TestSmallGaps:
    def test_charged_lexsort_orders_by_last_key_primary(self):
        rt = make_runtime()
        primary = np.array([1, 0, 1, 0])
        secondary = np.array([9, 8, 7, 6])
        order = charged_lexsort((secondary, primary), rt)
        assert primary[order].tolist() == [0, 0, 1, 1]
        assert rt.report.n_rounds > 0

    def test_string_work_items_assigned_deterministically(self):
        rt1 = make_runtime(seed=5)
        rt1.bootstrap([])
        out1 = rt1.round(["a", "b", "c"], lambda ctx, s: ctx.machine_id)
        rt2 = make_runtime(seed=5)
        rt2.bootstrap([])
        out2 = rt2.round(["a", "b", "c"], lambda ctx, s: ctx.machine_id)
        assert out1.results == out2.results

    def test_numpy_int_work_items(self):
        rt = make_runtime()
        rt.bootstrap([])
        items = np.arange(12, dtype=np.int64)
        result = rt.round(list(items), lambda ctx, v: int(v) * 2)
        assert result.results == [2 * int(v) for v in items]

    def test_setup_data_dies_with_its_round(self):
        # Model semantics: D_{i-1} is only readable during round i; data
        # not rewritten during round i is gone afterwards.
        rt = make_runtime()
        result = rt.round([0], lambda ctx, v: ctx.read(("a", 0)),
                          setup=[(("a", 0), 1)], tag="probe")
        assert result.results == [1]  # visible during the round...
        follow = rt.round([0], lambda ctx, v: ctx.read(("a", 0)), tag="after")
        assert follow.results == [None]  # ...and gone the round after

    def test_graph_pair_count_matches_encoder(self):
        g = generators.barabasi_albert(30, 2, rng=4)
        assert sum(1 for _ in io.encode_graph(g)) == io.graph_pair_count(g)
