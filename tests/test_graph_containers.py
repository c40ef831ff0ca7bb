"""Unit and property tests for Graph / WeightedGraph containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import (
    Graph,
    WeightedGraph,
    canonical_edges,
    edge_set_difference,
    sort_unique,
    total_order_key,
    unique_pairs,
)
from repro.graph.validation import check_csr


def edges_strategy(max_n=30, max_m=60):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=max_m,
            ),
        )
    )


class TestGraphConstruction:
    def test_simple_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3 and g.m == 3
        assert g.degree(1) == 2
        assert list(g.neighbors(0)) == [1, 2]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_empty_graph(self):
        g = Graph.from_edges(5, np.zeros((0, 2), np.int64))
        assert g.n == 5 and g.m == 0
        assert g.edges().shape == (0, 2)

    def test_edges_returns_canonical_rows(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1), (1, 0)])
        assert g.edges().tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_has_edge(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g.has_edge(1, 0) and g.has_edge(2, 3)
        assert not g.has_edge(0, 2)

    def test_equality(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 0)])
        c = Graph.from_edges(3, [(1, 2)])
        assert a == b and a != c

    def test_subgraph_without_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = g.subgraph_without_edges(np.array([[1, 2]]))
        assert h.m == 2 and not h.has_edge(1, 2)

    @settings(max_examples=40, deadline=None)
    @given(edges_strategy())
    def test_csr_invariants_hold_for_arbitrary_inputs(self, data):
        n, edges = data
        g = Graph.from_edges(n, np.array(edges, np.int64).reshape(-1, 2))
        check_csr(g)

    @settings(max_examples=40, deadline=None)
    @given(edges_strategy())
    def test_edge_roundtrip(self, data):
        n, edges = data
        g = Graph.from_edges(n, np.array(edges, np.int64).reshape(-1, 2))
        g2 = Graph.from_edges(n, g.edges())
        assert g == g2


class TestWeightedGraph:
    def make(self):
        return WeightedGraph.from_weighted_edges(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)], [5.0, 1.0, 3.0, 2.0]
        )

    def test_edge_list_and_weights_aligned(self):
        wg = self.make()
        el, w = wg.edge_list(), wg.edge_weights()
        assert el.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert w.tolist() == [5.0, 2.0, 1.0, 3.0]

    def test_neighbor_weights_both_directions(self):
        wg = self.make()
        i = list(wg.neighbors(1)).index(2)
        j = list(wg.neighbors(2)).index(1)
        assert wg.neighbor_weights(1)[i] == 1.0
        assert wg.neighbor_weights(2)[j] == 1.0

    def test_neighbor_edge_ids_map_to_edge_list(self):
        wg = self.make()
        el = wg.edge_list()
        for v in range(wg.n):
            for u, eid in zip(wg.neighbors(v), wg.neighbor_edge_ids(v)):
                pair = sorted((v, int(u)))
                assert el[eid].tolist() == pair

    def test_weights_distinct_detection(self):
        wg = self.make()
        assert wg.weights_distinct()
        dup = WeightedGraph.from_weighted_edges(3, [(0, 1), (1, 2)], [1.0, 1.0])
        assert not dup.weights_distinct()

    def test_total_weight(self):
        wg = self.make()
        assert wg.total_weight(np.array([0, 2])) == 6.0

    def test_duplicate_weighted_edges_keep_first(self):
        wg = WeightedGraph.from_weighted_edges(
            2, [(0, 1), (1, 0)], [4.0, 9.0]
        )
        assert wg.m == 1 and wg.edge_weights()[0] == 4.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_weighted_edges(2, [(0, 0)], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_weighted_edges(3, [(0, 1)], [1.0, 2.0])


class TestEdgeHelpers:
    def test_canonical_edges_sorts_and_dedups(self):
        arr = np.array([[3, 1], [1, 3], [0, 2]])
        out = canonical_edges(arr)
        assert out.tolist() == [[0, 2], [1, 3]]

    @pytest.mark.parametrize("top", [50, 2**20, 2**40, 2**62])
    def test_canonical_edges_equals_rowwise_unique(self, top):
        # 2**40 and 2**62 squared do not fit int64: the row-wise fallback.
        rng = np.random.default_rng(top % 1000)
        arr = rng.integers(0, 12, size=(300, 2))
        arr[rng.random(300) < 0.3] += top - 12
        arr = np.concatenate([arr, arr[:80, ::-1], arr[:40]])
        lo, hi = arr.min(axis=1), arr.max(axis=1)
        want = np.unique(np.column_stack([lo, hi]), axis=0)
        out = canonical_edges(arr)
        assert out.dtype == np.int64 and np.array_equal(out, want)

    def test_unique_pairs_shifts_negative_values(self):
        first = np.array([-5, 3, -5, -(2**40), 3])
        second = np.array([2, -7, 2, 0, -8])
        assert unique_pairs(first, second).tolist() == [
            [-(2**40), 0], [-5, 2], [3, -8], [3, -7],
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.int64, np.int32, np.uint64]).flatmap(
            lambda dtype: st.tuples(
                st.just(dtype),
                st.lists(
                    st.integers(
                        int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
                    ),
                    max_size=40,
                ),
                st.integers(0, 3),
            )
        )
    )
    def test_sort_unique_equals_np_unique(self, case):
        dtype, values, copies = case
        # Repeats make every value a run of duplicates.
        values = np.array(values * (copies + 1), dtype=dtype)
        want = np.unique(values)
        out = sort_unique(values)
        assert out.dtype == want.dtype and np.array_equal(out, want)

    @pytest.mark.parametrize("values", [
        np.zeros(0, np.int64), np.array([7]), np.array([-3, -3, -9, 0, -9]),
        np.array([5, 5, 5, 5], np.int32), np.array([2**64 - 1, 0, 2**63],
                                                   np.uint64),
        np.full(6, -(2**63), np.int64),
    ], ids=["empty", "single", "negative", "int32-duplicates", "uint64",
            "all-duplicate"])
    def test_sort_unique_edge_cases(self, values):
        want = np.unique(values)
        out = sort_unique(values)
        assert out.dtype == want.dtype and np.array_equal(out, want)

    def test_edge_set_difference(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        drop = np.array([[1, 2]])
        assert edge_set_difference(edges, drop).tolist() == [[0, 1], [2, 3]]

    def test_edge_set_difference_empty_cases(self):
        edges = np.array([[0, 1]])
        empty = np.zeros((0, 2), np.int64)
        assert edge_set_difference(edges, empty).tolist() == [[0, 1]]
        assert edge_set_difference(empty, edges).size == 0

    def test_total_order_key_breaks_ties_by_ids(self):
        assert total_order_key(1.0, 5, 2) < total_order_key(1.0, 3, 6)
