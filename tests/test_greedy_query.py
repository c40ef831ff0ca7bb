"""The one truncated greedy query process (``repro.algorithms.greedy``).

* The MIS rule over :class:`CsrStream` (reading through a cache, as
  serving does) and over the block program's :class:`CsrReplay` agrees with the independent per-item reference
  ``repro.verify.specs._truncated_query`` on every return value, call
  count, settled table (in settling order) and charged read.
* Uncapped, the color rule is the sequential greedy coloring, and on the
  line graph the MIS and color rules are the sequential greedy matching
  and edge coloring.
* ``query_cap < 1`` is rejected up front by every entry point, and a
  loop that runs out of iterations says which algorithm, how far it got
  and at what capacity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.coloring import (
    _pi_sorted_earlier_csr,
    sequential_greedy_coloring,
    sequential_greedy_edge_coloring,
)
from repro.algorithms.greedy import (
    Calls,
    ColorRule,
    CsrReplay,
    CsrStream,
    EarlierStream,
    IncidenceStream,
    MisRule,
    incidence_pairs,
    truncated_query,
)
from repro.algorithms.matching import sequential_lfmm
from repro.algorithms.mis import _pi_sorted_csr
from repro.graph import generators
from repro.serve import ServeRequest, ServingEngine
from repro.verify.specs import _truncated_query
from repro.verify.strategies import graphs


class CachedReader:
    """A machine's read cache over a key -> value table: ``charged``
    lists every distinct key read, in first-use order."""

    def __init__(self, table: dict) -> None:
        self.table = table
        self.charged: dict = {}

    def read(self, key):
        self.charged[key] = None
        return self.table.get(key)


def _csr_table(graph, pi) -> dict:
    indptr, indices = _pi_sorted_csr(graph, pi)
    table = {}
    for v in range(graph.n):
        table[("deg", v)] = (int(indptr[v + 1] - indptr[v]), int(indptr[v]))
    for pos, u in enumerate(indices.tolist()):
        table[("nb", pos)] = (u, int(pi[u]))
    return table


@st.composite
def query_cases(draw):
    graph = draw(graphs(min_n=1, max_n=40))
    pi = np.asarray(draw(st.permutations(range(graph.n))), dtype=np.int64)
    cap = draw(st.integers(1, 2 * graph.n + 2))
    roots = draw(st.lists(st.integers(0, graph.n - 1), min_size=1,
                          max_size=graph.n + 3))
    return graph, pi, cap, roots


@settings(max_examples=150, deadline=None)
@given(query_cases())
def test_mis_rule_matches_the_reference_query(case):
    graph, pi, cap, roots = case
    table = _csr_table(graph, pi)
    indptr, indices = _pi_sorted_csr(graph, pi)
    replay = CsrReplay(
        np.diff(indptr).tolist(), indptr[:-1].tolist(), list(range(graph.n)),
        indices.tolist(), pi[indices].tolist(), pi.tolist(),
    )
    want_reader, got_reader = CachedReader(table), CachedReader(table)
    streams = (CsrStream(got_reader.read, pi), replay)
    want_settled: dict = {}
    got_settled: tuple[dict, dict] = ({}, {})
    for root in roots:
        want_calls = Calls()
        want = _truncated_query(want_reader, root, int(pi[root]), cap,
                                want_settled, want_calls)
        expected = [(v, int(s)) for v, s in want_settled.items()]
        for stream, settled in zip(streams, got_settled):
            calls = Calls()
            assert truncated_query(root, cap, settled, stream, MisRule,
                                   calls) == want
            assert calls.value == want_calls.value
            assert list(settled.items()) == expected
        assert list(got_reader.charged) == list(want_reader.charged)
        assert [("deg", v) for v in replay.deg_keys] == [
            k for k in want_reader.charged if k[0] == "deg"
        ]
        assert [("nb", p) for p in replay.nb_keys] == [
            k for k in want_reader.charged if k[0] == "nb"
        ]


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=40), st.randoms(use_true_random=False))
def test_uncapped_color_rule_is_the_sequential_greedy_coloring(graph, rnd):
    pi = np.asarray(rnd.sample(range(graph.n), graph.n), dtype=np.int64)
    indptr, indices = _pi_sorted_earlier_csr(graph, pi)
    table = {}
    for v in range(graph.n):
        row = indices[indptr[v]:indptr[v + 1]].tolist()
        table[("edeg", v)] = len(row)
        for i, u in enumerate(row):
            table[("enb", v, i)] = (u, int(pi[u]))
    stream = EarlierStream(CachedReader(table).read)
    settled: dict = {}
    colors = [truncated_query(v, graph.n + 1, settled, stream, ColorRule,
                              Calls()) for v in range(graph.n)]
    assert colors == sequential_greedy_coloring(graph, pi).tolist()


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=30), st.randoms(use_true_random=False))
def test_uncapped_line_graph_rules_are_the_sequential_greedy(graph, rnd):
    m = graph.m
    pi = np.asarray(rnd.sample(range(m), m), dtype=np.int64)
    edges = graph.edges()
    table = dict(incidence_pairs(edges, pi, np.ones(m, dtype=bool)))
    stream = IncidenceStream(CachedReader(table).read, edges, pi)
    mis: dict = {}
    colors: dict = {}
    matched = [truncated_query(e, m + 1, mis, stream, MisRule, Calls())
               for e in range(m)]
    ecolors = [truncated_query(e, m + 1, colors, stream, ColorRule, Calls())
               for e in range(m)]
    assert np.flatnonzero(matched).tolist() == sequential_lfmm(
        graph, pi).tolist()
    assert ecolors == sequential_greedy_edge_coloring(graph, pi).tolist()


def test_a_truncated_query_settles_nothing_past_its_capacity():
    path = generators.path(6)
    pi = np.arange(6, dtype=np.int64)[::-1].copy()  # 5 first, 0 last
    stream = CsrStream(CachedReader(_csr_table(path, pi)).read, pi)
    settled: dict = {}
    calls = Calls()
    assert truncated_query(0, 3, settled, stream, MisRule, calls) == -1
    assert calls.value == 4 and settled == {}
    assert truncated_query(0, 6, settled, stream, MisRule, calls) == 0
    assert list(settled) == [5, 4, 3, 2, 1, 0]


# ---------------------------------------------------------------------------
# query_cap validation and the one "did not settle" error
# ---------------------------------------------------------------------------

ENTRY_POINTS = {
    "maximal_independent_set": repro.maximal_independent_set,
    "maximal_matching": repro.maximal_matching,
    "greedy_coloring": repro.greedy_coloring,
    "greedy_edge_coloring": repro.greedy_edge_coloring,
}


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_query_cap_below_one_is_rejected(name, cap):
    graph = generators.erdos_renyi_gnm(60, 150, rng=0)
    with pytest.raises(ValueError, match="query_cap must be at least 1"):
        ENTRY_POINTS[name](graph, query_cap=cap)
    with pytest.raises(ValueError, match="query_cap must be at least 1"):
        ENTRY_POINTS[name](generators.path(1), query_cap=cap)


@pytest.mark.parametrize("cap", [0, -3])
def test_serving_engine_rejects_query_cap_below_one(cap):
    graph = generators.erdos_renyi_gnm(60, 150, rng=0)
    with pytest.raises(ValueError, match="query_cap must be at least 1"):
        ServingEngine(graph, query_cap=cap)


def test_serving_engine_accepts_query_cap_one():
    engine = ServingEngine(generators.path(5), query_cap=1)
    assert engine.execute_one(ServeRequest("mis_member", 0)).value in (
        True, False, None)


@pytest.mark.parametrize("name,label", [
    ("maximal_independent_set", "MIS"),
    ("maximal_matching", "matching"),
    ("greedy_coloring", "coloring"),
    ("greedy_edge_coloring", "edge coloring"),
])
def test_one_did_not_settle_message(name, label):
    graph = generators.erdos_renyi_gnm(300, 900, rng=0)
    with pytest.raises(RuntimeError) as err:
        ENTRY_POINTS[name](graph, query_cap=1, max_iterations=1)
    assert str(err.value).startswith(
        f"{label} did not settle within 1 iterations: ")
    assert str(err.value).endswith(" left at query_cap=1")
