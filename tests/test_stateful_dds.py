"""Hypothesis stateful test: the DDS against a Python-dict model.

Random interleavings of scalar writes, bulk writes, columnar writes on the
same namespaces, rejected writes (no word, or another row layout), seals,
plain reads, indexed reads, multiplicity probes and bulk reads must always
agree with a reference model that implements the §2 semantics directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    DistributedDataStore,
    StoreNotSealedError,
    StoreSealedError,
)
from repro.core import dds as dds_module
from repro.verify import strategies as vst

# A narrowed draw of the shared DDS strategies: sampling from a small key
# pool keeps duplicate-key interleavings (the interesting case) frequent.
KEYS = st.one_of(
    st.sampled_from([("i", i) for i in range(6)] + [("m", 1), ("t", 0, 1)]),
    vst.dds_keys(),
)


def _with_value(key):
    """``key`` and a value of its namespace's row layout."""
    return st.tuples(st.just(key), vst.dds_values(key[0]))


PAIRS = KEYS.flatmap(_with_value)
# What write_many places in bulk: numpy and bool ids share their int key.
BULK_PAIRS = st.one_of(
    PAIRS,
    st.integers(0, 5).map(lambda i: ("i", np.int64(i))).flatmap(_with_value),
    st.booleans().map(lambda b: ("i", b)).flatmap(_with_value),
)
READ_KEYS = st.one_of(
    KEYS,
    st.integers(0, 5).map(lambda i: ("i", np.int64(i))),
    st.sampled_from([("i", 2**63), ("i", 1.5), "i", ("x", 1), (1, 2)]),
)
# No word: each write of one raises TypeError and leaves no trace.
NON_WORD_PAIRS = st.one_of(
    st.tuples(
        st.sampled_from([
            ("i", 2**63), ("i", -(2**63) - 1), ("i", 1, 2**64), ("i", 1.5),
            "i", ("i",), (1, 2), ("i", 1, 2, 3), ("i", "1"),
        ]),
        st.just(1),
    ),
    st.tuples(
        KEYS,
        st.sampled_from(["x", None, [1], (1, (2,)), 2**63, (), (1, "x")]),
    ),
)
# What write_array writes into namespaces the scalar rules use: int64
# ids, the int64 ends included, and slots; values of the namespace's
# layout.
ARRAY_NAMESPACES = st.sampled_from(["i", "f"])
ARRAY_IDS = st.one_of(st.integers(-3, 5), st.sampled_from([2**63 - 1, -(2**63)]))
SLOTS = st.integers(-2, 2)
ARRAY_DTYPES = {"i": np.int64, "f": np.float64}


class DDSMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = DistributedDataStore(0, n_servers=4, seed=7)
        # Written one pair at a time: the placement write_many must match.
        self.reference = DistributedDataStore(0, n_servers=4, seed=7)
        self.model: dict = {}
        # Every (key, value) pair in write order.
        self.log: list = []
        # The (namespace, arity) columns some pair was written to.
        self.columns: set = set()
        self.sealed = False
        self.n_writes = 0

    def _record(self, key, value):
        self.model.setdefault(key, []).append(value)
        self.log.append((key, value))
        self.columns.add((key[0], len(key)))

    @rule(pair=PAIRS)
    def write(self, pair):
        key, value = pair
        if self.sealed:
            with pytest.raises(StoreSealedError):
                self.store.write(key, value)
        else:
            self.store.write(key, value)
            self.reference.write(key, value)
            self._record(key, value)
            self.n_writes += 1

    @rule(pair=NON_WORD_PAIRS)
    def write_non_word(self, pair):
        error = StoreSealedError if self.sealed else TypeError
        with pytest.raises(error):
            self.store.write(*pair)
        with pytest.raises(error):
            self.store.write_many([pair])

    @rule(key=KEYS, other=st.sampled_from(vst.DDS_NAMESPACES), data=st.data())
    def write_other_layout(self, key, other, data):
        """A written column keeps its layout: a value of another one
        raises ValueError and leaves no trace."""
        if (self.sealed or other == key[0]
                or (key[0], len(key)) not in self.columns):
            return
        value = data.draw(vst.dds_values(other))
        with pytest.raises(ValueError, match="layout changed"):
            self.store.write(key, value)

    @rule(pairs=st.lists(BULK_PAIRS, max_size=12))
    def write_many(self, pairs):
        if self.sealed:
            with pytest.raises(StoreSealedError):
                self.store.write_many(pairs)
            return
        assert self.store.write_many(iter(pairs)) == len(pairs)
        for key, value in pairs:
            self.reference.write(key, value)
            self._record(key, value)
        self.n_writes += len(pairs)

    @rule(
        namespace=ARRAY_NAMESPACES,
        rows=st.lists(st.tuples(ARRAY_IDS, SLOTS, st.integers(-99, 99)),
                      max_size=8),
        slotted=st.booleans(),
    )
    def write_array(self, namespace, rows, slotted):
        ids = np.array([i for i, _, _ in rows], dtype=np.int64)
        slots = np.array([j for _, j, _ in rows], dtype=np.int64)
        values = np.array([v for _, _, v in rows], ARRAY_DTYPES[namespace])
        slots = slots if slotted else None
        if self.sealed:
            with pytest.raises(StoreSealedError):
                self.store.write_array(namespace, ids, values, slots=slots)
            return
        self.store.write_array(namespace, ids, values, slots=slots)
        for (i, j, _), v in zip(rows, values.tolist()):
            key = (namespace, i, j) if slotted else (namespace, i)
            self.reference.write(key, v)
            self._record(key, v)
        self.n_writes += len(rows)

    @rule()
    def seal(self):
        self.store.seal()
        self.sealed = True

    @rule(key=READ_KEYS)
    def read(self, key):
        if not self.sealed:
            with pytest.raises(StoreNotSealedError):
                self.store.get(key)
            return
        expected = self.model.get(key, [None])[0] if key in self.model else None
        assert self.store.get(key) == expected

    @rule(key=READ_KEYS, index=st.integers(1, 8))
    def read_indexed(self, key, index):
        if not self.sealed:
            return
        values = self.model.get(key, [])
        expected = values[index - 1] if index <= len(values) else None
        assert self.store.get_indexed(key, index) == expected

    @rule(key=READ_KEYS)
    def multiplicity(self, key):
        assert self.store.multiplicity(key) == len(self.model.get(key, []))

    @rule(namespace=st.sampled_from(vst.DDS_NAMESPACES))
    def read_namespace(self, namespace):
        rows = [
            (key[1], value) for key, value in self.log
            if len(key) == 2 and key[0] == namespace
        ]
        ids, values = self.store.read_namespace(namespace)
        assert ids.tolist() == [id_ for id_, _ in rows]
        assert values.tolist() == np.asarray([v for _, v in rows]).tolist()

    @rule(
        namespace=ARRAY_NAMESPACES,
        probes=st.lists(st.tuples(ARRAY_IDS, SLOTS), max_size=6),
        slotted=st.booleans(),
    )
    def read_array(self, namespace, probes, slotted):
        if not self.sealed:
            return
        ids = np.array([i for i, _ in probes], dtype=np.int64)
        slots = np.array([j for _, j in probes], dtype=np.int64)
        out, found = self.store.read_array(
            namespace, ids, slots=slots if slotted else None, fill=0,
            return_found=True,
        )
        for (i, j), value, hit in zip(probes, out.tolist(), found.tolist()):
            key = (namespace, i, j) if slotted else (namespace, i)
            want = self.model.get(key)
            assert hit == bool(want)
            assert value == (want[0] if want else 0)

    @invariant()
    def pair_count_matches(self):
        assert self.store.n_pairs == self.n_writes

    @invariant()
    def placement_matches_one_write_per_pair(self):
        assert (self.store.server_item_loads.tolist()
                == self.reference.server_item_loads.tolist())

    @invariant()
    def distinct_key_count_matches(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def items_match_model(self):
        # Grouped by key equality, not sorted by repr: ("i", np.int64(3))
        # and ("i", 3) are one key. Each key's values in write order.
        got: dict = {}
        for key, value in self.store.items():
            got.setdefault(key, []).append(value)
        assert got == self.model


TestDDSStateful = DDSMachine.TestCase
TestDDSStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


# -- read_namespace: the one harvest, over either representation ------------

# Keys around namespace "a" (int pairs): its own (duplicates likely),
# plus what must be skipped — other namespaces and slotted keys.
PAIR_VALUES = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
HARVEST_PAIRS = st.one_of(
    st.tuples(st.tuples(st.just("a"), st.integers(0, 5)), PAIR_VALUES),
    st.tuples(
        st.tuples(st.just("a"), st.integers(0, 5), st.integers(0, 3)),
        PAIR_VALUES,
    ),
    vst.dds_keys().flatmap(_with_value),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(HARVEST_PAIRS, max_size=40))
def test_read_namespace_of_scalar_writes_is_the_items_sequence(writes):
    store = DistributedDataStore(0, n_servers=4, seed=7)
    for key, value in writes:
        store.write(key, value)
    want = [
        (key[1], list(value)) for key, value in store.items()
        if len(key) == 2 and key[0] == "a"
    ]
    ids, values = store.read_namespace("a")
    assert ids.dtype == np.int64
    assert ids.tolist() == [id_ for id_, _ in want]
    assert values.reshape(-1, 2).tolist() == [value for _, value in want]


@settings(max_examples=50, deadline=None)
@given(st.lists(vst.id_batches(max_size=12), max_size=6))
def test_read_namespace_of_array_writes_is_write_order(batches):
    store = DistributedDataStore(0, n_servers=4, seed=7)
    want: dict = {}
    for namespace, ids, values in batches:
        values = values.astype(np.float64)
        store.write_array(namespace, ids, values)
        rows = want.setdefault(namespace, ([], []))
        rows[0].extend(ids.tolist())
        rows[1].extend(values.tolist())
    for namespace, (want_ids, want_values) in want.items():
        ids, values = store.read_namespace(namespace)
        assert ids.tolist() == want_ids
        assert values.tolist() == want_values
    ids, values = store.read_namespace("never-written")
    assert ids.size == 0 and values.size == 0


# -- the column index: both forms against a dict-of-lists model -------------


@st.composite
def column_cases(draw, bound=1 << 63):
    """One namespace's worth of ``write_array`` chunks plus probe keys.

    Returns ``(chunks, probe_ids, probe_slots)``; chunks are ``(ids, slots,
    values)`` with ``slots`` None throughout for a plain column. Slotted
    ids stay below 2**40 so the composite key always fits (overflow has
    its own test in test_core_dds.py); written slots include negatives
    and repeats. Probes: every written key, its id neighbours, strangers
    and — slotted — slots outside the written range up to the int64 ends.
    """
    slotted = draw(st.booleans())
    if slotted:
        bound = min(bound, 1 << 40)
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(vst.column_ids(bound=bound))
        slots = (
            draw(vst.id_arrays(ids.size, ids.size, lo=-3, hi=6))
            if slotted else None
        )
        values = draw(vst.id_arrays(ids.size, ids.size, lo=-99, hi=99))
        chunks.append((ids, slots, values))
    written = np.concatenate([ids for ids, _, _ in chunks])
    strangers = draw(vst.column_ids(max_size=8))
    probe_ids = np.concatenate([
        written, written[written > -(2**63)] - 1,
        written[written < 2**63 - 1] + 1, strangers,
    ])
    if not slotted:
        return chunks, probe_ids, None
    n_other = probe_ids.size - written.size
    other = draw(st.lists(
        st.integers(-5, 9) | st.sampled_from([-(2**63), 2**63 - 1]),
        min_size=n_other, max_size=n_other,
    ))
    probe_slots = np.concatenate(
        [slots for _, slots, _ in chunks] + [np.asarray(other, np.int64)]
    )
    return chunks, probe_ids, probe_slots


def _check_against_model(chunks, probe_ids, probe_slots):
    """Fill a store from the chunks and compare every read API with a
    dict-of-lists model; returns the store and its ``read_array`` answer."""
    store = DistributedDataStore(0, n_servers=4, seed=7)
    model: dict = {}
    for ids, slots, values in chunks:
        store.write_array("c", ids, values, slots=slots)
        keys = ids.tolist() if slots is None else zip(ids.tolist(), slots.tolist())
        for key, value in zip(keys, values.tolist()):
            model.setdefault(key, []).append(value)
    store.seal()
    out, found = store.read_array(
        "c", probe_ids, slots=probe_slots, fill=-777, return_found=True
    )
    assert np.array_equal(
        out, store.read_array("c", probe_ids, slots=probe_slots, fill=-777)
    )
    keys = (
        probe_ids.tolist() if probe_slots is None
        else list(zip(probe_ids.tolist(), probe_slots.tolist()))
    )
    for key, value, hit in zip(keys, out.tolist(), found.tolist()):
        want = model.get(key, [])
        full = ("c", key) if probe_slots is None else ("c", *key)
        assert hit == bool(want)
        assert value == (want[0] if want else -777)
        assert store.get(full) == (want[0] if want else None)
        assert store.multiplicity(full) == len(want)
        assert (full in store) == bool(want)
        for index in range(1, len(want) + 2):
            expected = want[index - 1] if index <= len(want) else None
            assert store.get_indexed(full, index) == expected
    assert len(store) == len(model)
    return store, out, found


@settings(max_examples=150, deadline=None)
@given(column_cases())
def test_column_index_matches_dict_of_lists(case):
    _check_against_model(*case)


@settings(max_examples=60, deadline=None)
@given(column_cases(bound=1 << 10))
def test_both_index_forms_give_identical_answers(case):
    """The same data indexed as a position table and as sorted keys."""
    answers = []
    factor_was = dds_module._TABLE_SPAN_FACTOR
    try:
        # Ids within +-2**10: a huge factor always picks the table, 0 never.
        for factor in (1 << 20, 0):
            dds_module._TABLE_SPAN_FACTOR = factor
            store, out, found = _check_against_model(*case)
            # Empty batches store nothing and make no column.
            column = store._columns.get(("c", 2 if case[2] is None else 3))
            if column is not None and column.rows:
                assert (column._table is not None) == (factor > 0)
            answers.append((out, found))
    finally:
        dds_module._TABLE_SPAN_FACTOR = factor_was
    assert np.array_equal(answers[0][0], answers[1][0])
    assert np.array_equal(answers[0][1], answers[1][1])
