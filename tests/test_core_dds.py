"""Unit tests for the distributed data store (paper §2 semantics)."""

import numpy as np
import pytest

from repro.core import (
    DistributedDataStore,
    ReplicatedDataStore,
    StoreNotSealedError,
    StoreSealedError,
    ValueSizeError,
)


def make_store(**kw) -> DistributedDataStore:
    defaults = dict(round_index=0, n_servers=4, seed=1)
    defaults.update(kw)
    return DistributedDataStore(**defaults)


class TestWriteReadCycle:
    def test_write_then_read_roundtrips(self):
        store = make_store()
        store.write(("k", 1), 42)
        store.seal()
        assert store.get(("k", 1)) == 42

    def test_missing_key_returns_none(self):
        store = make_store()
        store.seal()
        assert store.get(("absent", 0)) is None

    def test_read_before_seal_raises(self):
        store = make_store()
        store.write(("a", 0), 1)
        with pytest.raises(StoreNotSealedError):
            store.get(("a", 0))

    def test_write_after_seal_raises(self):
        store = make_store()
        store.seal()
        with pytest.raises(StoreSealedError):
            store.write(("a", 0), 1)

    def test_write_many_returns_count(self):
        store = make_store()
        assert store.write_many(
            [(("a", 0), 1), (("b", 0), 2), (("c", 0), 3)]
        ) == 3

    def test_contains_and_len_count_distinct_keys(self):
        store = make_store()
        store.write(("k", 1), 1)
        store.write(("k", 1), 2)
        store.write(("k", 2), 3)
        assert ("k", 1) in store and ("k", 2) in store
        assert ("k", 3) not in store
        assert len(store) == 2
        assert store.n_pairs == 3


class TestDuplicateKeys:
    """The model's (x, 1) ... (x, k) addressing for duplicate keys."""

    def test_plain_get_returns_first_written(self):
        store = make_store()
        store.write(("x", 0), 1)
        store.write(("x", 0), 2)
        store.seal()
        assert store.get(("x", 0)) == 1

    def test_indexed_access_is_one_based_write_order(self):
        store = make_store()
        for i in range(5):
            store.write(("x", 0), i * 10)
        store.seal()
        assert [store.get_indexed(("x", 0), i) for i in range(1, 6)] == [
            0, 10, 20, 30, 40,
        ]

    def test_index_past_end_returns_none(self):
        store = make_store()
        store.write(("x", 0), 1)
        store.seal()
        assert store.get_indexed(("x", 0), 2) is None

    def test_indexed_access_on_missing_key_returns_none(self):
        store = make_store()
        store.seal()
        assert store.get_indexed(("nope", 0), 1) is None

    def test_zero_index_rejected(self):
        store = make_store()
        store.seal()
        with pytest.raises(ValueError):
            store.get_indexed(("x", 0), 0)

    def test_multiplicity(self):
        store = make_store()
        store.write(("x", 0), 1)
        store.write(("x", 0), 2)
        assert store.multiplicity(("x", 0)) == 2
        assert store.multiplicity(("y", 0)) == 0

    def test_items_expands_buckets(self):
        store = make_store()
        store.write(("x", 0), 1)
        store.write(("x", 0), 2)
        store.write(("y", 0), 3)
        assert sorted(store.items()) == [
            (("x", 0), 1), (("x", 0), 2), (("y", 0), 3),
        ]

    def test_write_and_write_array_share_one_bucket(self):
        store = make_store()
        store.write(("a", 1), 5)
        store.write_array("a", np.array([1, 2]), np.array([7, 8]))
        store.write(("a", 1), 9)
        store.seal()
        assert store.multiplicity(("a", 1)) == 3
        assert [store.get_indexed(("a", 1), i) for i in (1, 2, 3, 4)] == [
            5, 7, 9, None,
        ]
        assert store.get(("a", 2)) == 8
        assert len(store) == 2
        assert list(store.items()) == [
            (("a", 1), 5), (("a", 1), 7), (("a", 2), 8), (("a", 1), 9),
        ]


class TestConstantSizeBound:
    def test_oversized_value_rejected(self):
        store = make_store(max_words=2)
        with pytest.raises(ValueSizeError):
            store.write(("k", 0), (1, 2, 3))

    def test_oversized_key_rejected(self):
        store = make_store(max_words=2)
        with pytest.raises(ValueSizeError):
            store.write(("a", 1, 2), 1)

    @pytest.mark.parametrize("value", [
        list(range(100_000)), "x" * (1 << 20), np.arange(1000), "x", None,
        (1, "x"), ((1, 2), 3), (), 2**63, -(2**63) - 1, (1, 2**64), 1j,
    ], ids=["list", "1MB-str", "ndarray", "str", "None", "str-in-tuple",
            "nested-tuple", "empty-tuple", "int-past-int64",
            "int-below-int64", "tuple-int-past-int64", "complex"])
    def test_non_word_value_raises_type_error_naming_the_namespace(
            self, value):
        store = make_store()
        with pytest.raises(TypeError, match="namespace 'v'") as info:
            store.write(("v", 1), value)
        assert len(str(info.value)) < 200
        assert store.n_writes == 0 and len(store) == 0

    @pytest.mark.parametrize("key", [
        ("k", 2**63), ("k", -(2**63) - 1), ("k", 1, 2**64), ("k", 1.5),
        ("k", "1"), ("k", 1, "x"), ("k",), (5, 1), ("k", 1, 2, 3), "k", (),
        ("k", (1, 2)),
    ])
    def test_non_word_key_raises_type_error(self, key):
        store = make_store()
        with pytest.raises(TypeError, match="not \\(str, int64"):
            store.write(key, 1)
        assert store.n_writes == 0

    def test_words_of_every_kind_roundtrip(self):
        store = make_store()
        pairs = [
            (("i", -(2**63)), 2**63 - 1), (("f", 1), 2.5),
            (("t", 1), (1, 2)), (("m", 1), (1, 2.5)),
            (("b", np.int32(3), True), np.int64(7)), (("g", 1), np.float32(0.5)),
            (("o", 1), (5,)),
        ]
        store.write_many(pairs)
        store.seal()
        assert [store.get(key) for key, _ in pairs] == [
            2**63 - 1, 2.5, (1, 2), (1.0, 2.5), 7, 0.5, (5,),
        ]
        assert store.get(("b", 3, 1)) == 7
        assert type(store.get(("m", 1))[0]) is float
        assert store.read_namespace("t")[1].tolist() == [[1, 2]]
        assert store.read_namespace("m")[1].dtype == np.float64


class TestRowLayout:
    """The first write to a namespace fixes its row layout; a write of
    another layout raises, whichever calls made the two."""

    @pytest.mark.parametrize("first, then", [
        (1, (1, 2)), ((1, 2), 1), (1, 1.5), (1.5, 1), ((1, 2), (1, 2, 3)),
        ((1, 2), (1, 2.5)), (1, (1,)),
    ])
    def test_scalar_writes_of_another_layout_raise(self, first, then):
        store = make_store()
        store.write(("n", 1), first)
        with pytest.raises(ValueError, match="namespace 'n' value layout"):
            store.write(("n", 2), then)
        store.seal()
        assert list(store.items()) == [(("n", 1), first)]
        assert store.n_writes == 1

    def test_scalar_and_array_writes_share_one_layout(self):
        store = make_store()
        store.write_array("a", np.array([1]), np.array([1.5]))
        store.write(("a", 2), 2.5)
        with pytest.raises(ValueError, match="layout changed"):
            store.write(("a", 3), 3)
        store.write(("b", 1), (1, 2))
        with pytest.raises(ValueError, match="layout changed"):
            store.write_array("b", np.array([2]), np.array([3]))
        store.write_array("b", np.array([2]), np.array([[3, 4]]))
        store.seal()
        assert store.read_array("a", np.array([1, 2])).tolist() == [1.5, 2.5]
        assert store.get(("b", 2)) == (3, 4)

    def test_an_empty_batch_fixes_no_layout(self):
        store = make_store()
        # np.array([]) is float64; the batch stores nothing.
        store.write_array("f", np.array([], dtype=np.int64), np.array([]))
        store.write(("f", 1), 1)
        store.seal()
        assert store.get(("f", 1)) == 1
        assert store.n_writes == 1
        with pytest.raises(TypeError, match="namespace 'f'"):
            make_store().write_array("f", np.array([], dtype=np.int64),
                                     np.array([], dtype=object))

    @pytest.mark.parametrize("values", [
        np.array(["x"]), np.array([None], dtype=object), np.array([1j]),
    ], ids=["str", "object", "complex"])
    def test_write_array_needs_a_numeric_dtype(self, values):
        store = make_store()
        with pytest.raises(TypeError, match="namespace 'a'"):
            store.write_array("a", np.array([1]), values)


class TestContentionAccounting:
    def test_reads_attributed_to_servers(self):
        store = make_store(n_servers=3)
        for i in range(30):
            store.write(("k", i), i)
        store.seal()
        for i in range(30):
            store.get(("k", i))
        loads = store.server_read_loads
        assert loads.sum() == 30
        assert loads.shape == (3,)
        assert store.max_server_load() == loads.max()

    def test_item_placement_tracked(self):
        store = make_store(n_servers=4)
        for i in range(40):
            store.write(("k", i), i)
        assert store.server_item_loads.sum() == 40

    def test_repeated_key_reads_hit_same_server(self):
        store = make_store(n_servers=8)
        store.write(("hot", 0), 1)
        store.seal()
        for _ in range(50):
            store.get(("hot", 0))
        assert store.max_server_load() == 50

    def test_each_stored_key_is_hashed_once(self, monkeypatch):
        """Placement is part of a column's index: writes and seal hash
        nothing, a column's first read hashes its rows once, reads of
        stored keys then gather, and only an absent key is hashed, on
        every read of it."""
        from repro.core import dds, partition

        calls = {"server_of": 0, "server_of_array": 0}

        def counted(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return getattr(partition, name)(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(dds, name, counted(name))
        rows = dds.KEY_SLICE + 5
        store = make_store(n_servers=300)
        store.write_array("a", np.arange(rows), np.arange(rows))
        store.write_array("s", np.arange(6), np.arange(6), slots=np.ones(6, np.int64))
        store.write_many((("w", i), i) for i in range(10))
        store.write(("w", 3), 30)
        store.seal()
        assert calls == {"server_of": 0, "server_of_array": 0}
        reads = np.arange(0, rows, 7)
        store.read_array("a", reads)
        assert calls == {"server_of": 0, "server_of_array": 2}
        assert store._columns["a", 2].servers().dtype == np.uint16
        store.read_array("a", reads[::-1])
        store.serve_reads_array(["a", reads])
        store.serve_reads_array(["s", np.arange(6), np.ones(6, np.int64)])
        store.read_array("s", np.arange(6), slots=np.ones(6, np.int64))
        assert store.get(("w", 3)) == 3 and store.get_indexed(("w", 3), 2) == 30
        store.get_indexed(("w", 3), 3)
        # Columns s and w: one sweep each.
        assert calls == {"server_of": 0, "server_of_array": 4}
        for _ in range(2):
            assert store.get(("w", 99)) is None
            store.read_array("a", np.array([-1, 0]))
        assert calls == {"server_of": 2, "server_of_array": 6}
        want = np.zeros(300, dtype=np.int64)
        for key in (
            [("a", int(i)) for i in reads] * 3 + [("a", 0)] * 2
            + [("s", i, 1) for i in range(6)] * 2
            + [("w", 3)] * 3 + [("w", 99), ("a", -1)] * 2
        ):
            want[partition.server_of(key, 300, 1)] += 1
        assert store.server_read_loads.tolist() == want.tolist()


class TestWriteMany:
    """``write_many`` is one ``write`` per pair, in order, however it
    places the keys."""

    PAIRS = [
        (("k", 3), 1), (("k", -2), 2), (("k", 2**63 - 1), 3), (("k", 3), 4),
        (("k", np.int64(5)), 5), (("a", 1, 2), 6), (("a", -(2**63), 0), 7),
        (("f", 8), 8.5), (("k", True), 9), (("t", 1), (1, 2)),
        (("a", 1, 2), 11), (("t", 1, 1), (1.5, 2)), (("k", 3), 15),
    ]

    @pytest.mark.parametrize("replication", [None, 2])
    def test_same_store_as_one_write_per_pair(self, replication):
        kw = {} if replication is None else {"replication": replication}
        cls = DistributedDataStore if replication is None else ReplicatedDataStore
        one, bulk = (cls(0, n_servers=4, seed=1, **kw) for _ in range(2))
        for key, value in self.PAIRS:
            one.write(key, value)
        assert bulk.write_many(iter(self.PAIRS)) == len(self.PAIRS)
        assert list(bulk.items()) == list(one.items())
        assert bulk.n_writes == one.n_writes == len(self.PAIRS)
        assert (bulk.server_item_loads.tolist()
                == one.server_item_loads.tolist())

    def test_invalid_pair_raises_after_the_earlier_pairs(self):
        pairs = [(("k", 1), 1), (("k", 2), (1, 2, 3)), (("k", 3), 3)]
        one, bulk = make_store(max_words=2), make_store(max_words=2)
        with pytest.raises(ValueSizeError):
            for key, value in pairs:
                one.write(key, value)
        with pytest.raises(ValueSizeError):
            bulk.write_many(pairs)
        assert list(bulk.items()) == list(one.items()) == [(("k", 1), 1)]
        assert bulk.n_writes == one.n_writes == 1
        assert (bulk.server_item_loads.tolist()
                == one.server_item_loads.tolist())


class TestSlottedCompositeKey:
    """``(namespace, id, slot)`` keys are indexed as one int64 composite;
    it must never wrap onto another key (it did: int64 ``id * stride``)."""

    def test_ids_too_wide_for_one_offset_key_are_ranked(self):
        store = make_store()
        store.write_array(
            "adj", np.array([2**61, 0, 5]), np.array([10, 20, 30]),
            slots=np.array([3, 3, 7]),
        )
        store.write(("adj", -(2**63), 3), 40)
        store.write(("adj", 0, 3), 21)
        store.seal()
        out, found = store.read_array(
            "adj", np.array([2**61, 0, 5, 5, 2**61, -(2**63)]),
            slots=np.array([3, 3, 7, 3, 7, 3]), fill=-1, return_found=True,
        )
        assert out.tolist() == [10, 20, 30, -1, -1, 40]
        assert found.tolist() == [True, True, True, False, False, True]
        assert store.get(("adj", 2**61, 3)) == 10
        assert store.get(("adj", 2**61, 7)) is None
        assert store.multiplicity(("adj", 0, 3)) == 2
        assert store.get_indexed(("adj", 0, 3), 2) == 21
        assert len(store) == 4

    def test_probe_ids_outside_the_column_do_not_wrap_onto_stored_keys(self):
        store = make_store()
        store.write_array(
            "adj", np.array([0, 5]), np.array([20, 30]), slots=np.array([0, 7])
        )
        store.seal()
        # stride is 8, so 2**61 * 8 wraps to 0 in int64: key (0, 0).
        out, found = store.read_array(
            "adj", np.array([2**61, 0, -(2**61)]), slots=np.array([0, 0, 0]),
            fill=-1, return_found=True,
        )
        assert out.tolist() == [-1, 20, -1]
        assert found.tolist() == [False, True, False]
        assert store.get(("adj", 2**61, 0)) is None
        assert store.get(("adj", 0, 0)) == 20
        assert ("adj", 2**61, 0) not in store

    def test_negative_written_slots_are_their_own_keys(self):
        store = make_store()
        # With slots in [-1, 1] a stride of max + 1 = 2 made (1, -1)
        # collide with (0, 1).
        store.write_array(
            "adj", np.array([1, 0]), np.array([10, 20]), slots=np.array([-1, 1])
        )
        store.seal()
        assert store.get(("adj", 1, -1)) == 10
        assert store.get(("adj", 0, 1)) == 20
        assert store.read_array(
            "adj", np.array([1, 0, 0]), slots=np.array([-1, 1, -1]), fill=-7
        ).tolist() == [10, 20, -7]
        assert len(store) == 2


class TestBulkReadsSeeScalarPairs:
    """Bulk reads see every pair of their namespace, whichever call wrote
    it, on the store and on its process-backend shadow alike."""

    @staticmethod
    def _shadow(store):
        return DistributedDataStore.attach_shadow(
            round_index=store.round_index, n_servers=store.n_servers,
            seed=store.seed, max_words=store.max_words,
            columns=dict(store._columns),
        )

    def test_read_array_sees_a_scalar_written_namespace(self):
        store = make_store()
        store.write(("y", 5), 7)
        store.seal()
        assert store.get(("y", 5)) == 7
        for s in (store, self._shadow(store)):
            out, found = s.read_array("y", np.array([5, 6]), return_found=True)
            assert out.tolist() == [7, 0] and found.tolist() == [True, False]

    def test_read_namespace_sees_a_namespace_written_both_ways(self):
        store = make_store()
        store.write_array("x", np.array([1, 2]), np.array([10, 20]))
        store.write(("x", 3), 30)
        store.write_array("x", np.array([1]), np.array([11]))
        store.seal()
        assert len(store) == 3
        assert list(store.items()) == [
            (("x", 1), 10), (("x", 2), 20), (("x", 3), 30), (("x", 1), 11),
        ]
        for s in (store, self._shadow(store)):
            ids, values = s.read_namespace("x")
            assert ids.tolist() == [1, 2, 3, 1]
            assert values.tolist() == [10, 20, 30, 11]
            assert s.read_array("x", np.array([1, 3, 4]), fill=-1).tolist() == [
                10, 30, -1,
            ]

    def test_namespaces_written_one_way_read_as_before(self):
        store = make_store()
        store.write_array("a", np.array([1, 2]), np.array([10, 20]))
        store.write(("b", 4), 40)
        store.write(("b", 4), 41)
        store.write(("c", 1, 2), 9)  # a slotted key is not in namespace "c"
        store.seal()
        assert store.read_array("a", np.array([2, 3])).tolist() == [20, 0]
        assert store.read_array("c", np.array([1])).tolist() == [0]
        ids, values = store.read_namespace("a")
        assert ids.tolist() == [1, 2] and values.tolist() == [10, 20]
        assert values.dtype == np.int64
        ids, values = store.read_namespace("b")
        assert ids.tolist() == [4, 4] and values.tolist() == [40, 41]

    def test_scalar_values_are_kept_exactly(self):
        store = make_store()
        store.write_array("v", np.array([1]), np.array([[1.0, 2.0]]))
        store.write(("v", 2), (3, 4.5))
        store.write(("v", 3), (2**53, 0.25))
        store.seal()
        assert [store.get(("v", i)) for i in (1, 2, 3)] == [
            (1, 2), (3, 4.5), (2**53, 0.25),
        ]
        out = store.read_array("v", np.array([3, 1, 9]), fill=-1)
        assert out.dtype == np.float64
        assert out.tolist() == [[2**53, 0.25], [1, 2], [-1, -1]]


class TestWhereKeysLive:
    """A (str, int64[, int64]) key lives in its namespace's column,
    whichever call wrote it; no other key is stored."""

    def test_reads_of_other_keys_miss(self):
        store = make_store()
        store.write(("k", 1), 99)
        store.seal()
        for key in [("k", 1, "x"), ("k", 2**63), ("k", 1.5), (5, 1), "k"]:
            assert store.get(key) is None and key not in store
        assert store.get(("k", 1)) == 99
        assert set(store._columns) == {("k", 2)}
        assert len(store) == 1

    def test_numpy_and_bool_ids_share_their_int_key(self):
        store = make_store()
        store.write(("k", np.int64(3)), 1)
        store.write(("k", 3), 2)
        store.write(("k", True), 3)
        store.seal()
        assert store.multiplicity(("k", 3)) == 2
        assert store.get_indexed(("k", np.int32(3)), 2) == 2
        assert store.get(("k", 1)) == 3


class TestIntegerIds:
    """Ids and slots must be integers: a float would truncate onto
    another key."""

    def test_store_rejects_float_ids_and_slots(self):
        store = make_store()
        with pytest.raises(TypeError, match="'f'"):
            store.write_array("f", np.array([1.7]), np.array([1]))
        with pytest.raises(TypeError, match="slots of namespace 'f'"):
            store.write_array(
                "f", np.array([1]), np.array([1]), slots=np.array([0.5])
            )
        store.write_array("f", np.array([], dtype=np.float64), np.array([]))
        store.seal()
        with pytest.raises(TypeError, match="'f'"):
            store.read_array("f", np.array([1.2]))
        assert store.read_array("f", np.asarray([])).size == 0

    def test_context_and_journal_reject_float_ids(self):
        from repro.core import AMPCConfig
        from repro.core.machine import MachineContext, _JournalStore

        prev, nxt = make_store(), make_store()
        prev.seal()
        ctx = MachineContext(0, AMPCConfig(n_machines=1), prev, nxt)
        with pytest.raises(TypeError, match="'f'"):
            ctx.read_array("f", np.array([1.5]))
        with pytest.raises(TypeError, match="'f'"):
            ctx.write_array("f", np.array([1.5]), np.array([1]))
        with pytest.raises(TypeError, match="'f'"):
            _JournalStore(8, []).write_array(
                "f", np.array([1.5]), np.array([1])
            )
        ctx.write_array("f", np.array([], dtype=np.float64), np.array([]))
