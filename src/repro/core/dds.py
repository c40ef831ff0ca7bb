"""The distributed data store (DDS) of the AMPC model (paper §2).

One :class:`DistributedDataStore` instance models one D_i: the collection of
key-value pairs written during round i and readable (only) during round i+1.
Semantics implemented exactly as specified:

* key → constant-size value: a key is ``(namespace, id)`` or
  ``(namespace, id, slot)`` with a str namespace and int64 ids, a value
  one int or float or a flat tuple of at most ``max_words`` of them
  (both enforced: anything else raises);
* k pairs sharing a key ``x`` are individually addressable as
  ``(x, 1) ... (x, k)`` — indices assigned in write order, which is one
  valid choice of the model's "arbitrary" assignment;
* querying a missing key yields an empty response (``None``);
* the store is *sealed* between rounds: reads before sealing and writes
  after sealing raise, enforcing the model's round discipline.

Every pair lives in one :class:`_Column` per namespace and key arity,
whichever call wrote it: numeric arrays of one row layout (dtype and
words per row), fixed by the namespace's first write.

The store also plays the role of the P serving machines of §2.1: every read
is attributed to the server owning the key (random placement via
:mod:`repro.core.partition`), giving the per-server load data behind the
Lemma 2.1 contention analysis.

The store is a passive service: nothing observes it directly. Every
operation a machine issues fires that machine's hooks
(:mod:`repro.core.hooks`).
"""

from __future__ import annotations

import reprlib
from itertools import chain
from typing import Any, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ServerUnavailableError,
    StoreNotSealedError,
    StoreSealedError,
    ValueSizeError,
)
from .partition import replica_servers, server_of, server_of_array


def _batch_keys(parts: Sequence[Any]) -> Iterator[tuple]:
    """Materialize the tuple keys of a column-decomposed key batch.

    ``parts`` mixes scalar components (shared by all keys) with equal-length
    arrays of per-key components — the same layout
    :func:`repro.core.partition.key_hash_array` consumes.
    """
    length = next((p.size for p in parts if isinstance(p, np.ndarray)), None)
    if length is None:
        raise ValueError("key batch needs at least one array component")
    columns = [
        part.tolist() if isinstance(part, np.ndarray) else [part] * length
        for part in parts
    ]
    return zip(*columns)


def _owned_chunk(array: np.ndarray) -> np.ndarray:
    """A chunk safe to retain without copying the caller's buffer.

    Mutable caller arrays are defensively copied (append-only store
    semantics must survive caller-side mutation). Read-only arrays —
    memory-mapped ``.npy`` columns opened with ``mmap_mode="r"`` and
    their slices — are retained as-is: the caller cannot mutate them
    either, and copying would defeat the out-of-core ingestion path's
    bounded-RSS contract.
    """
    if isinstance(array, np.ndarray) and not array.flags.writeable:
        return array
    return np.array(array, copy=True)


def int64_keys(namespace: str, array: Any, what: str = "ids") -> np.ndarray:
    """``array`` as the int64 ids (or slots) of ``namespace``'s keys.

    Raises :class:`TypeError` unless it has an integer dtype: a float id
    would be truncated onto another key. Size-0 arrays of any dtype pass
    (``np.asarray([])`` is float64).
    """
    array = np.asarray(array)
    if array.dtype.kind not in "iu" and array.size:
        raise TypeError(
            f"{what} of namespace {namespace!r} must have an integer "
            f"dtype, got {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


_I64 = 1 << 63
_INT64, _FLOAT64 = np.dtype(np.int64), np.dtype(np.float64)
# Row layouts, ``(dtype, row shape)``, of one-word scalar writes.
_INT_ROW, _FLOAT_ROW = (_INT64, ()), (_FLOAT64, ())


def _int64(x: Any) -> int | None:
    """``x`` as an int if it is an integer inside int64 (numpy and bool
    integers included: they equal their int), else None."""
    if not isinstance(x, (int, np.integer)):
        return None
    x = int(x)
    return x if -_I64 <= x < _I64 else None


def _route(key: Hashable) -> tuple[tuple[str, int], int, int | None] | None:
    """Where ``key`` lives: ``((namespace, arity), id, slot)`` for a
    ``(str, int)`` or ``(str, int, int)`` key whose ints fit int64, None
    for any other key (no store holds it)."""
    arity = len(key) if type(key) is tuple else 0
    if (arity != 2 and arity != 3) or not isinstance(key[0], str):
        return None
    # Exact int parts checked inline: every scalar write routes its key.
    id_, slot = key[1], key[2] if arity == 3 else None
    if type(id_) is not int or not -_I64 <= id_ < _I64:
        id_ = _int64(id_)
    if arity == 3 and (type(slot) is not int or not -_I64 <= slot < _I64):
        slot = _int64(slot)
    if id_ is None or (arity == 3 and slot is None):
        return None
    return (key[0], arity), id_, slot


def _key_parts(namespace: str, ids: Any, slots: Any) -> list:
    """A column-decomposed key batch: ``[namespace, ids(, slots)]``."""
    return [namespace, ids] if slots is None else [namespace, ids, slots]


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _py_values(values: np.ndarray) -> list:
    """Rows as the Python values a scalar read returns: scalars, or tuples
    for a multi-word column."""
    if values.ndim == 1:
        return values.tolist()
    return list(zip(*values.T.tolist()))  # twice as fast as map(tuple, ...)


def _row_layout(value: Any) -> tuple[np.dtype, tuple] | None:
    """The row layout ``(dtype, row shape)`` of one scalar value: int64,
    or float64 if any component is a float; shape ``()`` for a number,
    ``(len,)`` for a flat non-empty tuple. None if it is no word row."""
    if type(value) is tuple and value:
        floats = False
        for part in value:
            if type(part) is int and -_I64 <= part < _I64:
                continue  # the common case, checked inline
            if isinstance(part, (float, np.floating)):
                floats = True
            elif _int64(part) is None:
                return None
        return (_FLOAT64 if floats else _INT64, (len(value),))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_ROW
    return None if _int64(value) is None else _INT_ROW


def _rank(keys: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's rank among the sorted distinct ``keys``, and whether
    the probe is one of them."""
    ranks = np.minimum(keys.searchsorted(probes), keys.size - 1)
    return ranks, keys[ranks] == probes


# A column is indexed by a position table when its key span is at most this
# many times its row count. Measured on 30,000 rows (2-core VM): at 32,
# building the int32 table and gathering every row's key through it takes
# what one sorted-keys pass takes (4.1 ms each), and a scalar probe through
# the table is two list-speed gathers instead of two binary searches. The
# table then holds at most 128 bytes per row.
_TABLE_SPAN_FACTOR = 32

#: Keys per hash sweep when a whole-round batch is placed or charged:
#: bounds the sweep's temporaries whatever the batch size.
KEY_SLICE = 1 << 16


class _Column:
    """Every pair of one namespace and key arity, in write order.

    A column is either *plain* (keys ``(namespace, id)``) or *slotted*
    (keys ``(namespace, id, slot)``, e.g. adjacency slot addressing
    ``("adj", u, i)``). Rows live in append-only chunks of parallel int64
    id (and slot) and value arrays: :meth:`append` adds a ``write_array``
    batch, :meth:`put` adds one scalar write to a pending chunk that
    :meth:`close` turns into arrays. The store closes it at seal and
    before any batch write, so duplicates index in write order across
    both calls. The first write fixes the row layout, ``(dtype, row
    shape)``; a write of any other layout raises :class:`ValueError`.

    An index over the keys is built lazily on first lookup (i.e. after
    the store seals). Duplicate ids keep every row — bucket semantics —
    and a plain lookup returns the first-written row. Slotted rows index
    one int64 composite ``(id - id_lo) * stride + (slot - slot_lo)`` over
    the written id and slot ranges or, when those ranges are too wide for
    one int64, over the ranks of the distinct written ids and slots.

    The index answers "where does key k sit in stable key order" in one
    of two forms, chosen from the data when it is built:

    * *position table* — when ``max_key - min_key + 1`` is within
      :data:`_TABLE_SPAN_FACTOR` times the row count: ``table[k - lo]``
      counts the stored keys below ``k``, so a probe is two adjacent
      gathers whatever the column's size;
    * *sorted keys* — otherwise (ids are arbitrary int64, so an O(span)
      table cannot be the only form): one binary search per probe.

    In both, ``_order`` maps a sorted position to its row and is None when
    the keys were written in non-decreasing order (position *is* row).
    :meth:`_locate` and :meth:`find` are the only code that knows which
    form is live.
    """

    __slots__ = (
        "namespace",
        "_layout",
        "rows",
        "slotted",
        "_id_chunks",
        "_slot_chunks",
        "_value_chunks",
        "_pending_keys",
        "_pending_values",
        "_ids",
        "_slots",
        "_values",
        "_order",
        "_table",
        "_sorted_keys",
        "_lo",
        "_hi",
        "_n_distinct",
        "_slot_range",
        "_id_keys",
        "_slot_keys",
        "_probe",
    )

    def __init__(self, namespace: str, slotted: bool) -> None:
        self.namespace = namespace
        # The first append or put decides the value layout.
        self._layout: tuple[np.dtype, tuple] | None = None
        self.rows = 0
        self.slotted = slotted
        self._id_chunks: list[np.ndarray] = []
        self._slot_chunks: list[np.ndarray] = []
        self._value_chunks: list[np.ndarray] = []
        self._pending_keys: list[int] = []
        self._pending_values: list[Any] = []
        self._slot_range = (0, -1, 0, 1)  # id_lo, id_hi, slot_lo, stride
        self._id_keys = self._slot_keys = None
        self._reset()

    def _reset(self) -> None:
        self._ids = self._slots = self._values = self._n_distinct = None
        self._order = self._table = self._sorted_keys = None
        self._probe = None

    def _fix_layout(self, layout: tuple[np.dtype, tuple]) -> None:
        """Take ``layout`` as the column's, or raise if it has another."""
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            (dtype, shape), (got, got_shape) = self._layout, layout
            raise ValueError(
                f"namespace {self.namespace!r} value layout changed: "
                f"expected width {shape[0] if shape else 1} dtype {dtype}, "
                f"got width {got_shape[0] if got_shape else 1} dtype {got}"
            )

    def append(
        self,
        ids: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        """Add one ``write_array`` batch (copied unless read-only)."""
        self._fix_layout((values.dtype, values.shape[1:]))
        self._push(
            _owned_chunk(ids), _owned_chunk(values),
            None if slots is None else _owned_chunk(slots),
        )

    def put(
        self, id_: int, slot: int | None, value: Any,
        layout: tuple[np.dtype, tuple],
    ) -> None:
        """Add one scalar write, of row layout ``layout``, to the pending
        chunk."""
        if layout != self._layout:
            self._fix_layout(layout)
        self._pending_values.append(value)
        if slot is None:
            self._pending_keys.append(id_)
        else:
            self._pending_keys += (id_, slot)

    def close(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Turn the pending scalar writes into a chunk; returns its ids
        and slots for placement, or None if none were pending."""
        pending = self._pending_values
        if not pending:
            return None
        keys = np.array(self._pending_keys, dtype=np.int64)
        # Flattened: np.array of a list of tuples is several times slower.
        dtype, shape = self._layout
        flat = chain.from_iterable(pending) if shape else pending
        values = np.fromiter(flat, dtype).reshape(len(pending), *shape)
        self._pending_keys, self._pending_values = [], []
        ids, slots = keys.reshape(-1, 2).T.copy() if self.slotted else (keys, None)
        self._push(ids, values, slots)
        return ids, slots

    def _push(
        self, ids: np.ndarray, values: np.ndarray, slots: np.ndarray | None
    ) -> None:
        self._id_chunks.append(ids)
        if slots is not None:
            self._slot_chunks.append(slots)
        self._value_chunks.append(values)
        self.rows += ids.size
        self._reset()

    def write_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values) in write order — views, do not mutate."""
        if self._ids is None:
            self._ids = _joined(self._id_chunks)
            self._values = _joined(self._value_chunks)
            if self.slotted:
                self._slots = _joined(self._slot_chunks)
        return self._ids, self._values

    def _composite(
        self, ids: np.ndarray, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Composite index keys of ``(id, slot)`` pairs, and the mask of
        those that can be stored here (None: all of them)."""
        id_lo, id_hi, slot_lo, stride = self._slot_range
        if self._id_keys is not None:
            ids, id_hit = _rank(self._id_keys, ids)
            slots, slot_hit = _rank(self._slot_keys, slots)
            return ids * stride + slots, id_hit & slot_hit
        slot_hi = slot_lo + stride - 1
        valid = None
        if (
            slots.min() < slot_lo or slots.max() > slot_hi
            or ids.min() < id_lo or ids.max() > id_hi
        ):
            # Probes outside the written ranges cannot be stored, and
            # their composite could wrap int64 onto a key that is:
            # neutralize them before multiplying, record them as misses.
            valid = (
                (slots >= slot_lo) & (slots <= slot_hi)
                & (ids >= id_lo) & (ids <= id_hi)
            )
            ids = np.where(valid, ids, id_lo)
            slots = np.where(valid, slots, slot_lo)
        return (ids - id_lo) * stride + (slots - slot_lo), valid

    def _slotted_keys(self, ids: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Fix the composite form from the written rows; their keys."""
        id_lo, id_hi = int(ids.min()), int(ids.max())
        slot_lo = int(slots.min())
        stride = int(slots.max()) - slot_lo + 1
        # Checked in Python ints: int64 would wrap silently and make
        # distinct (id, slot) keys collide.
        if (id_hi - id_lo + 1) * stride > _I64:
            self._id_keys, self._slot_keys = np.unique(ids), np.unique(slots)
            id_lo, id_hi, slot_lo = 0, self._id_keys.size - 1, 0
            stride = self._slot_keys.size
        self._slot_range = (id_lo, id_hi, slot_lo, stride)
        return self._composite(ids, slots)[0]

    def _indexed(self) -> None:
        if self._n_distinct is not None:
            return
        keys, _ = self.write_order()
        rows = self.rows
        if rows == 0:
            # Every probe misses: an empty sorted-keys index.
            self._lo, self._hi, self._n_distinct = 0, -1, 0
            self._sorted_keys = keys
            return
        if self.slotted:
            keys = self._slotted_keys(keys, self._slots)
        lo, hi = int(keys.min()), int(keys.max())
        span = hi - lo + 1
        # Written in non-decreasing key order (every setup_arrays /
        # encode_* column): the identity is the stable sort.
        ordered = rows == 1 or bool((keys[1:] >= keys[:-1]).all())
        order = table = None
        if span <= _TABLE_SPAN_FACTOR * rows:
            # Counting, not sorting: O(rows + span). The int64 histogram
            # is a temporary, gone before any argsort below allocates.
            offsets = keys - lo if lo else keys
            table = np.zeros(
                span + 1, dtype=np.int32 if rows < 2**31 else np.int64
            )
            np.cumsum(
                np.bincount(offsets, minlength=span),
                dtype=table.dtype, out=table[1:],
            )
            n_distinct = int(np.count_nonzero(table[1:] > table[:-1]))
            if not ordered and n_distinct == rows:
                # No duplicates: a key's table entry is its one sorted
                # position, so the order is a scatter, not a sort.
                order = np.empty(rows, dtype=np.intp)
                order[table[offsets]] = np.arange(rows)
        if not ordered and order is None:
            # Stable sort: among duplicate keys, sorted order preserves
            # write order, so the first sorted occurrence is the first
            # write.
            order = np.argsort(keys, kind="stable")
        if table is None:
            sorted_keys = keys if order is None else keys[order]
            n_distinct = int(np.count_nonzero(np.diff(sorted_keys))) + 1
            self._sorted_keys = sorted_keys
        self._order, self._table = order, table
        self._lo, self._hi, self._n_distinct = lo, hi, n_distinct

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve int64 index keys: ``(first, found)``.

        ``found`` says whether the key is stored and ``first`` (meaningful
        only where ``found``) is the position of its first-written row in
        stable key order. Requires a built index over >= 1 row.
        """
        table = self._table
        if table is None:
            sorted_keys = self._sorted_keys
            first = sorted_keys.searchsorted(keys)
            found = sorted_keys[np.minimum(first, self.rows - 1)] == keys
            return first, found
        lo, hi = self._lo, self._hi
        inside = None
        if keys.min() < lo or keys.max() > hi:
            inside = (keys >= lo) & (keys <= hi)
            keys = np.where(inside, keys, lo)
        rel = keys - lo if lo else keys
        first = table[rel]
        found = table[1:][rel] > first
        if inside is not None:
            found &= inside
        return first, found

    @property
    def n_distinct(self) -> int:
        self._indexed()
        return self._n_distinct

    def lookup(
        self,
        ids: np.ndarray,
        fill: Any,
        slots: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """First-written value per id, ``fill`` where absent; plus hit mask."""
        k = ids.size
        dtype, row_shape = self._layout
        shape = (k, *row_shape)
        if k == 0 or self.rows == 0:
            return np.full(shape, fill, dtype=dtype), np.zeros(k, bool)
        self._indexed()
        valid = None
        if slots is not None:
            ids, valid = self._composite(ids, slots)
        first, found = self._locate(ids)
        if valid is not None:
            found &= valid
        order, values = self._order, self._values
        # take(axis=0): fancy-indexing the rows of a 2-D array is several
        # times slower.
        if found.all():
            rows = first if order is None else order[first]
            return values.take(rows, axis=0), found
        out = np.full(shape, fill, dtype=dtype)
        hits = first[found]
        rows = hits if order is None else order[hits]
        out[found] = values.take(rows, axis=0)
        return out, found

    def find(self, id_: int, slot: int | None, index: int) -> tuple[int, Any]:
        """One key's scalar probe: ``(count, value)``, how many rows the
        key has and the ``index``-th one's value (1-based, write order;
        None past the end) as a scalar read returns it."""
        probe = self._probe
        if probe is None:
            # Built once: the table as a memoryview and a cache of the rows
            # as Python values by stable key position, filled as probes
            # touch them: a repeated probe is two memoryview gathers and
            # one list index, a fraction of numpy's scalar-indexing time,
            # and a column only touches what its probes reach.
            self._indexed()
            probe = self._probe = (
                None if self._table is None else memoryview(self._table),
                self._lo, self._hi, [None] * self.rows,
            )
        table, lo, hi, rows = probe
        if slot is None:
            key = id_
        elif self._id_keys is None:
            id_lo, id_hi, slot_lo, stride = self._slot_range
            slot -= slot_lo
            if not (0 <= slot < stride and id_lo <= id_ <= id_hi):
                return 0, None
            key = (id_ - id_lo) * stride + slot
        else:
            keys, hit = self._composite(np.array([id_]), np.array([slot]))
            if not hit[0]:
                return 0, None
            key = int(keys[0])
        if table is None:
            sorted_keys = self._sorted_keys
            first = int(sorted_keys.searchsorted(key))
            count = int(sorted_keys.searchsorted(key, "right")) - first
        elif key < lo or key > hi:
            return 0, None
        else:
            first = table[key - lo]
            count = table[key - lo + 1] - first
        if index > count:
            return count, None
        position = first + index - 1
        value = rows[position]
        if value is None:  # no stored row is None: its first probe
            row = position if self._order is None else self._order[position]
            values = self._values
            value = rows[position] = (
                values.item(row) if values.ndim == 1 else tuple(values[row].tolist())
            )
        return count, value

    def pairs(self, namespace: str) -> Iterator[tuple[tuple, Any]]:
        """``(key, value)`` rows in write order, values as read."""
        ids, values = self.write_order()
        parts = _key_parts(namespace, ids, self._slots)
        return zip(_batch_keys(parts), _py_values(values))

    def share_parts(self) -> dict[str, Any]:
        """Materialize + index, then expose the column for cross-process
        sharing: the keyword arguments of :meth:`from_shared_parts`, arrays
        as internal views (treat as read-only) and None for what this
        column does not have — ``slots`` on a plain column, ``order`` when
        the keys were written in order, ``table`` / ``sorted_keys`` for
        the index form not in use (``sorted_keys`` also when it is just
        ``ids``), the rank arrays of a slotted column that offsets. Building
        the index *before* sharing means every worker reads one
        parent-built index instead of re-indexing per process.
        """
        self._indexed()
        parts = {name: getattr(self, "_" + name) for name in _SHARED}
        if parts["sorted_keys"] is parts["ids"]:
            parts["sorted_keys"] = None
        return parts

    @classmethod
    def from_shared_parts(cls, namespace: str, **parts: Any) -> "_Column":
        """Rebuild a read-only column over externally-held (e.g. shared-
        memory) arrays without copying. The result is for lookups only;
        appending to it is unsupported (shadow stores are sealed).
        """
        column = cls(namespace, parts["slots"] is not None)
        column.rows = int(parts["ids"].size)
        if parts["table"] is None and parts["sorted_keys"] is None:
            parts["sorted_keys"] = parts["ids"]
        for name, part in parts.items():
            setattr(column, "_" + name, part)
        return column


# What a column shares across processes, by attribute name less the "_".
_SHARED = (
    "layout", "ids", "values", "slots", "sorted_keys", "order", "table", "lo", "hi",
    "n_distinct", "slot_range", "id_keys", "slot_keys",
)


def check_write(
    key: Hashable, value: Any, max_words: int
) -> tuple[tuple[tuple[str, int], int, int | None], tuple[np.dtype, tuple]]:
    """Enforce the model's word bound on one key-value pair.

    The one definition of a scalar write's validity: the real store
    applies it before storing, the process backend's worker-side journal
    before journaling, so a model violation raises the same error type
    and message wherever the machine program ran. A key that is not
    ``(str, int64[, int64])`` or a value that is not a word row (see
    :func:`_row_layout`) raises :class:`TypeError` naming the namespace;
    one of more than ``max_words`` words, :class:`ValueSizeError`.
    Returns where the pair goes, ``((namespace, arity), id, slot)``, and
    the value's row layout.
    """
    where = _route(key)
    if where is None:
        raise TypeError(
            f"DDS key of namespace "
            f"{key[0] if type(key) is tuple and key else key!r} is not "
            f"(str, int64[, int64]): {reprlib.repr(key)}"
        )
    if len(key) > max_words:
        raise ValueSizeError(f"key exceeds {max_words} words: {key!r}")
    if type(value) is int and -_I64 <= value < _I64:
        return where, _INT_ROW  # the common case, checked inline
    layout = _row_layout(value)
    if layout is None:
        raise TypeError(
            f"DDS value of namespace {where[0][0]!r} is not an int, a float "
            f"or a flat tuple of them: {reprlib.repr(value)}"
        )
    if layout[1] and layout[1][0] > max_words:
        raise ValueSizeError(f"value exceeds {max_words} words: {value!r}")
    return where, layout


def check_write_array(
    namespace: str,
    ids: np.ndarray,
    values: np.ndarray,
    slots: np.ndarray | None,
    max_words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate one columnar write; returns ``(ids, values, slots)`` as
    arrays (int64 ids/slots). The batch counterpart of :func:`check_write`,
    shared by the real store and the worker-side journal."""
    if not isinstance(namespace, str):
        raise TypeError(
            f"write_array namespaces must be str, got {type(namespace).__name__}"
        )
    ids = int64_keys(namespace, ids)
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise TypeError(
            f"values of namespace {namespace!r} must have a bool, int or "
            f"float dtype, got {values.dtype}"
        )
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    if values.ndim not in (1, 2) or len(values) != ids.size:
        raise ValueError(
            f"values must be 1-D or 2-D with {ids.size} rows, "
            f"got shape {values.shape}"
        )
    if slots is not None:
        slots = int64_keys(namespace, slots, "slots")
        if slots.shape != ids.shape:
            raise ValueError(
                f"slots must match ids shape {ids.shape}, "
                f"got shape {slots.shape}"
            )
    width = 1 if values.ndim == 1 else values.shape[1]
    key_words = 2 if slots is None else 3
    if key_words > max_words:
        raise ValueSizeError(
            f"key exceeds {max_words} words: "
            f"({namespace!r}, id{', slot' if slots is not None else ''})"
        )
    if width > max_words:
        raise ValueSizeError(f"values exceed {max_words} words: width {width}")
    return ids, values, slots


class DistributedDataStore:
    """One round's key-value store D_i.

    Args:
        round_index: which round's output this store holds (i in D_i).
        n_servers: number of serving machines the keyspace is spread over.
        seed: placement seed (keys are placed independently per deployment).
        max_words: constant-size bound for each key and each value.
    """

    __slots__ = (
        "round_index",
        "n_servers",
        "seed",
        "max_words",
        "_columns",
        "_sealed",
        "_server_reads",
        "_read_counts",
        "_server_items",
        "_server_map",
        "n_writes",
        "n_reads",
    )

    def __init__(
        self,
        round_index: int,
        n_servers: int,
        seed: int = 0,
        max_words: int = 8,
    ) -> None:
        self.round_index = round_index
        self.n_servers = n_servers
        self.seed = seed
        self.max_words = max_words
        # (namespace, key arity) -> that namespace's rows.
        self._columns: dict[tuple[str, int], _Column] = {}
        # key -> owning server, memoized so repeated reads don't re-hash
        # (profiling showed per-read hashing dominating).
        self._server_map: dict[Hashable, int] = {}
        self._sealed = False
        self._server_reads = np.zeros(n_servers, dtype=np.int64)
        # _server_reads as a memoryview: one read's increment through it
        # costs half of numpy's scalar indexing (the per-read hot path).
        self._read_counts = memoryview(self._server_reads)
        self._server_items = np.zeros(n_servers, dtype=np.int64)
        self.n_writes = 0
        self.n_reads = 0

    @classmethod
    def attach_shadow(
        cls,
        *,
        round_index: int,
        n_servers: int,
        seed: int,
        max_words: int,
        columns: dict[tuple[str, int], _Column],
    ) -> "DistributedDataStore":
        """Reconstruct a sealed read-only twin of an exported store.

        Used by the process backend (:mod:`repro.parallel`): workers
        serve the round's adaptive reads from a shadow wired to the
        parent's columns (arrays in shared memory, zero copy). The shadow
        starts with zeroed read counters, so
        ``n_reads`` / ``_server_reads`` accumulated worker-side are
        exactly the deltas to merge back into the parent's store.
        """
        store = cls(round_index, n_servers, seed, max_words)
        store._columns = columns
        store._sealed = True
        return store

    # -- server routing (overridden by ReplicatedDataStore) ----------------

    def _owner_of(self, key: Hashable) -> int:
        server = self._server_map.get(key)
        if server is None:
            server = server_of(key, self.n_servers, self.seed)
            self._server_map[key] = server
        return server

    def _serve_read(self, key: Hashable) -> None:
        """Attribute one read to the server answering it."""
        self._read_counts[self._owner_of(key)] += 1

    def _histogram(self, parts: Sequence[Any]) -> np.ndarray:
        """Keys per server of a column-decomposed key batch: hash sweeps
        of at most :data:`KEY_SLICE` keys (bounded temporaries), bincount
        histogram."""
        length = next(p.size for p in parts if isinstance(p, np.ndarray))
        counts = np.zeros(self.n_servers, dtype=np.int64)
        for lo in range(0, length, KEY_SLICE):
            part = slice(lo, lo + KEY_SLICE)
            counts += np.bincount(
                server_of_array(
                    [p[part] if isinstance(p, np.ndarray) else p for p in parts],
                    self.n_servers, self.seed,
                ),
                minlength=self.n_servers,
            )
        return counts

    def _place_write_array(self, parts: Sequence[Any]) -> None:
        """Attribute stored pairs, a column-decomposed key batch, to the
        servers owning them."""
        self._server_items += self._histogram(parts)

    def _serve_read_array(self, parts: Sequence[Any]) -> None:
        """Batch :meth:`_serve_read` over column-decomposed keys."""
        self._server_reads += self._histogram(parts)

    # -- write side (open during round i) ---------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _sealed_error(self) -> StoreSealedError:
        return StoreSealedError(
            f"store D_{self.round_index} is sealed; writes belong to the "
            f"next round's store"
        )

    def _unsealed_error(self) -> StoreNotSealedError:
        return StoreNotSealedError(
            f"store D_{self.round_index} is still being written; it must "
            f"be sealed before reads"
        )

    def write(self, key: Hashable, value: Any) -> None:
        """Append one key-value pair.

        Duplicate keys accumulate: the j-th write of key ``x`` becomes
        addressable as ``(x, j)`` with j starting at 1, and a plain read of
        ``x`` returns the first value written. The key and value must be
        words (:func:`check_write`), the value of the row layout the
        namespace's first write fixed: int64, or float64 if any component
        is a float, as many words as the tuple is long.
        """
        if self._sealed:
            raise self._sealed_error()
        self._put(key, value)
        self.n_writes += 1

    def write_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> int:
        """Bulk :meth:`write`; returns the number of pairs written.

        Same contents, ``n_writes`` and placement histogram as one
        :meth:`write` per pair in order — a pair that fails validation
        raises with every earlier pair written — at one seal check. The
        process backend's journal merge writes through it too.
        """
        if self._sealed:
            raise self._sealed_error()
        count = 0
        try:
            for key, value in pairs:
                self._put(key, value)
                count += 1
        finally:
            self.n_writes += count
        return count

    def _put(self, key: Hashable, value: Any) -> None:
        """Validate one pair and add it to its column's pending chunk,
        placed when the chunk closes (one hash sweep)."""
        (column_key, id_, slot), layout = check_write(key, value, self.max_words)
        column = self._columns.get(column_key) or self._column(column_key)
        column.put(id_, slot, value, layout)

    def _column(self, key: tuple[str, int]) -> _Column:
        """The column of ``(namespace, arity)``, created empty if new."""
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = _Column(key[0], key[1] == 3)
        return column

    def _close_pending(self) -> None:
        """Close every column's pending chunk and place its rows (a sealed
        store has none)."""
        if self._sealed:
            return
        for (namespace, _), column in self._columns.items():
            closed = column.close()
            if closed is not None:
                self._place_write_array(_key_parts(namespace, *closed))

    def write_array(
        self,
        namespace: str,
        ids: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        """Columnar bulk write: pair ``(namespace, ids[i]) -> values[i]``.

        Semantically identical to ``write((namespace, int(ids[i])), v_i)``
        for every row — same key hash, same per-server placement histogram,
        same duplicate-key bucket semantics, same seal discipline — but the
        whole batch is placed with one vectorized hash sweep and one
        ``np.bincount``. ``values`` is 1-D (one word per value) or 2-D with
        ``values.shape[1]`` words per value, of a bool, int or float
        dtype; it must match the layout the namespace's first write
        fixed. An empty batch is checked, then stores nothing and fixes
        no layout. Duplicates index in write order, across ``write`` and
        ``write_array`` alike. Ids (and slots) must have an integer dtype.

        With ``slots`` (an int64 array parallel to ``ids``), the row keys
        are the 3-part ``(namespace, ids[i], slots[i])`` — the adjacency
        slot addressing ``("adj", u, i)`` of :func:`repro.graph.io.
        encode_graph` — hashed and placed exactly like the scalar
        3-tuples.
        """
        if self._sealed:
            raise self._sealed_error()
        ids, values, slots = check_write_array(
            namespace, ids, values, slots, self.max_words
        )
        if not ids.size:
            return  # stores nothing, so fixes no layout
        self._close_pending()
        self._column((namespace, 2 if slots is None else 3)).append(
            ids, values, slots
        )
        self.n_writes += ids.size
        self._place_write_array(_key_parts(namespace, ids, slots))

    def seal(self) -> None:
        """Freeze the store; from now on it is read-only (round boundary)."""
        self._close_pending()
        self._sealed = True

    # -- read side (open during round i+1) --------------------------------

    def _find(self, key: Hashable, index: int = 1) -> tuple[int, Any]:
        """Resolve ``key`` once: ``(count, value)``, how many pairs share
        it and the ``index``-th one's value (None past the end)."""
        if not self._sealed:
            self._close_pending()
        arity = len(key) if type(key) is tuple else 0
        if arity == 2 or arity == 3:
            # _route's answer for exact str / int parts, inlined: the hot
            # read path.
            id_, slot = key[1], key[2] if arity == 3 else None
            if type(key[0]) is str and type(id_) is int and -_I64 <= id_ < _I64 and (
                arity == 2 or type(slot) is int and -_I64 <= slot < _I64
            ):
                column = self._columns.get((key[0], arity))
                return (0, None) if column is None else column.find(
                    id_, slot, index
                )
        where = _route(key)
        column = None if where is None else self._columns.get(where[0])
        if column is None:
            return 0, None
        return column.find(where[1], where[2], index)

    def get(self, key: Hashable) -> Any:
        """Query one key. Returns the (first) value, or None if absent.

        For a key written k > 1 times, this returns the value addressable as
        ``(key, 1)``; use :meth:`get_indexed` for the others.
        """
        if not self._sealed:
            raise self._unsealed_error()
        self.n_reads += 1
        self._serve_read(key)
        return self._find(key)[1]

    def read_array(
        self,
        namespace: str,
        ids: np.ndarray,
        *,
        slots: np.ndarray | None = None,
        fill: Any = 0,
        return_found: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Columnar bulk read: first-written value per ``(namespace, id)``.

        Charges exactly like ``ids.size`` scalar :meth:`get` calls — the
        read counter and the per-server read-load histogram advance by the
        same amounts on the same servers — but the batch is routed with one
        vectorized hash sweep. Missing ids yield ``fill`` (which must be
        castable to the namespace's value dtype); pass
        ``return_found=True`` to also get the hit mask. With ``slots``,
        the probed keys are the 3-part ``(namespace, id, slot)``. Pairs
        written by scalar :meth:`write` are read like any other: the
        result has the namespace's row layout whichever call wrote it.
        """
        if not self._sealed:
            raise self._unsealed_error()
        ids = int64_keys(namespace, ids)
        if slots is not None:
            slots = int64_keys(namespace, slots, "slots")
        self.n_reads += ids.size
        self._serve_read_array(_key_parts(namespace, ids, slots))
        column = self._columns.get((namespace, 2 if slots is None else 3))
        if column is None:
            out, found = np.full(ids.size, fill), np.zeros(ids.size, bool)
        else:
            out, found = column.lookup(ids, fill, slots=slots)
        return (out, found) if return_found else out

    def serve_reads_array(self, parts: Sequence[Any]) -> None:
        """Charge a batch of reads without fetching values.

        ``parts`` is a column-decomposed key batch (scalars shared across
        keys, arrays per-key) — e.g. ``["adj", us, slots]`` for keys
        ``("adj", u, slot)``. Advances the read counter and per-server
        loads exactly as individual :meth:`get` calls on those keys would;
        used by workers that recompute values locally (replayed reads) but
        must still pay and attribute the model's read cost.
        """
        if not self._sealed:
            raise self._unsealed_error()
        length = next(
            (p.size for p in parts if isinstance(p, np.ndarray)), 0
        )
        self.n_reads += length
        if length:
            self._serve_read_array(parts)

    def read_namespace(self, namespace: str) -> tuple[np.ndarray, np.ndarray]:
        """Coordinator-side bulk collection of one namespace: ``(ids, values)``.

        The one harvest of a round's output, whichever calls wrote it:
        every ``(namespace, id)`` pair in write order, duplicates
        included. ``values`` has the namespace's row layout: 1-D for
        one-word rows, ``(rows, k)`` for k-word rows (views of the
        store's arrays: do not mutate). An absent namespace yields two
        empty arrays. Uncharged, like :meth:`items`:
        callers that model machine-side collection must charge reads
        through the runtime.
        """
        self._close_pending()
        column = self._columns.get((namespace, 2))
        if column is None:
            return np.asarray([], dtype=np.int64), np.asarray([])
        return column.write_order()

    def get_indexed(self, key: Hashable, index: int) -> Any:
        """Query the ``index``-th (1-based) pair with this key, or None.

        This is the model's ``(x, i)`` addressing for duplicate keys.
        """
        if index < 1:
            raise ValueError(f"duplicate-key indices are 1-based, got {index}")
        if not self._sealed:
            raise self._unsealed_error()
        self.n_reads += 1
        self._serve_read(key)
        return self._find(key, index)[1]

    def multiplicity(self, key: Hashable) -> int:
        """How many pairs share ``key`` (0 if absent).

        A real deployment would discover this by probing (x, 1), (x, 2), ...;
        the simulator exposes it directly, and
        :meth:`repro.core.machine.MachineContext.read_bucket` charges the
        probing cost so algorithm accounting stays faithful.
        """
        return self._find(key)[0]

    def __contains__(self, key: Hashable) -> bool:
        return self._find(key)[0] > 0

    def __len__(self) -> int:
        """Number of distinct keys stored."""
        self._close_pending()
        return sum(column.n_distinct for column in self._columns.values())

    @property
    def n_pairs(self) -> int:
        """Total key-value pairs stored (counting duplicates)."""
        return self.n_writes

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate all (key, value) pairs: each column's rows in write
        order, columns in the order their namespaces were first written.

        Coordinator-side convenience for collecting round outputs; per-pair
        read charging is handled by the runtime helpers that call it.
        """
        self._close_pending()
        for (namespace, _), column in self._columns.items():
            yield from column.pairs(namespace)

    # -- contention accounting (Lemma 2.1) --------------------------------

    @property
    def server_read_loads(self) -> np.ndarray:
        """Reads served per DDS server (copy)."""
        return self._server_reads.copy()

    @property
    def server_item_loads(self) -> np.ndarray:
        """Key-value pairs stored per DDS server (copy)."""
        self._close_pending()
        return self._server_items.copy()

    def max_server_load(self) -> int:
        """Maximum reads any single server answered for this store."""
        return int(self._server_reads.max()) if self.n_servers else 0

    def reset_read_load(self) -> None:
        """Zero the read-side accounting (reads answered, per-server loads).

        Serving rollback hook (:meth:`~repro.core.runtime.AMPCRuntime.query_round`):
        a resident sealed store answers many mutually-independent query
        rounds, and every round's ledger row snapshots the store's
        *absolute* read-load histogram — so the serving path zeroes it
        between rounds to make each round's contention accounting read
        as if the store were freshly sealed. Write-side accounting
        (items stored per server) is state, not traffic, and stays.
        """
        self.n_reads = 0
        self._server_reads[:] = 0

    def read_load(self) -> tuple[int, np.ndarray]:
        """Snapshot of the read-side accounting, for
        :meth:`restore_read_load`."""
        return self.n_reads, self._server_reads.copy()

    def restore_read_load(self, snapshot: tuple[int, np.ndarray]) -> None:
        """Rewind the read-side accounting to a :meth:`read_load`
        snapshot: the reads served since then were a crashed machine's,
        which the ledger books as recovery waste, not as contention."""
        self.n_reads = snapshot[0]
        self._server_reads[:] = snapshot[1]


class ReplicatedDataStore(DistributedDataStore):
    """A round store whose pairs live on k DDS servers (§2.1, executable).

    A real RDMA deployment loses *serving* machines, not only workers.
    This store makes that failure mode survivable: every key-value pair is
    placed on ``replication`` distinct servers
    (:func:`repro.core.partition.replica_servers`; the primary matches the
    unreplicated placement), a set of servers can be marked down via
    :meth:`set_down`, and a read whose primary is down fails over to the
    first live backup — counted in :attr:`failover_reads`, the price of
    the outage. Only when *every* replica of a key is down does the read
    raise :class:`~repro.core.errors.ServerUnavailableError`, which a
    chaos-aware runtime converts into a whole-round checkpoint restore.

    Args:
        replication: replicas per pair (k; clamped to ``n_servers``).
        injector: optional fault channel (see
            :class:`repro.core.chaos.ChaosSession`) consulted on every
            read for the current outage set and transient-timeout faults.
            Duck-typed: needs ``down`` (a set of server ids), and
            ``on_read(server)`` / ``on_failover(n)`` hooks.
    """

    __slots__ = ("replication", "_replica_map", "_down", "_injector",
                 "failover_reads")

    def __init__(
        self,
        round_index: int,
        n_servers: int,
        seed: int = 0,
        max_words: int = 8,
        *,
        replication: int = 2,
        injector: Any = None,
    ) -> None:
        super().__init__(round_index, n_servers, seed, max_words)
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = min(replication, n_servers)
        self._replica_map: dict[Hashable, tuple[int, ...]] = {}
        self._down: set[int] = set()
        self._injector = injector
        self.failover_reads = 0

    # -- outage control ----------------------------------------------------

    def set_down(self, servers: Iterable[int]) -> None:
        """Mark serving machines as failed (until :meth:`restore_all`)."""
        self._down = set(int(s) for s in servers)

    def restore_all(self) -> None:
        """Bring every directly-marked server back up."""
        self._down.clear()

    @property
    def down_servers(self) -> frozenset[int]:
        """Servers currently unable to answer reads."""
        down = self._down
        if self._injector is not None:
            down = down | set(self._injector.down)
        return frozenset(down)

    # -- routing overrides -------------------------------------------------

    def replicas_of(self, key: Hashable) -> tuple[int, ...]:
        """The servers holding ``key`` (primary first)."""
        replicas = self._replica_map.get(key)
        if replicas is None:
            replicas = replica_servers(
                key, self.n_servers, self.seed, self.replication
            )
            self._replica_map[key] = replicas
        return replicas

    def _place_write_array(self, parts: Sequence[Any]) -> None:
        # Replication placement is per-key (distinct-replica search), so
        # the batch degrades to a scalar loop — the price block programs
        # pay for running under a fault plan.
        for key in _batch_keys(parts):
            for server in self.replicas_of(key):
                self._server_items[server] += 1

    def _serve_read_array(self, parts: Sequence[Any]) -> None:
        # Per-key failover (outage probing, injector hooks) cannot be
        # expressed as a bincount; replay the batch through _serve_read.
        for key in _batch_keys(parts):
            self._serve_read(key)

    def _serve_read(self, key: Hashable) -> None:
        replicas = self.replicas_of(key)
        injector = self._injector
        down = self._down if injector is None else None
        serving = None
        probes = 0
        for server in replicas:
            if injector is not None:
                unavailable = server in injector.down or server in self._down
            else:
                unavailable = server in down
            if not unavailable:
                serving = server
                break
            probes += 1
        if serving is None:
            raise ServerUnavailableError(key, replicas)
        if probes:
            self.failover_reads += probes
            if injector is not None:
                injector.on_failover(probes)
        self._read_counts[serving] += 1
        if injector is not None:
            injector.on_read(serving)
