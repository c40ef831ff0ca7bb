"""The distributed data store (DDS) of the AMPC model (paper §2).

One :class:`DistributedDataStore` instance models one D_i: the collection of
key-value pairs written during round i and readable (only) during round i+1.
Semantics implemented exactly as specified:

* key → constant-size value (size bound enforced);
* k pairs sharing a key ``x`` are individually addressable as
  ``(x, 1) ... (x, k)`` — indices assigned in write order, which is one
  valid choice of the model's "arbitrary" assignment;
* querying a missing key yields an empty response (``None``);
* the store is *sealed* between rounds: reads before sealing and writes
  after sealing raise, enforcing the model's round discipline.

The store also plays the role of the P serving machines of §2.1: every read
is attributed to the server owning the key (random placement via
:mod:`repro.core.partition`), giving the per-server load data behind the
Lemma 2.1 contention analysis.

The store is a passive service: nothing observes it directly. Every
operation a machine issues fires that machine's hooks
(:mod:`repro.core.hooks`).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    RoundProtocolError,
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
    length = None
    for part in parts:
        if isinstance(part, np.ndarray):
            length = part.size
            break
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


# A column is indexed by a position table when its key span is at most this
# many times its row count. At 4 the int32 table (span + 1 entries) takes no
# more bytes than the int64 sorted-keys + order pair of the other form, so
# index bytes stay O(rows) whichever form the data selects.
_TABLE_SPAN_FACTOR = 4

#: Keys per hash sweep when a whole-round batch is placed or charged:
#: bounds the sweep's temporaries whatever the batch size.
KEY_SLICE = 1 << 16


class _Column:
    """Columnar storage for one namespace of (id -> value) pairs.

    Append-only chunks of parallel int64-id / value arrays; an index over
    the keys is built lazily on first lookup (i.e. after the store seals).
    Duplicate ids keep every row — bucket semantics — and a plain lookup
    returns the first-written row, matching the scalar store's
    duplicate-key rule.

    A column is either *plain* (keys ``(namespace, id)``) or *slotted*
    (keys ``(namespace, id, slot)``, e.g. adjacency slot addressing
    ``("adj", u, i)``); the first append decides which, and the two key
    shapes never share a column. Slotted lookups index a composite
    ``id * stride + (slot - slot_lo)`` key, where ``slot_lo`` and
    ``stride`` come from the column's own slot range at index-build time.

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
    :meth:`_locate` is the only code that knows which form is live.
    """

    __slots__ = (
        "width",
        "dtype",
        "rows",
        "slotted",
        "_id_chunks",
        "_slot_chunks",
        "_value_chunks",
        "_ids",
        "_slots",
        "_values",
        "_built",
        "_order",
        "_table",
        "_sorted_keys",
        "_lo",
        "_hi",
        "_n_distinct",
        "_stride",
        "_slot_lo",
    )

    def __init__(self, width: int, dtype: np.dtype, slotted: bool = False) -> None:
        self.width = width
        self.dtype = dtype
        self.rows = 0
        self.slotted = slotted
        self._id_chunks: list[np.ndarray] = []
        self._slot_chunks: list[np.ndarray] = []
        self._value_chunks: list[np.ndarray] = []
        self._ids: np.ndarray | None = None
        self._slots: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._built = False
        self._order: np.ndarray | None = None
        self._table: np.ndarray | None = None
        self._sorted_keys: np.ndarray | None = None
        # Smallest / largest stored key (composite, for slotted columns).
        self._lo = 0
        self._hi = -1
        self._n_distinct = 0
        self._stride = 1
        self._slot_lo = 0

    def append(
        self,
        ids: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        width = 1 if values.ndim == 1 else values.shape[1]
        if width != self.width or values.dtype != self.dtype:
            raise ValueError(
                f"namespace value layout changed: expected width {self.width} "
                f"dtype {self.dtype}, got width {width} dtype {values.dtype}"
            )
        if (slots is not None) != self.slotted:
            raise ValueError(
                f"namespace key layout changed: expected "
                f"{'(namespace, id, slot)' if self.slotted else '(namespace, id)'} "
                f"keys"
            )
        self._id_chunks.append(_owned_chunk(ids))
        if slots is not None:
            self._slot_chunks.append(_owned_chunk(slots))
        self._value_chunks.append(_owned_chunk(values))
        self.rows += ids.size
        self._ids = self._slots = self._values = None
        self._built = False
        self._order = self._table = self._sorted_keys = None

    def _materialized(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ids is None:
            if len(self._id_chunks) == 1:
                self._ids = self._id_chunks[0]
                self._values = self._value_chunks[0]
                if self.slotted:
                    self._slots = self._slot_chunks[0]
            else:
                self._ids = np.concatenate(self._id_chunks)
                self._values = np.concatenate(self._value_chunks)
                if self.slotted:
                    self._slots = np.concatenate(self._slot_chunks)
        return self._ids, self._values

    def _composite(self, ids: np.ndarray, slots: np.ndarray) -> np.ndarray:
        if self._slot_lo:
            slots = slots - self._slot_lo
        return ids * self._stride + slots

    def _indexed(self) -> None:
        if self._built:
            return
        keys, _ = self._materialized()
        rows = self.rows
        if rows == 0:
            # Nothing to index; every reader short-circuits on rows == 0.
            self._built = True
            return
        if self.slotted:
            assert self._slots is not None
            # Slot range and stride are derived from the data, so the
            # composite key is a bijection over the rows seen so far;
            # every append resets the index, keeping them in step with
            # the contents. Checked in Python ints: int64 would wrap
            # silently and make distinct (id, slot) keys collide.
            slot_lo = int(self._slots.min())
            stride = int(self._slots.max()) - slot_lo + 1
            id_lo, id_hi = int(keys.min()), int(keys.max())
            if id_lo * stride < -(2**63) or (id_hi + 1) * stride > 2**63:
                raise ValueError(
                    f"slotted namespace cannot be indexed: ids in "
                    f"[{id_lo}, {id_hi}] with {stride} slots per id do not "
                    f"fit one int64 key"
                )
            self._slot_lo, self._stride = slot_lo, stride
            keys = self._composite(keys, self._slots)
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
        self._built = True

    def _locate(self, keys: Any) -> tuple[Any, Any]:
        """Resolve index keys: ``(first, found)``.

        ``found`` says whether the key is stored and ``first`` is the
        position of its first-written row in stable key order. ``keys`` is
        an int64 array (``first`` is then meaningful only where ``found``)
        or one Python int of any size (``first`` is then exactly the number
        of smaller stored keys, hit or miss, so ``_locate(k + 1)[0]`` ends
        k's run of duplicates). Requires a built index over >= 1 row.
        """
        lo, hi = self._lo, self._hi
        table = self._table
        if not isinstance(keys, np.ndarray):
            if keys < lo:
                return 0, False
            if keys > hi:
                return self.rows, False
            if table is None:
                sorted_keys = self._sorted_keys
                first = int(sorted_keys.searchsorted(keys))
                return first, bool(sorted_keys[first] == keys)
            first = table.item(keys - lo)
            return first, table.item(keys - lo + 1) > first
        if table is None:
            sorted_keys = self._sorted_keys
            first = sorted_keys.searchsorted(keys)
            found = sorted_keys[np.minimum(first, self.rows - 1)] == keys
            return first, found
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
        shape = k if self.width == 1 else (k, self.width)
        if k == 0 or self.rows == 0 or (slots is not None) != self.slotted:
            # Key-shape mismatch: those keys were never written into this
            # column, so every probe misses (same as querying absent ids).
            return np.full(shape, fill, dtype=self.dtype), np.zeros(k, bool)
        self._indexed()
        valid = None
        if slots is not None:
            # Probes outside the written id / slot ranges cannot be stored,
            # and their composite could wrap int64 onto a key that is:
            # neutralize them before multiplying, record them as misses.
            stride = self._stride
            id_lo, id_hi = self._lo // stride, self._hi // stride
            slot_lo = self._slot_lo
            slot_hi = slot_lo + stride - 1
            if (
                slots.min() < slot_lo or slots.max() > slot_hi
                or ids.min() < id_lo or ids.max() > id_hi
            ):
                valid = (
                    (slots >= slot_lo) & (slots <= slot_hi)
                    & (ids >= id_lo) & (ids <= id_hi)
                )
                ids = np.where(valid, ids, id_lo)
                slots = np.where(valid, slots, slot_lo)
            ids = self._composite(ids, slots)
        first, found = self._locate(ids)
        if valid is not None:
            found &= valid
        order = self._order
        values = self._values
        assert values is not None
        # take(axis=0): fancy-indexing the rows of a 2-D array is several
        # times slower.
        if found.all():
            rows = first if order is None else order[first]
            return values.take(rows, axis=0), found
        out = np.full(shape, fill, dtype=self.dtype)
        hits = first[found]
        rows = hits if order is None else order[hits]
        out[found] = values.take(rows, axis=0)
        return out, found

    def _scalar_key(self, id_: int, slot: int | None) -> int | None:
        """Index key of one scalar probe; None if it cannot be stored here."""
        if self.rows == 0 or (slot is not None) != self.slotted:
            return None
        self._indexed()
        if slot is None:
            return id_
        slot -= self._slot_lo
        if not 0 <= slot < self._stride:
            return None
        return id_ * self._stride + slot

    def count(self, id_: int, slot: int | None = None) -> int:
        key = self._scalar_key(id_, slot)
        if key is None:
            return 0
        first, found = self._locate(key)
        return self._locate(key + 1)[0] - first if found else 0

    def value_at(self, id_: int, index: int, slot: int | None = None) -> Any:
        """The ``index``-th (1-based, write-order) value of ``id_``, or None."""
        key = self._scalar_key(id_, slot)
        if key is None:
            return None
        first, found = self._locate(key)
        if not found or (
            index > 1 and index > self._locate(key + 1)[0] - first
        ):
            return None
        position = first + index - 1
        row = position if self._order is None else int(self._order[position])
        assert self._values is not None
        return self._scalar(self._values, row)

    def _scalar(self, values: np.ndarray, row: int) -> Any:
        if self.width == 1:
            return values[row].item()
        return tuple(values[row].tolist())

    def write_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values) in write order — views, do not mutate."""
        return self._materialized()

    def share_parts(self) -> dict[str, Any]:
        """Materialize + index, then expose the column for cross-process
        sharing: the keyword arguments of :meth:`from_shared_parts`, arrays
        as internal views (treat as read-only) and None for what this
        column does not have — ``slots`` on a plain column, ``order`` when
        the keys were written in order, ``table`` / ``sorted_keys`` for
        the index form not in use (``sorted_keys`` also when it is just
        ``ids``). Building the index *before* sharing means every worker
        reads one parent-built index instead of re-indexing per process.
        """
        ids, values = self._materialized()
        self._indexed()
        return {
            "width": self.width,
            "dtype": self.dtype,
            "ids": ids,
            "values": values,
            "slots": self._slots,
            "order": self._order,
            "table": self._table,
            "sorted_keys": (
                None if self._sorted_keys is ids else self._sorted_keys
            ),
            "lo": self._lo,
            "hi": self._hi,
            "n_distinct": self._n_distinct,
            "stride": self._stride,
            "slot_lo": self._slot_lo,
        }

    @classmethod
    def from_shared_parts(
        cls,
        width: int,
        dtype: np.dtype,
        ids: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None,
        order: np.ndarray | None,
        table: np.ndarray | None,
        sorted_keys: np.ndarray | None,
        lo: int,
        hi: int,
        n_distinct: int,
        stride: int,
        slot_lo: int,
    ) -> "_Column":
        """Rebuild a read-only column over externally-held (e.g. shared-
        memory) arrays without copying. The result is for lookups only;
        appending to it is unsupported (shadow stores are sealed).
        """
        column = cls(width, np.dtype(dtype), slotted=slots is not None)
        column.rows = int(ids.size)
        column._ids = ids
        column._slots = slots
        column._values = values
        column._order = order
        column._table = table
        column._sorted_keys = (
            ids if table is None and sorted_keys is None else sorted_keys
        )
        column._lo, column._hi = int(lo), int(hi)
        column._n_distinct = int(n_distinct)
        column._stride, column._slot_lo = int(stride), int(slot_lo)
        column._built = True
        return column

    def iter_pairs(self) -> Iterator[tuple[int, Any]]:
        ids, values = self._materialized()
        for row in range(self.rows):
            yield int(ids[row]), self._scalar(values, row)

    def iter_slotted_pairs(self) -> Iterator[tuple[int, int, Any]]:
        ids, values = self._materialized()
        assert self._slots is not None
        for row in range(self.rows):
            yield (
                int(ids[row]), int(self._slots[row]),
                self._scalar(values, row),
            )


def value_words(value: Any) -> int:
    """Number of machine words a key or value occupies.

    Scalars (int, float, str treated as an interned symbol) count as one
    word; tuples count component-wise. Used to enforce the model's
    constant-size bound on key-value pairs.
    """
    if type(value) is tuple:
        # Fast path: flat tuples are by far the common case (profiled).
        total = 0
        for v in value:
            total += value_words(v) if type(v) is tuple else 1
        return total
    return 1


def check_write(key: Hashable, value: Any, max_words: int) -> None:
    """Enforce the model's constant-size bound on one key-value pair.

    The one definition of a scalar write's validity: the real store
    applies it before storing, the process backend's worker-side journal
    before journaling, so a model violation raises the same error type
    and message wherever the machine program ran.
    """
    if value_words(key) > max_words:
        raise ValueSizeError(f"key exceeds {max_words} words: {key!r}")
    if value_words(value) > max_words:
        raise ValueSizeError(f"value exceeds {max_words} words: {value!r}")


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
    ids = np.asarray(ids, dtype=np.int64)
    values = np.asarray(values)
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    if values.ndim not in (1, 2) or len(values) != ids.size:
        raise ValueError(
            f"values must be 1-D or 2-D with {ids.size} rows, "
            f"got shape {values.shape}"
        )
    if slots is not None:
        slots = np.asarray(slots, dtype=np.int64)
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
        raise ValueSizeError(
            f"values exceed {max_words} words: width {width}"
        )
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
        "_data",
        "_columns",
        "_sealed",
        "_server_reads",
        "_server_items",
        "_server_map",
        "_scalar_keys",
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
        self._data: dict[Hashable, Any] = {}
        # Columnar twin of _data for the vectorized path: namespace ->
        # arrays of (id, value) rows, keyed exactly like the tuple keys
        # (namespace, id) of the scalar path (same hash, same placement).
        self._columns: dict[str, _Column] = {}
        # key -> owning server, filled at write time so reads don't
        # re-hash (profiling showed per-read hashing dominating).
        self._server_map: dict[Hashable, int] = {}
        # (namespace, key length) of the scalar pairs a bulk read of the
        # namespace would skip; found on first need, kept once sealed.
        self._scalar_keys: set[tuple[str, int]] | None = None
        self._sealed = False
        self._server_reads = np.zeros(n_servers, dtype=np.int64)
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
        data: dict,
        columns: dict[str, _Column],
    ) -> "DistributedDataStore":
        """Reconstruct a sealed read-only twin of an exported store.

        Used by the process backend (:mod:`repro.parallel`): workers
        serve the round's adaptive reads from a shadow wired to the
        parent's column arrays (shared memory, zero copy) and scalar
        ``data`` dict. The shadow starts with zeroed read counters, so
        ``n_reads`` / ``_server_reads`` accumulated worker-side are
        exactly the deltas to merge back into the parent's store.
        """
        store = cls(
            round_index=round_index,
            n_servers=n_servers,
            seed=seed,
            max_words=max_words,
        )
        store._data = data
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

    def _place_write(self, key: Hashable) -> None:
        """Attribute one stored pair to the server(s) owning ``key``."""
        self._server_items[self._owner_of(key)] += 1

    def _serve_read(self, key: Hashable) -> None:
        """Attribute one read to the server answering it."""
        self._server_reads[self._owner_of(key)] += 1

    def _place_write_array(
        self,
        namespace: str,
        ids: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        """Batch :meth:`_place_write`: hash sweeps of at most
        :data:`KEY_SLICE` keys (bounded temporaries), bincount
        histogram."""
        for lo in range(0, ids.size, KEY_SLICE):
            part = slice(lo, lo + KEY_SLICE)
            parts = [namespace, ids[part]]
            if slots is not None:
                parts.append(slots[part])
            servers = server_of_array(parts, self.n_servers, self.seed)
            self._server_items += np.bincount(
                servers, minlength=self.n_servers
            )

    def _serve_read_array(self, parts: Sequence[Any]) -> None:
        """Batch :meth:`_serve_read` over column-decomposed keys: hash
        sweeps of at most :data:`KEY_SLICE` keys, as
        :meth:`_place_write_array` places them."""
        length = next(p.size for p in parts if isinstance(p, np.ndarray))
        for lo in range(0, length, KEY_SLICE):
            part = slice(lo, lo + KEY_SLICE)
            servers = server_of_array(
                [p[part] if isinstance(p, np.ndarray) else p for p in parts],
                self.n_servers, self.seed,
            )
            self._server_reads += np.bincount(
                servers, minlength=self.n_servers
            )

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
        ``x`` returns the first value written.
        """
        if self._sealed:
            raise self._sealed_error()
        check_write(key, value, self.max_words)
        existing = self._data.get(key)
        if existing is None:
            self._data[key] = value
        elif isinstance(existing, _Bucket):
            existing.values.append(value)
        else:
            self._data[key] = _Bucket([existing, value])
        self.n_writes += 1
        self._place_write(key)

    def write_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> int:
        """Bulk :meth:`write`; returns the number of pairs written.

        Same contents, ``n_writes`` and placement histogram as one
        :meth:`write` per pair in order — a pair that fails validation
        raises with every earlier pair written — at one seal check and
        one placement hash sweep per key namespace.
        """
        return self._write_pairs(pairs, self.max_words)

    def _write_pairs(
        self, pairs: Iterable[tuple[Hashable, Any]], max_words: int | None
    ) -> int:
        """The one bulk scalar-write path: :meth:`write_many`, and the
        process backend's journal merge with ``max_words=None`` (its
        pairs were validated when the worker journaled them).

        Pairs are streamed. A ``(str, int)`` or ``(str, int, int)`` key
        keeps only its ints, to be placed with its namespace by
        :meth:`_place_ints`; any other key is placed as it is written.
        """
        if self._sealed:
            raise self._sealed_error()
        data = self._data
        plain: dict[str, list[int]] = {}
        slotted: dict[str, list[int]] = {}
        count = 0
        try:
            for key, value in pairs:
                if max_words is not None:
                    check_write(key, value, max_words)
                existing = data.get(key)
                if existing is None:
                    data[key] = value
                elif isinstance(existing, _Bucket):
                    existing.values.append(value)
                else:
                    data[key] = _Bucket([existing, value])
                count += 1
                # Exact types only: numpy ids, bools and other shapes take
                # the per-key path, the reference placement.
                arity = len(key) if type(key) is tuple else 0
                if arity == 2 and type(key[0]) is str and type(key[1]) is int:
                    plain.setdefault(key[0], []).append(key[1])
                elif (
                    arity == 3 and type(key[0]) is str
                    and type(key[1]) is int and type(key[2]) is int
                ):
                    slotted.setdefault(key[0], []).extend(key[1:])
                else:
                    self._place_write(key)
        finally:
            self.n_writes += count
            for namespace, flat in plain.items():
                self._place_ints(namespace, 1, flat)
            for namespace, flat in slotted.items():
                self._place_ints(namespace, 2, flat)
        return count

    def _place_ints(self, namespace: str, width: int, flat: list[int]) -> None:
        """Place ``(namespace, *flat[i:i + width])`` keys: one
        :meth:`_place_write_array` sweep, or per key when an int does not
        fit int64 (Python ints are unbounded, columns are not)."""
        try:
            columns = np.asarray(flat, dtype=np.int64)
        except OverflowError:
            for i in range(0, len(flat), width):
                self._place_write((namespace, *flat[i:i + width]))
            return
        columns = columns.reshape(-1, width)
        self._place_write_array(
            namespace, columns[:, 0], columns[:, 1] if width == 2 else None
        )

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
        ``values.shape[1]`` words per value. Mixing scalar ``write`` and
        ``write_array`` on the *same* (namespace, id) key leaves the
        duplicate ordering between the two paths unspecified.

        With ``slots`` (an int64 array parallel to ``ids``), the row keys
        are the 3-part ``(namespace, ids[i], slots[i])`` — the adjacency
        slot addressing ``("adj", u, i)`` of :func:`repro.graph.io.
        encode_graph` — hashed and placed exactly like the scalar
        3-tuples. A namespace is either always slotted or never: the two
        key shapes cannot share a column.
        """
        if self._sealed:
            raise self._sealed_error()
        ids, values, slots = check_write_array(
            namespace, ids, values, slots, self.max_words
        )
        column = self._columns.get(namespace)
        if column is None:
            column = self._columns[namespace] = _Column(
                1 if values.ndim == 1 else values.shape[1],
                values.dtype,
                slotted=slots is not None,
            )
        column.append(ids, values, slots)
        self.n_writes += ids.size
        self._place_write_array(namespace, ids, slots)

    def seal(self) -> None:
        """Freeze the store; from now on it is read-only (round boundary)."""
        self._sealed = True

    # -- read side (open during round i+1) --------------------------------

    def get(self, key: Hashable) -> Any:
        """Query one key. Returns the (first) value, or None if absent.

        For a key written k > 1 times, this returns the value addressable as
        ``(key, 1)``; use :meth:`get_indexed` for the others.
        """
        if not self._sealed:
            raise self._unsealed_error()
        self.n_reads += 1
        self._serve_read(key)
        found = self._data.get(key)
        if isinstance(found, _Bucket):
            return found.values[0]
        if found is None and self._columns:
            resolved = self._column_key(key)
            if resolved is not None:
                column, id_, slot = resolved
                return column.value_at(id_, 1, slot=slot)
        return found

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
        the probed keys are the 3-part ``(namespace, id, slot)`` of a
        slotted :meth:`write_array` namespace. Keys of that shape written
        by scalar :meth:`write` are not in the columns, so their
        namespace raises :class:`~repro.core.errors.RoundProtocolError`
        rather than read as missing.
        """
        if not self._sealed:
            raise self._unsealed_error()
        if self._data:
            self._refuse_scalar_pairs(
                namespace, 2 if slots is None else 3, "read_array"
            )
        ids = np.asarray(ids, dtype=np.int64)
        if slots is not None:
            slots = np.asarray(slots, dtype=np.int64)
        self.n_reads += ids.size
        self._serve_read_array(
            [namespace, ids] if slots is None else [namespace, ids, slots]
        )
        column = self._columns.get(namespace)
        if column is None:
            out = np.full(ids.size, fill)
            found = np.zeros(ids.size, bool)
        else:
            out, found = column.lookup(ids, fill, slots=slots)
        if return_found:
            return out, found
        return out

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

        The one harvest of a round's output, whichever program shape
        wrote it. Row order per representation:

        * written with :meth:`write_array` — write order, duplicates
          included; ``values`` keeps the column's dtype and width (views
          of the store's arrays: do not mutate);
        * written with scalar ``write((namespace, id), value)`` — the
          order :meth:`items` yields those keys: keys by first write, each
          key's duplicates expanded in write order; ``values`` is
          ``np.asarray`` of the stored values, so k-tuples become a
          ``(rows, k)`` array. Keys of any other shape are not part of
          the namespace and are skipped.

        A namespace written both ways raises
        :class:`~repro.core.errors.RoundProtocolError` rather than drop
        one representation's rows. An absent namespace yields two empty
        arrays. Uncharged, like :meth:`items`: callers that model
        machine-side collection must charge reads through the runtime.
        """
        column = self._columns.get(namespace)
        if column is not None:
            if self._data:
                self._refuse_scalar_pairs(namespace, 2, "read_namespace")
            return column.write_order()
        ids: list[int] = []
        values: list[Any] = []
        for key, value in self._data.items():
            if not (
                type(key) is tuple
                and len(key) == 2
                and key[0] == namespace
                and isinstance(key[1], (int, np.integer))
            ):
                continue
            if isinstance(value, _Bucket):
                ids.extend([key[1]] * len(value.values))
                values.extend(value.values)
            else:
                ids.append(key[1])
                values.append(value)
        return np.asarray(ids, dtype=np.int64), np.asarray(values)

    def _refuse_scalar_pairs(
        self, namespace: str, width: int, reader: str
    ) -> None:
        """Raise if scalar writes stored ``width``-part ``(namespace, id
        [, slot])`` keys, which ``reader`` reading the columns would skip.

        The first call on a sealed store scans the scalar keys once; the
        answer depends on the stored pairs only, so a shadow store gives
        the one its parent gives."""
        keys = self._scalar_keys
        if keys is None:
            keys = {
                (key[0], len(key))
                for key in self._data
                if type(key) is tuple
                and len(key) in (2, 3)
                and isinstance(key[0], str)
                and all(isinstance(k, (int, np.integer)) for k in key[1:])
            }
            if self._sealed:
                self._scalar_keys = keys
        if (namespace, width) in keys:
            raise RoundProtocolError(
                f"{reader} of namespace {namespace!r}, which holds pairs "
                f"written by scalar write(): {reader} reads write_array "
                f"rows only and would skip them; read those keys with "
                f"get() or write the namespace one way"
            )

    def _column_key(self, key: Hashable) -> tuple[_Column, int, int | None] | None:
        """Resolve a scalar key against the columnar twin.

        Returns ``(column, id, slot)`` when ``key`` is a batch-style
        ``(str, int)`` or slotted ``(str, int, int)`` key whose namespace
        has a column of the *matching* key shape; None otherwise (a plain
        key can never hit a slotted column and vice versa — they are
        different keys).
        """
        if not (type(key) is tuple and isinstance(key[0], str)):
            return None
        if len(key) == 2 and isinstance(key[1], (int, np.integer)):
            slot: int | None = None
        elif (
            len(key) == 3
            and isinstance(key[1], (int, np.integer))
            and isinstance(key[2], (int, np.integer))
        ):
            slot = int(key[2])
        else:
            return None
        column = self._columns.get(key[0])
        if column is None or column.slotted != (slot is not None):
            return None
        return column, int(key[1]), slot

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
        found = self._data.get(key)
        if found is None:
            if self._columns:
                resolved = self._column_key(key)
                if resolved is not None:
                    column, id_, slot = resolved
                    return column.value_at(id_, index, slot=slot)
            return None
        if isinstance(found, _Bucket):
            return found.values[index - 1] if index <= len(found.values) else None
        return found if index == 1 else None

    def multiplicity(self, key: Hashable) -> int:
        """How many pairs share ``key`` (0 if absent).

        A real deployment would discover this by probing (x, 1), (x, 2), ...;
        the simulator exposes it directly, and
        :meth:`repro.core.machine.MachineContext.read_bucket` charges the
        probing cost so algorithm accounting stays faithful.
        """
        found = self._data.get(key)
        if found is None:
            if self._columns:
                resolved = self._column_key(key)
                if resolved is not None:
                    column, id_, slot = resolved
                    return column.count(id_, slot=slot)
            return 0
        if isinstance(found, _Bucket):
            return len(found.values)
        return 1

    def __contains__(self, key: Hashable) -> bool:
        if key in self._data:
            return True
        if self._columns:
            resolved = self._column_key(key)
            if resolved is not None:
                column, id_, slot = resolved
                return column.count(id_, slot=slot) > 0
        return False

    def __len__(self) -> int:
        """Number of distinct keys stored."""
        total = len(self._data)
        for column in self._columns.values():
            total += column.n_distinct
        return total

    @property
    def n_pairs(self) -> int:
        """Total key-value pairs stored (counting duplicates)."""
        return self.n_writes

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate all (key, value) pairs, expanding duplicate buckets.

        Coordinator-side convenience for collecting round outputs; per-pair
        read charging is handled by the runtime helpers that call it.
        """
        for key, value in self._data.items():
            if isinstance(value, _Bucket):
                for v in value.values:
                    yield key, v
            else:
                yield key, value
        for namespace, column in self._columns.items():
            if column.slotted:
                for id_, slot, value in column.iter_slotted_pairs():
                    yield (namespace, id_, slot), value
            else:
                for id_, value in column.iter_pairs():
                    yield (namespace, id_), value

    # -- contention accounting (Lemma 2.1) --------------------------------

    @property
    def server_read_loads(self) -> np.ndarray:
        """Reads served per DDS server (copy)."""
        return self._server_reads.copy()

    @property
    def server_item_loads(self) -> np.ndarray:
        """Key-value pairs stored per DDS server (copy)."""
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

    def _place_write(self, key: Hashable) -> None:
        for server in self.replicas_of(key):
            self._server_items[server] += 1

    def _place_write_array(
        self,
        namespace: str,
        ids: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        # Replication placement is per-key (distinct-replica search), so
        # the batch degrades to the scalar loop — the price block
        # programs pay for running under a fault plan.
        parts = [namespace, ids] if slots is None else [namespace, ids, slots]
        for key in _batch_keys(parts):
            self._place_write(key)

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
        self._server_reads[serving] += 1
        if injector is not None:
            injector.on_read(serving)


class _Bucket:
    """Internal container for duplicate-key values (in write order)."""

    __slots__ = ("values",)

    def __init__(self, values: list[Any]) -> None:
        self.values = values
