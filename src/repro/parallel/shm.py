"""Shared-memory export / attach of sealed DDS stores.

The parent owns the lifecycle: an :class:`ShmArena` creates one POSIX
shared-memory segment per column array of the round's read store, the
workers attach zero-copy numpy views over those segments, and the arena
unlinks everything in a ``finally`` around the round — covering normal
completion, worker exceptions, chaos-induced aborts, and
KeyboardInterrupt. Workers never create or unlink segments, only attach
and close, so a crashed worker cannot leak ``/dev/shm`` entries. A store
holds numeric columns only, so its arrays are all that travels.
"""

from __future__ import annotations

import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.core.dds import DistributedDataStore, _Column

# Every live arena, so pool teardown can scrub segments even if a round
# was abandoned between arena creation and its ``finally`` (e.g. the
# interpreter is exiting while a supervisor error unwinds). Weak refs:
# the registry must never keep an arena (or its segments) alive.
_ACTIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def scrub_arenas() -> None:
    """Close-and-unlink every still-open arena (idempotent, best-effort).

    Called from :func:`repro.parallel.pool.shutdown_pool`: once the
    workers are gone nothing can be attached to the segments, so any
    arena still open is a leak in the making. A mid-round worker respawn
    does *not* go through here — the dying worker's attach-side handles
    are reclaimed by the kernel and the parent's arena keeps the
    segments alive for the parent's re-run of the lost shard.
    """
    for arena in list(_ACTIVE_ARENAS):
        arena.close()


class StoreExportError(TypeError):
    """The store cannot be exported (e.g. replicated/chaos store)."""


def _mmap_descriptor(array: np.ndarray) -> dict | None:
    """Zero-copy descriptor for a file-backed (``np.memmap``) array.

    When a column array is a memory-mapped ``.npy`` column (or a view of
    one), shipping it through a shared-memory segment would copy the
    whole file back into RAM. Instead the descriptor names the backing
    file and byte offset; workers re-map it read-only, and the page
    cache — already warm from the parent's map — is shared for free.
    Returns None for anything that is not cleanly re-mappable (the
    caller then falls back to a segment copy).
    """
    if array.nbytes == 0 or not array.flags.c_contiguous:
        return None
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not isinstance(root, np.memmap) or root.filename is None:
        return None
    delta = array.ctypes.data - root.ctypes.data
    if delta < 0 or delta + array.nbytes > root.nbytes:
        return None
    return {
        "file": str(root.filename),
        "shape": array.shape,
        "dtype": array.dtype.str,
        "offset": int(root.offset) + int(delta),
    }


def disable_worker_shm_tracking() -> None:
    """Stop the resource tracker from tracking attaches in this process.

    On Python <= 3.12 merely *attaching* a segment registers it with the
    (fork-inherited, shared) resource tracker. Workers never create or
    unlink segments — the parent's arena owns the lifecycle — so any
    worker-side register/unregister traffic corrupts the tracker's
    per-name cache (the unlink from the owning parent then logs a
    KeyError). Called once at worker startup; only affects that process.
    """

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register  # type: ignore[assignment]


class ShmArena:
    """Parent-side owner of one parallel round's shared-memory segments.

    Use as a context manager (or call :meth:`close` in a ``finally``):
    every segment created through :meth:`share_array` is closed *and
    unlinked* on exit, on every exit path.
    """

    __slots__ = ("_segments", "closed", "__weakref__")

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.closed = False
        _ACTIVE_ARENAS.add(self)

    def share_array(self, array: np.ndarray) -> dict:
        """Copy ``array`` into a fresh segment; returns a picklable
        descriptor :func:`attached` workers turn back into a view.

        Zero-size arrays are shipped inline (a segment adds nothing).
        File-backed (``np.memmap``) arrays skip the segment entirely:
        workers re-map the backing file read-only, so an out-of-core
        column crosses the process boundary without a second full copy.
        """
        mapped = _mmap_descriptor(array)
        if mapped is not None:
            return mapped
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            return {"inline": arr}
        segment = self._new_segment(arr.nbytes)
        view: np.ndarray = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        return {"name": segment.name, "shape": arr.shape, "dtype": arr.dtype.str}

    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        """Create one segment of ``size`` bytes, owned by this arena."""
        segment = shared_memory.SharedMemory(create=True, size=size)
        self._segments.append(segment)
        return segment

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for segment in self._segments:
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class AttachedSegments:
    """Worker-side handle set keeping attached segments' buffers alive.

    Numpy views into a segment are only valid while the SharedMemory
    object is open; a task holds one of these for its whole execution and
    closes it in a ``finally`` (attach-side close only — never unlink).
    """

    __slots__ = ("_segments",)

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def array(self, descriptor: dict) -> np.ndarray:
        inline = descriptor.get("inline")
        if inline is not None:
            return inline
        path = descriptor.get("file")
        if path is not None:
            # File-backed column: re-map read-only. The np.memmap keeps
            # its own file handle alive, so nothing to track here.
            return np.memmap(
                path,
                dtype=np.dtype(descriptor["dtype"]),
                mode="r",
                offset=descriptor["offset"],
                shape=tuple(descriptor["shape"]),
            )
        segment = shared_memory.SharedMemory(name=descriptor["name"])
        self._segments.append(segment)
        return np.ndarray(
            descriptor["shape"],
            dtype=np.dtype(descriptor["dtype"]),
            buffer=segment.buf,
        )

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except Exception:
                pass
        self._segments.clear()


def export_store(store: DistributedDataStore, arena: ShmArena) -> dict:
    """Picklable descriptor of a sealed read store, column arrays in shm.

    Column indexes are built here, once, in the parent, and only the
    arrays a column actually holds go into segments
    (:meth:`_Column.share_parts`: position table *or* sorted keys, row
    order only when the keys were written out of order) — workers resolve
    reads through the parent's index form instead of re-indexing per
    process. Raises :class:`StoreExportError` for store subclasses
    (replicated / chaos stores have per-key failover state that must stay
    serial).
    """
    if type(store) is not DistributedDataStore:
        raise StoreExportError(
            f"cannot export {type(store).__name__} to the process backend; "
            f"only plain DistributedDataStore rounds shard"
        )
    columns = {
        key: {
            name: arena.share_array(part) if isinstance(part, np.ndarray)
            else part
            for name, part in column.share_parts().items()
        }
        for key, column in store._columns.items()
    }
    return {
        "round_index": store.round_index,
        "n_servers": store.n_servers,
        "seed": store.seed,
        "max_words": store.max_words,
        "columns": columns,
    }


def attach_store(
    export: dict,
) -> tuple[DistributedDataStore, AttachedSegments]:
    """Worker-side reconstruction of an exported store as a sealed shadow.

    The shadow's read counters start at zero, so after the task runs they
    hold exactly the deltas (``n_reads``, per-server read loads) the
    parent merges back. Caller must ``close()`` the returned handles when
    done with the store.
    """
    handles = AttachedSegments()
    try:
        columns = {
            key: _Column.from_shared_parts(key[0], **{
                name: handles.array(part) if isinstance(part, dict) else part
                for name, part in parts.items()
            })
            for key, parts in export["columns"].items()
        }
        store = DistributedDataStore.attach_shadow(
            round_index=export["round_index"],
            n_servers=export["n_servers"],
            seed=export["seed"],
            max_words=export["max_words"],
            columns=columns,
        )
        return store, handles
    except Exception:
        handles.close()
        raise
