"""External-memory CSR construction and memory-mapped graphs.

This is the out-of-core half of the ingestion pipeline (ROADMAP item 4):
:func:`build_csr` turns a stream of edge chunks — from the binary
edge-list cache (:mod:`repro.graph.files`), the streaming RMAT generator
(:mod:`repro.graph.generators`), or any ``(k, 2)`` int64 array iterator —
into an on-disk CSR cache (``indptr.npy`` / ``indices.npy`` /
``meta.json``) without ever materializing the graph in RAM, and
:class:`MmapGraph` maps that cache back as a
:class:`~repro.graph.graph.Graph` whose ``indptr``/``indices`` are
read-only ``np.memmap`` views — every existing algorithm runs off-disk
graphs unmodified.

The builder is a chunked, block-bucketed sort (semi-external: RAM is
O(n + chunk), never O(m)):

1. **Count** — stream the edge chunks once, validating endpoints and
   self-loops, and accumulate per-vertex degree counts (both directions,
   duplicates included) with ``np.bincount``. One-shot iterators are
   spooled to a raw edge file during this pass so pass 2 can re-read
   them. The counts cut the vertices into *blocks* of consecutive rows
   whose entries fit the chunk budget (a single row may exceed it),
   found with one ``searchsorted`` on the degree prefix sums per block.
2. **Bucket** — stream again, one direction of a chunk at a time, and
   turn every entry into the block-local scalar key
   ``(row − first row of its block) · n + neighbor``. A stable
   ``argsort`` of the small-integer block ids (a radix sort) groups the
   keys by block, and each group is appended to its block's region of a
   rough on-disk key file.
3. **Sort** — per block: read its region, ``sort`` it, drop adjacent
   equal keys (duplicate edges in either orientation), count each row
   with a ``searchsorted`` over the sorted keys and keep ``key % n`` as
   the neighbor, appending it to ``indices.npy``. A block has at most
   ⌊(2⁶³−1)/n⌋ rows so its keys fit int64.

The result is bit-identical to ``Graph.from_edges`` on the same edge
list: per-row neighbors sorted ascending, duplicates (in either
orientation) collapsed, self-loops rejected (or dropped with
``drop_self_loops=True``, for generator families like RMAT that emit
them).

``meta.json`` is what makes a directory a cache: a build unlinks the old
one first and publishes the new one last, and :func:`is_cache` /
:meth:`MmapGraph.load` check the array headers against it.

Mmap lifetime rule: the arrays of an :class:`MmapGraph` are views into
the cache directory's files — the directory must outlive the graph and
every store the graph's columns were written into (see docs/model.md §8).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .files import npy_header, rewrite_npy_header
from .graph import Graph

FORMAT_VERSION = 1
DEFAULT_CHUNK_EDGES = 1 << 20
#: Largest block-local key. A block of r rows over n vertices uses keys
#: up to r·n − 1, so a block holds at most ``_KEY_MAX // n`` rows.
_KEY_MAX = int(np.iinfo(np.int64).max)

_META = "meta.json"
_INDPTR = "indptr.npy"
_INDICES = "indices.npy"
_ROUGH = "keys.rough.bin"
_SPOOL = "edges.spool.bin"
_ITEM = np.dtype(np.int64).itemsize


def edge_chunks(
    edges: np.ndarray, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """View an ``(m, 2)`` edge array (or memmap) as bounded chunks."""
    step = max(1, int(chunk_edges))
    for lo in range(0, edges.shape[0], step):
        yield edges[lo : lo + step]


def _clean_chunk(
    chunk: np.ndarray, n: int, drop_self_loops: bool
) -> np.ndarray:
    """Validate one edge chunk; returns it with self-loops handled."""
    chunk = np.asarray(chunk, dtype=np.int64)
    if chunk.ndim != 2 or chunk.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got shape {chunk.shape}")
    if chunk.size == 0:
        return chunk.reshape(0, 2)
    if chunk.min() < 0 or chunk.max() >= n:
        raise ValueError("edge endpoint out of range [0, n)")
    loops = chunk[:, 0] == chunk[:, 1]
    if np.any(loops):
        if not drop_self_loops:
            raise ValueError("self-loops are not allowed (paper §3)")
        chunk = chunk[~loops]
    return chunk


def _block_starts(offsets: np.ndarray, budget: int) -> np.ndarray:
    """First row of every block, then ``n``.

    Blocks are greedy runs of consecutive rows whose entries fit
    ``budget`` (a row over budget is a block of its own) and that span
    at most ``_KEY_MAX // n`` rows, so block-local keys fit int64.
    """
    n = offsets.size - 1
    max_rows = max(1, _KEY_MAX // max(n, 1))
    starts = [0]
    v = 0
    while v < n:
        fit = int(np.searchsorted(offsets, offsets[v] + budget, "right")) - 1
        v = min(max(fit, v + 1), v + max_rows, n)
        starts.append(v)
    return np.array(starts, dtype=np.int64)


def _bucket(
    rough: BinaryIO,
    cursor: np.ndarray,
    block_of: np.ndarray,
    row_key: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Append each ``src -> dst`` entry's block-local key to its block's
    region of the rough key file; ``cursor`` holds each region's next
    free slot."""
    if src.size == 0:
        return
    keys = row_key[src]
    keys += dst
    blocks = block_of[src]
    # block_of's dtype is the smallest that holds every block id, so
    # this stable argsort is a radix sort.
    keys = keys[np.argsort(blocks, kind="stable")]
    per_block = np.bincount(blocks, minlength=cursor.size)
    lo = 0
    for b in np.flatnonzero(per_block).tolist():
        hi = lo + int(per_block[b])
        rough.seek(_ITEM * int(cursor[b]))
        rough.write(keys[lo:hi])
        lo = hi
    cursor += per_block


def build_csr(
    edges: np.ndarray | Iterable[np.ndarray],
    n: int,
    out_dir: str | os.PathLike,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    drop_self_loops: bool = False,
) -> "MmapGraph":
    """Build an on-disk CSR cache from streamed edges; return it mapped.

    Args:
        edges: an ``(m, 2)`` int64 array/memmap, or an iterable of such
            chunks (a one-shot generator is fine — it is spooled to disk
            during the counting pass).
        n: number of vertices; endpoints must lie in ``[0, n)``.
        out_dir: cache directory (created if needed); receives
            ``indptr.npy``, ``indices.npy`` and ``meta.json``.
        chunk_edges: bound on rows processed (and resident) at once; a
            vertex whose degree exceeds it is sorted as a block alone.
        drop_self_loops: silently drop ``u == u`` rows instead of
            raising, for generators (e.g. RMAT) that emit them.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The meta file is what blesses a directory as a cache (is_cache): a
    # previous build's must not outlive the arrays it describes, so it
    # goes before the first byte of this build is written.
    (out / _META).unlink(missing_ok=True)
    step = max(1, int(chunk_edges))
    spool_path = out / _SPOOL
    rough_path = out / _ROUGH
    spooled = False

    # Pass 1: count degrees (duplicates included, both directions) into
    # offsets[1:], spooling iterator input so pass 2 can re-stream it.
    offsets = np.zeros(n + 1, dtype=np.int64)

    def _count(chunk: np.ndarray) -> None:
        offsets[1:] += np.bincount(chunk[:, 0], minlength=n)
        offsets[1:] += np.bincount(chunk[:, 1], minlength=n)

    try:
        if isinstance(edges, np.ndarray):
            for chunk in edge_chunks(edges, step):
                _count(_clean_chunk(chunk, n, drop_self_loops))
        else:
            spooled = True
            with open(spool_path, "wb") as spool:
                for chunk in edges:
                    chunk = _clean_chunk(chunk, n, drop_self_loops)
                    if chunk.size:
                        spool.write(
                            np.ascontiguousarray(chunk).tobytes()
                        )
                        _count(chunk)

        def _chunks() -> Iterator[np.ndarray]:
            if isinstance(edges, np.ndarray):
                for chunk in edge_chunks(edges, step):
                    yield _clean_chunk(chunk, n, drop_self_loops)
            else:
                with open(spool_path, "rb") as spool:
                    while data := spool.read(2 * _ITEM * step):
                        yield np.frombuffer(data, np.int64).reshape(-1, 2)

        np.cumsum(offsets, out=offsets)
        total = int(offsets[-1])
        starts = _block_starts(offsets, step)
        sizes = np.diff(starts)
        block_id = np.min_scalar_type(max(sizes.size - 1, 0))
        block_of = np.repeat(np.arange(sizes.size, dtype=block_id), sizes)
        # Row r of the block starting at s keys its entries from (r - s) * n.
        row_key = np.arange(n, dtype=np.int64)
        row_key -= np.repeat(starts[:-1], sizes)
        row_key *= n

        with open(rough_path, "w+b") as rough:
            # Pass 2: bucket both directions' keys by block.
            cursor = offsets[starts[:-1]]
            for chunk in _chunks():
                _bucket(rough, cursor, block_of, row_key,
                        chunk[:, 0], chunk[:, 1])
                _bucket(rough, cursor, block_of, row_key,
                        chunk[:, 1], chunk[:, 0])
            del block_of, row_key, cursor

            # Pass 3: per block, sort + dedup the keys and split them
            # into row counts (indptr) and neighbors (indices).
            indptr = np.zeros(n + 1, dtype=np.int64)
            write_pos = 0
            with open(out / _INDICES, "wb") as dest:
                placeholder = npy_header((total,))
                dest.write(placeholder)
                for v, w in zip(starts[:-1].tolist(), starts[1:].tolist()):
                    keys = np.empty(int(offsets[w] - offsets[v]), np.int64)
                    rough.seek(_ITEM * int(offsets[v]))
                    rough.readinto(keys)
                    keys.sort()
                    fresh = keys[1:] != keys[:-1]
                    if not fresh.all():
                        keys = keys[np.concatenate(([True], fresh))]
                    # Row r's keys end where keys reach (r - v + 1) * n.
                    row_ends = np.arange(1, w - v + 1, dtype=np.int64)
                    row_ends *= n
                    indptr[v + 1 : w + 1] = write_pos + np.searchsorted(
                        keys, row_ends
                    )
                    keys %= n
                    dest.write(keys)
                    write_pos += keys.size
                rewrite_npy_header(dest, placeholder, (write_pos,))
        np.save(out / _INDPTR, indptr)
    finally:
        for temp in (rough_path, spool_path) if spooled else (rough_path,):
            temp.unlink(missing_ok=True)

    meta = {
        "version": FORMAT_VERSION,
        "n": n,
        "m": write_pos // 2,
        "directed_rows": write_pos,
    }
    # Published last and atomically: the directory is a cache from the
    # moment the finished meta appears, never with a partial one.
    pending = out / (_META + ".tmp")
    pending.write_text(json.dumps(meta))
    os.replace(pending, out / _META)
    return MmapGraph.load(out)


def _npy_shape(path: Path) -> tuple[tuple[int, ...], int]:
    """``(shape, data offset)`` of an int64 ``.npy`` file, from its
    header; ValueError for any other dtype or layout, or a file whose
    size does not match its header."""
    with open(path, "rb") as f:
        version = np.lib.format.read_magic(f)
        if version != (1, 0):
            raise ValueError(f"{path}: unexpected .npy version {version}")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size
    if dtype != np.dtype(np.int64) or fortran:
        raise ValueError(f"{path}: not a C-order int64 array")
    if size != offset + _ITEM * int(np.prod(shape)):
        raise ValueError(f"{path}: {size} bytes do not hold shape {shape}")
    return shape, offset


def _checked_meta(path: Path) -> dict:
    """The cache's meta, after checking the array headers against it:
    ``indptr`` has shape (n + 1,) and ends at ``directed_rows``, and
    ``indices`` has shape (directed_rows,). Reads headers and one
    ``indptr`` entry only; raises ValueError on any mismatch."""
    meta = json.loads((path / _META).read_text())
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported CSR cache version {meta.get('version')!r} "
            f"in {path}"
        )
    n, rows = int(meta["n"]), int(meta["directed_rows"])
    shape, offset = _npy_shape(path / _INDPTR)
    if shape != (n + 1,):
        raise ValueError(f"{path / _INDPTR}: shape {shape}, meta says "
                         f"({n + 1},)")
    last = np.fromfile(path / _INDPTR, dtype=np.int64, count=1,
                       offset=offset + _ITEM * n)
    if int(last[0]) != rows:
        raise ValueError(f"{path / _INDPTR}: ends at {int(last[0])}, meta "
                         f"says {rows} directed rows")
    shape, _ = _npy_shape(path / _INDICES)
    if shape != (rows,):
        raise ValueError(f"{path / _INDICES}: shape {shape}, meta says "
                         f"({rows},)")
    return meta


class MmapGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only file mappings.

    Same ``n`` / ``indptr`` / ``indices`` interface, so every algorithm
    (and :func:`repro.graph.io.encode_graph_arrays`) runs off-disk
    graphs unmodified; the OS page cache decides what is resident. The
    cache directory must outlive the instance and anything holding
    views of its columns.
    """

    __slots__ = ("path",)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "MmapGraph":
        path = Path(directory)
        meta = _checked_meta(path)
        indptr = np.load(path / _INDPTR, mmap_mode="r")
        if meta["directed_rows"]:
            indices = np.load(path / _INDICES, mmap_mode="r")
        else:
            indices = np.zeros(0, dtype=np.int64)
        graph = cls(int(meta["n"]), indptr, indices)
        graph.path = path
        return graph

    def __repr__(self) -> str:
        return f"MmapGraph(n={self.n}, m={self.m}, path={str(self.path)!r})"


def is_cache(directory: str | os.PathLike) -> bool:
    """Whether ``directory`` holds a complete CSR cache whose arrays
    match its ``meta.json``."""
    try:
        _checked_meta(Path(directory))
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return True
