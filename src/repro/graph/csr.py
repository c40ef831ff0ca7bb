"""External-memory CSR construction and memory-mapped graphs.

This is the out-of-core half of the ingestion pipeline (ROADMAP item 4):
:func:`build_csr` turns a stream of edge chunks — from the text parse
(:func:`repro.graph.files.parse_edge_list`), the streaming RMAT generator
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
   first spooled to a raw edge file (the build's one transient copy of
   the edges; it also finds ``n`` when the caller leaves it to the
   largest endpoint), and every pass re-reads it in ``chunk_edges``
   rows. The counts cut the vertices into *blocks* of consecutive rows
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
:meth:`MmapGraph.load` check the array headers and a ``zlib.crc32`` of
each array's data against it. It also keeps the caller's record of the
source (:func:`ingest`: a text file's path, size and mtime, or an RMAT
spec, seed and chunk size, plus the self-loop rule), so a directory
built from something else is never taken as up to date.

Mmap lifetime rule: the arrays of an :class:`MmapGraph` are views into
the cache directory's files — the directory must outlive the graph and
every store the graph's columns were written into (see docs/model.md §8).
"""

from __future__ import annotations

import io
import json
import os
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import files, generators
from .graph import Graph

FORMAT_VERSION = 2
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
# Checksum reads stay under glibc's 128 KB mmap threshold, so each block's
# buffer comes from the heap: 1 MB reads raised cc-rmat's peak RSS by 2 MB.
_CRC_BLOCK = 1 << 16


def npy_header(shape: tuple[int, ...]) -> bytes:
    """The ``.npy`` header of a C-order int64 array of ``shape``.

    numpy pads the header so that its length does not depend on the
    leading dimension, which lets a writer stream rows after a
    placeholder header and overwrite it in place once the row count is
    known (:func:`rewrite_npy_header`).
    """
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
        "fortran_order": False,
        "shape": tuple(int(s) for s in shape),
    })
    return buf.getvalue()


def rewrite_npy_header(handle, placeholder: bytes,
                       shape: tuple[int, ...]) -> None:
    """Overwrite the ``placeholder`` header at the start of ``handle``."""
    header = npy_header(shape)
    if len(header) != len(placeholder):
        raise RuntimeError(".npy header length changed with its shape")
    handle.seek(0)
    handle.write(header)


def edge_chunks(
    edges: np.ndarray, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """View an ``(m, 2)`` edge array (or memmap) as bounded chunks."""
    step = max(1, int(chunk_edges))
    for lo in range(0, edges.shape[0], step):
        yield edges[lo : lo + step]


def _clean_chunk(
    chunk: np.ndarray, n: int | None, drop_self_loops: bool
) -> tuple[np.ndarray, int]:
    """Validate one edge chunk: ``(its rows with self-loops handled, its
    largest endpoint before that, or -1)``. ``n`` None checks no upper
    bound."""
    chunk = np.asarray(chunk, dtype=np.int64)
    if chunk.ndim != 2 or chunk.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got shape {chunk.shape}")
    if chunk.size == 0:
        return chunk, -1
    top = int(chunk.max())
    if chunk.min() < 0 or (n is not None and top >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    loops = chunk[:, 0] == chunk[:, 1]
    if np.any(loops):
        if not drop_self_loops:
            raise ValueError("self-loops are not allowed (paper §3)")
        chunk = chunk[~loops]
    return chunk, top


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
    n: int | None,
    out_dir: str | os.PathLike,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    drop_self_loops: bool = False,
    source: dict | None = None,
) -> "MmapGraph":
    """Build an on-disk CSR cache from streamed edges; return it mapped.

    Args:
        edges: an ``(m, 2)`` int64 array/memmap, or an iterable of such
            chunks (a one-shot generator is fine — it is spooled to disk
            before the counting pass).
        n: number of vertices; endpoints must lie in ``[0, n)``. None
            takes 1 + the largest endpoint, self-loops included (0 for
            no edges): :func:`repro.graph.files.resolve_node_count`'s
            rule when a file declares no count. Streamed chunks are
            held to it by that rule too, with its message.
        out_dir: cache directory (created if needed); receives
            ``indptr.npy``, ``indices.npy`` and ``meta.json``.
        chunk_edges: bound on rows processed (and resident) at once; a
            vertex whose degree exceeds it is sorted as a block alone.
        drop_self_loops: silently drop ``u == u`` rows instead of
            raising, for generators (e.g. RMAT) that emit them.
        source: a JSON-able record of what the edges came from, kept in
            ``meta.json`` for :func:`is_cache` to match.
    """
    if n is not None and int(n) < 0:
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
    spooled = not isinstance(edges, np.ndarray)

    def _chunks() -> Iterator[np.ndarray]:
        if spooled:
            with open(spool_path, "rb") as spool:
                while data := spool.read(2 * _ITEM * step):
                    yield np.frombuffer(data, np.int64).reshape(-1, 2)
        else:
            for chunk in edge_chunks(edges, step):
                yield _clean_chunk(chunk, n, drop_self_loops)[0]

    try:
        if spooled:
            top, m = -1, 0
            with open(spool_path, "wb") as spool:
                for chunk in edges:
                    chunk, chunk_top = _clean_chunk(chunk, None,
                                                    drop_self_loops)
                    spool.write(np.ascontiguousarray(chunk))
                    top, m = max(top, chunk_top), m + len(chunk)
            # Checked once every id is seen, so an id above the count
            # reads as the edge-list parser reports it.
            n = files.resolve_node_count(n, top, m)
        elif n is None:
            top = int(edges.max(initial=-1))
        n = top + 1 if n is None else int(n)

        # Pass 1: count degrees (duplicates included, both directions)
        # into offsets[1:].
        offsets = np.zeros(n + 1, dtype=np.int64)
        for chunk in _chunks():
            offsets[1:] += np.bincount(chunk.ravel(), minlength=n)
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
            crc = 0
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
                    crc = zlib.crc32(keys, crc)
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
        "crc32": {_INDPTR: zlib.crc32(indptr), _INDICES: crc},
        "source": source,
    }
    # Published last and atomically: the directory is a cache from the
    # moment the finished meta appears, never with a partial one.
    pending = out / (_META + ".tmp")
    pending.write_text(json.dumps(meta))
    os.replace(pending, out / _META)
    return MmapGraph._map(out, meta)


def ingest(
    source: str | os.PathLike,
    out_dir: str | os.PathLike,
    *,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    drop_self_loops: bool = False,
    force: bool = False,
) -> tuple["MmapGraph", bool]:
    """``repro ingest``: an edge-list file or an ``rmat:SCALE[:EDGE_FACTOR]``
    spec into a CSR cache at ``out_dir``; returns ``(graph, built)``.

    Unless ``force``, a complete cache is reused (``built`` False) when
    its source record matches this call's: the file's absolute path,
    size and ``st_mtime_ns``, or the RMAT spec, ``seed`` and
    ``chunk_edges`` (the RMAT stream depends on all three); and the
    self-loop rule (RMAT input always drops self-loops). A text file
    streams through :func:`repro.graph.files.parse_edge_list` into
    :func:`build_csr`, whose spool is the only copy of its edges; a file
    the fast path refuses part-way is rebuilt from the per-line parse.
    Raises ValueError on bad input, OSError on an unreadable file.
    """
    spec = os.fspath(source)
    if spec.startswith("rmat:"):
        try:
            fields = [int(field) for field in spec.split(":")[1:]]
        except ValueError:
            fields = []
        if not 1 <= len(fields) <= 2:
            raise ValueError("bad RMAT spec: want rmat:SCALE[:EDGE_FACTOR]")
        scale, edge_factor = (fields + [16])[:2]
        record = {"rmat": spec, "seed": seed, "chunk_edges": chunk_edges,
                  "drop_self_loops": True}
    else:
        stat = os.stat(spec)
        record = {"text": os.path.abspath(spec), "bytes": stat.st_size,
                  "mtime_ns": stat.st_mtime_ns,
                  "drop_self_loops": drop_self_loops}
    if not force and is_cache(out_dir, source=record):
        return MmapGraph.load(out_dir), False

    def build(n: int | None, chunks: Iterable[np.ndarray]) -> MmapGraph:
        return build_csr(chunks, n, out_dir, chunk_edges=chunk_edges,
                         drop_self_loops=record["drop_self_loops"],
                         source=record)

    if "rmat" in record:
        return build(1 << scale, generators.rmat_edge_chunks(
            scale, edge_factor, rng=seed, chunk_edges=chunk_edges)), True
    return files.parse_edge_list(spec, build), True


def _crc32(path: Path, offset: int) -> int:
    """``zlib.crc32`` of a file's bytes from ``offset`` on."""
    crc = 0
    with open(path, "rb") as f:
        f.seek(offset)
        while block := f.read(_CRC_BLOCK):
            crc = zlib.crc32(block, crc)
    return crc


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
    """The cache's meta, after checking the arrays against it: ``indptr``
    has shape (n + 1,) and ends at ``directed_rows``, ``indices`` has
    shape (directed_rows,), and each file's data has the recorded
    ``zlib.crc32`` (a read of both files). Raises ValueError on any
    mismatch."""
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
    shape, indices_at = _npy_shape(path / _INDICES)
    if shape != (rows,):
        raise ValueError(f"{path / _INDICES}: shape {shape}, meta says "
                         f"({rows},)")
    for name, at in ((_INDPTR, offset), (_INDICES, indices_at)):
        if _crc32(path / name, at) != meta["crc32"][name]:
            raise ValueError(f"{path / name}: data does not match the "
                             f"checksum in meta.json")
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
        """Map a cache after checking it (:func:`is_cache`'s checks);
        ValueError if it fails them."""
        path = Path(directory)
        return cls._map(path, _checked_meta(path))

    @classmethod
    def _map(cls, path: Path, meta: dict) -> "MmapGraph":
        """Map the arrays that ``meta`` describes, unchecked."""
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


def is_cache(directory: str | os.PathLike, source: dict | None = None) -> bool:
    """Whether ``directory`` holds a complete CSR cache whose arrays
    match its ``meta.json`` (shapes and checksums) and, when ``source``
    is given, that was built from it."""
    try:
        meta = _checked_meta(Path(directory))
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return source is None or meta["source"] == source
