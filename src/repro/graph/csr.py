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

The builder is a chunked two-pass counting sort (semi-external: RAM is
O(n + chunk), never O(m)):

1. **Count** — stream the edge chunks once, validating endpoints and
   self-loops, and accumulate per-vertex degree counts (both directions,
   duplicates included) with ``np.bincount``. One-shot iterators are
   spooled to a raw edge file during this pass so pass 2 can re-read
   them.
2. **Scatter** — stream again, writing each direction's neighbor into
   its row's slice of a rough on-disk ``indices`` array via per-chunk
   stable sort + per-row write cursors.
3. **Compact** — walk the rough array in vertex blocks (each block's
   rows fit the chunk budget), sort each block's rows, drop duplicate
   (row, neighbor) entries in place, and stream the compacted columns
   into the final ``indices.npy``.

The result is bit-identical to ``Graph.from_edges`` on the same edge
list: per-row neighbors sorted ascending, duplicates (in either
orientation) collapsed, self-loops rejected (or dropped with
``drop_self_loops=True``, for generator families like RMAT that emit
them).

Mmap lifetime rule: the arrays of an :class:`MmapGraph` are views into
the cache directory's files — the directory must outlive the graph and
every store the graph's columns were written into (see docs/model.md §8).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .graph import Graph

FORMAT_VERSION = 1
DEFAULT_CHUNK_EDGES = 1 << 20

_META = "meta.json"
_INDPTR = "indptr.npy"
_INDICES = "indices.npy"
_ROUGH = "indices.rough.npy"
_SPOOL = "edges.spool.bin"


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


def _scatter(
    rough: np.ndarray,
    cursor: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Write each dst into the next free slot of src's row slice."""
    if src.size == 0:
        return
    order = np.argsort(src, kind="stable")
    s, d = src[order], dst[order]
    new_run = np.empty(s.size, dtype=bool)
    new_run[0] = True
    np.not_equal(s[1:], s[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    run_id = np.cumsum(new_run) - 1
    within = np.arange(s.size, dtype=np.int64) - starts[run_id]
    rough[cursor[s] + within] = d
    lengths = np.diff(np.append(starts, s.size))
    cursor[s[starts]] += lengths


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
        chunk_edges: bound on rows processed (and resident) at once.
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

    # Pass 1: count degrees (duplicates included, both directions),
    # spooling iterator input so pass 2 can re-stream it.
    counts = np.zeros(n, dtype=np.int64)

    def _count(chunk: np.ndarray) -> None:
        counts[:] += np.bincount(chunk[:, 0], minlength=n)
        counts[:] += np.bincount(chunk[:, 1], minlength=n)

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
            elif os.path.getsize(spool_path):
                spool = np.memmap(spool_path, dtype=np.int64, mode="r")
                yield from edge_chunks(spool.reshape(-1, 2), step)

        total = int(counts.sum())
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        if total:
            # Pass 2: scatter both directions into each row's slice.
            rough = np.lib.format.open_memmap(
                rough_path, mode="w+", dtype=np.int64, shape=(total,)
            )
            cursor = offsets[:-1].copy()
            for chunk in _chunks():
                _scatter(rough, cursor, chunk[:, 0], chunk[:, 1])
                _scatter(rough, cursor, chunk[:, 1], chunk[:, 0])

            # Pass 3: per-block sort + dedup, compacting in place (the
            # write position never passes the block's read position).
            budget = max(step, int(counts.max()))
            final_counts = np.zeros(n, dtype=np.int64)
            write_pos = 0
            v = 0
            while v < n:
                w = v + 1
                while w < n and offsets[w + 1] - offsets[v] <= budget:
                    w += 1
                seg = np.asarray(rough[offsets[v] : offsets[w]])
                rows = np.repeat(
                    np.arange(v, w, dtype=np.int64), counts[v:w]
                )
                order = np.lexsort((seg, rows))
                rows, seg = rows[order], seg[order]
                if seg.size:
                    keep = np.empty(seg.size, dtype=bool)
                    keep[0] = True
                    keep[1:] = (rows[1:] != rows[:-1]) | (
                        seg[1:] != seg[:-1]
                    )
                    rows, seg = rows[keep], seg[keep]
                final_counts[v:w] = np.bincount(rows - v, minlength=w - v)
                rough[write_pos : write_pos + seg.size] = seg
                write_pos += seg.size
                v = w

            indptr = np.lib.format.open_memmap(
                out / _INDPTR, mode="w+", dtype=np.int64, shape=(n + 1,)
            )
            indptr[0] = 0
            np.cumsum(final_counts, out=indptr[1:])
            indices = np.lib.format.open_memmap(
                out / _INDICES,
                mode="w+",
                dtype=np.int64,
                shape=(write_pos,),
            )
            for lo in range(0, write_pos, step):
                hi = min(write_pos, lo + step)
                indices[lo:hi] = rough[lo:hi]
            indices.flush()
            indptr.flush()
            del indices, indptr, rough
        else:
            np.save(out / _INDPTR, np.zeros(n + 1, dtype=np.int64))
            np.save(out / _INDICES, np.zeros(0, dtype=np.int64))
            write_pos = 0
    finally:
        for temp in (rough_path, spool_path) if spooled else (rough_path,):
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass

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
        meta = json.loads((path / _META).read_text())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported CSR cache version {meta.get('version')!r} "
                f"in {path}"
            )
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
    """Whether ``directory`` holds a complete CSR cache."""
    path = Path(directory)
    return all(
        (path / name).is_file() for name in (_META, _INDPTR, _INDICES)
    )
