"""Plain-text graph file formats: edge lists, with optional weights.

A small, dependency-free interchange layer so the CLI and downstream
users can feed real graphs in:

* **edge list** — one edge per line, ``u v`` or ``u v weight``;
  ``#``-prefixed comment lines and blank lines ignored (the format of
  SNAP datasets and most published edge lists);
* an optional header comment ``# nodes: N`` pins the vertex count
  (otherwise it is 1 + the largest endpoint seen).

Vertex ids must be non-negative integers; they are used as-is (no
re-mapping), matching the library's 0..n-1 vertex convention.

Two reading speeds share one contract:

* the **fast path** (:func:`scan_edge_list`) parses raw byte blocks
  with numpy alone — five byte comparisons to validate, one pass to
  find token boundaries, and an 8-byte word decode per token (SWAR:
  every digit of the word combined by integer arithmetic at once), no
  per-line Python — and streams bounded ``(k, 2)`` chunks. It handles
  the common shape (leading comments, two integer columns of at most
  16 digits); anything else (weights, mid-file comments, negative ids,
  longer tokens, a CR that no LF follows) raises
  :class:`FastParseUnsupported` and the caller restarts on
* the **slow path** — the original per-line parser, kept verbatim so
  every error message and edge case (including the ``# nodes:`` header
  semantics) is unchanged.

:func:`build_edge_cache` adds a write-once binary cache next to the
text file (``<name>.edges.npy`` + ``<name>.edges.json`` fingerprint),
so repeated ingestion runs memory-map parsed edges instead of
re-parsing text. Both files are written under temporary names and
renamed into place, the fingerprint last, so an interrupted build never
leaves a fingerprint vouching for a missing or half-written array.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .graph import Graph, WeightedGraph

# Measured fastest of 128 KB - 4 MB on a 24 MB edge list: the per-block
# temporaries stay in cache.
FAST_BLOCK_BYTES = 1 << 19
CACHE_VERSION = 1


class FastParseUnsupported(Exception):
    """The byte-level fast path cannot represent this file; use the
    per-line parser (weighted columns, mid-file comments, signs, ...)."""


def read_edge_list(source: str | Path | TextIO) -> Graph:
    """Read an unweighted graph from an edge-list file or file object.

    Weighted lines are accepted (the weight column is ignored); use
    :func:`read_weighted_edge_list` to keep the weights.

    File paths take the chunked byte-level fast path and fall
    back to the per-line parser (identical results and error messages)
    when the file is weighted or otherwise irregular.
    """
    edges, n = _read_edges(source)
    return Graph.from_edges(n, edges)


def read_weighted_edge_list(source: str | Path | TextIO) -> WeightedGraph:
    """Read a weighted graph; every line must carry a weight column."""
    edges, weights, n = _parse(source, want_weights=True)
    return WeightedGraph.from_weighted_edges(n, edges, weights)


def write_edge_list(graph: Graph, target: str | Path | TextIO) -> None:
    """Write a graph as an edge list (with weights for WeightedGraph)."""
    own, handle = _open(target, "w")
    try:
        handle.write(f"# nodes: {graph.n}\n")
        if isinstance(graph, WeightedGraph):
            weights = graph.edge_weights()
            for eid, (u, v) in enumerate(graph.edge_list()):
                handle.write(f"{u} {v} {float(weights[eid])!r}\n")
        else:
            for u, v in graph.edges():
                handle.write(f"{u} {v}\n")
    finally:
        if own:
            handle.close()


def _open(source, mode: str) -> tuple[bool, TextIO]:
    if isinstance(source, (str, Path)):
        return True, open(source, mode, encoding="utf-8")
    return False, source


def _parse(source, *, want_weights: bool):
    own, handle = _open(source, "r")
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    declared_n: int | None = None
    max_id = -1
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip().lower()
                if body.startswith("nodes:"):
                    declared_n = int(body.split(":", 1)[1])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected 'u v [w]': {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: negative vertex id")
            if want_weights:
                if len(parts) < 3:
                    raise ValueError(
                        f"line {lineno}: weighted read needs a weight column"
                    )
                weights.append(float(parts[2]))
            edges.append((u, v))
            max_id = max(max_id, u, v)
    finally:
        if own:
            handle.close()
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ValueError(
            f"declared nodes: {n} but saw vertex id {max_id}"
        )
    edge_arr = (np.array(edges, dtype=np.int64)
                if edges else np.zeros((0, 2), np.int64))
    weight_arr = np.array(weights, dtype=np.float64)
    return edge_arr, weight_arr, max(n, 0)


# -- byte-level fast path -------------------------------------------------

_NEWLINE, _CR = 10, 13
_PAD = 8  # zero bytes in front of a block: every token ends a whole word
# Per token length k <= 8: keep the low nibble of the word's top k bytes.
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F & -(1 << 8 * (8 - k)) for k in range(9)], np.uint64
)

# Multiply-shift steps: combine neighbouring lanes of 8, 16, then 32 bits.
_SWAR_STEPS = [
    (np.uint64(mul), np.uint64(shift), np.uint64(keep))
    for mul, shift, keep in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
                             (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
                             (10000 << 32 | 1, 32, 0xFFFFFFFF))
]


def _decode_words(words: np.ndarray) -> np.ndarray:
    """Little-endian words of <= 8 digit values (most significant digit
    in the lowest byte, zero bytes in front) -> their integers.

    Three multiply-shift steps combine digit pairs, then pairs of pairs,
    then the two halves, all lanes of a word at once.
    """
    for multiplier, shift, keep in _SWAR_STEPS:
        words = words * multiplier >> shift & keep
    return words


def _parse_block(data: bytes) -> np.ndarray:
    """Vectorized parse of whole lines: ``(k, 2)`` int64 edges.

    ``data`` must be non-empty and end on a line boundary. Only digits,
    space, tab, LF and a CR right before an LF may appear; every
    non-blank line must carry exactly two tokens of at most 16 digits.
    Anything else raises :class:`FastParseUnsupported`.

    Each byte is read a fixed number of times: five uint8 comparisons
    validate the block, and one pass over the digit mask finds every
    token's first and last byte. The line shape is checked on those
    boundaries: in the regular case one non-LF byte separates u from v
    and a line break follows v; only other blocks pay a per-line binary
    search. Values are decoded from the unaligned 8-byte word that ends
    at each token's last byte (two words for 9-16 digits).
    """
    buf = np.zeros(_PAD + len(data), np.uint8)
    buf[_PAD:] = np.frombuffer(data, dtype=np.uint8)
    if buf[-1] != _NEWLINE:
        raise FastParseUnsupported("block not newline-terminated")
    digit = (buf - np.uint8(48)) < 10
    cr = np.flatnonzero(buf == _CR)
    valid = np.count_nonzero(digit) + cr.size + sum(
        np.count_nonzero(buf == c) for c in (_NEWLINE, 32, 9))
    if valid != len(data):
        raise FastParseUnsupported("non-numeric byte")
    if np.any(buf[cr + 1] != _NEWLINE):
        # Text mode reads a lone CR as a line break, not a separator.
        raise FastParseUnsupported("CR without LF")
    # Token k spans bounds[2k] + 1 .. bounds[2k + 1].
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    if bounds.size % 4:
        raise FastParseUnsupported("tokens per line != 2")
    pairs = bounds.reshape(-1, 4)
    ends = bounds[1::2]
    after = buf[ends + 1].reshape(-1, 2)  # LF, CR (before LF), space, tab
    breaks = (after == _NEWLINE) | (after == _CR)
    if not (np.all(pairs[:, 2] == pairs[:, 1] + 1) and np.all(breaks[:, 1])
            and not np.any(breaks[:, 0])):
        line = np.searchsorted(np.flatnonzero(buf == _NEWLINE),
                               pairs[:, ::2], side="right")
        if (np.any(line[:, 0] != line[:, 1])
                or np.any(line[1:, 0] == line[:-1, 1])):
            raise FastParseUnsupported("tokens per line != 2")
    lengths = ends - bounds[::2]
    longest = int(lengths.max(initial=0))
    if longest > 16:
        raise FastParseUnsupported("token over 16 digits")
    words = np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))
    values = _decode_words(
        words.take(ends - 7) & _DIGIT_MASKS.take(lengths, mode="clip"))
    if longest > 8:
        long = np.flatnonzero(lengths > 8)
        high = words.take(ends[long] - 15) & _DIGIT_MASKS[lengths[long] - 8]
        values[long] += _decode_words(high) * np.uint64(10**8)
    return values.view(np.int64).reshape(-1, 2)


def _scan_header(handle) -> tuple[int | None, int]:
    """Consume leading comment/blank lines of a binary handle.

    Returns ``(declared_n, data_offset)`` — the ``# nodes:`` value if
    present, and the byte offset of the first data line. Each line is
    read as the per-line parser reads it (UTF-8 text, ``str.strip``);
    one that it would read differently raises
    :class:`FastParseUnsupported`.
    """
    declared_n: int | None = None
    offset = 0
    while True:
        line = handle.readline()
        if b"\r" in line.replace(b"\r\n", b""):
            raise FastParseUnsupported("CR without LF")
        try:
            stripped = line.decode("utf-8").strip()
        except UnicodeDecodeError as err:
            raise FastParseUnsupported("not UTF-8") from err
        if not line or (stripped and not stripped.startswith("#")):
            return declared_n, offset
        body = stripped[1:].strip().lower()
        if body.startswith("nodes:"):
            try:
                declared_n = int(body.split(":", 1)[1])
            except ValueError as err:
                # Let the slow path raise its own int() error.
                raise FastParseUnsupported("bad nodes header") from err
        offset = handle.tell()


def scan_edge_list(
    path: str | Path, *, block_bytes: int = FAST_BLOCK_BYTES
) -> tuple[int | None, Iterator[np.ndarray]]:
    """Stream an edge-list file as bounded ``(k, 2)`` int64 chunks.

    Returns ``(declared_n, chunk_iterator)``; ``declared_n`` is the
    ``# nodes:`` header value or None. The iterator (and this call)
    raise :class:`FastParseUnsupported` for files the byte-level parser
    cannot handle — callers restart with the per-line reader. A line
    that outgrows ``block_bytes`` is refused too, so no line is
    re-copied more than twice.
    """
    with open(path, "rb") as handle:
        declared_n, offset = _scan_header(handle)

    def _chunks() -> Iterator[np.ndarray]:
        with open(path, "rb") as handle:
            handle.seek(offset)
            carry = b""
            while block := handle.read(block_bytes):
                block = carry + block
                cut = block.rfind(b"\n") + 1
                carry = block[cut:]
                if len(carry) > block_bytes:
                    raise FastParseUnsupported("line longer than a block")
                if cut and (edges := _parse_block(block[:cut])).size:
                    yield edges
            if carry.strip() and (edges := _parse_block(carry + b"\n")).size:
                yield edges

    return declared_n, _chunks()


def resolve_node_count(declared_n: int | None, max_id: int) -> int:
    """The slow path's vertex-count rule, shared by the fast path."""
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ValueError(f"declared nodes: {n} but saw vertex id {max_id}")
    return max(n, 0)


def _read_edges(
    source, *, block_bytes: int = FAST_BLOCK_BYTES
) -> tuple[np.ndarray, int]:
    """:func:`read_edge_list`'s ``(edges, n)``: the fast path for file
    paths, the per-line parser for file objects and refused files."""
    if isinstance(source, (str, Path)):
        try:
            declared_n, chunks = scan_edge_list(
                source, block_bytes=block_bytes)
            edges = np.concatenate([np.zeros((0, 2), np.int64), *chunks])
        except FastParseUnsupported:
            pass
        else:
            max_id = int(edges.max(initial=-1))
            return edges, resolve_node_count(declared_n, max_id)
    edges, _weights, n = _parse(source, want_weights=False)
    return edges, n


# -- write-once binary edge cache ------------------------------------------


def edge_cache_paths(path: str | Path) -> tuple[Path, Path]:
    """``(<name>.edges.npy, <name>.edges.json)`` next to the text file."""
    p = Path(path)
    return (
        p.with_name(p.name + ".edges.npy"),
        p.with_name(p.name + ".edges.json"),
    )


def _cache_fingerprint(path: Path) -> dict:
    stat = path.stat()
    return {"source_bytes": stat.st_size, "source_mtime_ns": stat.st_mtime_ns}


def cache_valid(path: str | Path) -> bool:
    """Whether a current binary cache exists for this text file."""
    source = Path(path)
    npy_path, meta_path = edge_cache_paths(source)
    if not (npy_path.is_file() and meta_path.is_file()):
        return False
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return (
        meta.get("version") == CACHE_VERSION
        and {k: meta.get(k) for k in ("source_bytes", "source_mtime_ns")}
        == _cache_fingerprint(source)
    )


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


def build_edge_cache(
    path: str | Path, *, block_bytes: int = FAST_BLOCK_BYTES
) -> tuple[Path, int]:
    """Parse a text edge list once into ``<name>.edges.npy``.

    Write-once: if a cache with a matching source fingerprint exists it
    is reused untouched. The fast path streams chunks straight into the
    array file behind a placeholder header (RAM stays O(block));
    fallback files are parsed per-line in memory. Returns
    ``(npy_path, n)``.
    """
    source = Path(path)
    npy_path, meta_path = edge_cache_paths(source)
    if cache_valid(source):
        return npy_path, int(json.loads(meta_path.read_text())["n"])

    # The fingerprint is what blesses the pair (cache_valid): a stale one
    # goes before anything is written, and each file appears under its
    # own name only once complete — the array first, the fingerprint last.
    meta_path.unlink(missing_ok=True)
    pending_npy = npy_path.with_name(npy_path.name + ".part")
    pending_meta = meta_path.with_name(meta_path.name + ".part")
    rows = 0
    max_id = -1
    try:
        with open(pending_npy, "wb") as out:
            placeholder = npy_header((0, 2))
            out.write(placeholder)
            try:
                declared_n, chunks = scan_edge_list(
                    source, block_bytes=block_bytes
                )
                for chunk in chunks:
                    out.write(np.ascontiguousarray(chunk))
                    rows += chunk.shape[0]
                    max_id = max(max_id, int(chunk.max()))
                n = resolve_node_count(declared_n, max_id)
            except FastParseUnsupported:
                edges, _weights, n = _parse(source, want_weights=False)
                rows = edges.shape[0]
                out.truncate(len(placeholder))
                out.seek(len(placeholder))
                out.write(np.ascontiguousarray(edges))
            rewrite_npy_header(out, placeholder, (rows, 2))
        os.replace(pending_npy, npy_path)
        meta = {
            "version": CACHE_VERSION,
            "n": int(n),
            "rows": int(rows),
            **_cache_fingerprint(source),
        }
        pending_meta.write_text(json.dumps(meta))
        os.replace(pending_meta, meta_path)
    finally:
        pending_npy.unlink(missing_ok=True)
        pending_meta.unlink(missing_ok=True)
    return npy_path, int(n)


def load_edge_cache(path: str | Path) -> tuple[np.ndarray, int]:
    """Memory-mapped ``(edges, n)`` for a text edge list, building the
    binary cache on first use."""
    npy_path, meta_path = edge_cache_paths(path)
    if not cache_valid(path):
        build_edge_cache(path)
    n = int(json.loads(meta_path.read_text())["n"])
    edges = np.load(npy_path, mmap_mode="r")
    return edges, n


def loads(text: str) -> Graph:
    """Parse an edge list from a string (testing convenience)."""
    return read_edge_list(io.StringIO(text))


def loads_weighted(text: str) -> WeightedGraph:
    """Parse a weighted edge list from a string."""
    return read_weighted_edge_list(io.StringIO(text))
