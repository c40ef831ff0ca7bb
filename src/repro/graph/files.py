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
* the **slow path** — the original per-line parser, kept so that
  every error message and edge case (including the ``# nodes:`` header
  semantics) is unchanged.

Every reader shares one parse, :func:`parse_edge_list`: the fast path
with the per-line parser behind it. :func:`read_edge_list` fills one
array from it; ``repro ingest`` streams its chunks straight into
:func:`repro.graph.csr.build_csr`, whose directory is the only artifact
a text edge list leaves (nothing is written beside the text).
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

import numpy as np

from .graph import Graph, WeightedGraph

# Measured fastest of 128 KB - 4 MB on a 24 MB edge list: the per-block
# temporaries stay in cache.
FAST_BLOCK_BYTES = 1 << 19
_T = TypeVar("_T")


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
    n = resolve_node_count(declared_n, max_id)
    edge_arr = (np.array(edges, dtype=np.int64)
                if edges else np.zeros((0, 2), np.int64))
    return edge_arr, np.array(weights, dtype=np.float64), n


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
    then the two halves, all lanes of a word at once, in place.
    """
    for multiplier, shift, keep in _SWAR_STEPS:
        words *= multiplier
        words >>= shift
        words &= keep
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
    del digit
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
    values = words[ends - 7]
    values &= _DIGIT_MASKS.take(lengths, mode="clip")
    _decode_words(values)
    if longest > 8:
        long = np.flatnonzero(lengths > 8)
        high = words[ends[long] - 15] & _DIGIT_MASKS[lengths[long] - 8]
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
                whole = memoryview(block)[:cut]
                if cut and (edges := _parse_block(whole)).size:
                    yield edges
            if carry.strip() and (edges := _parse_block(carry + b"\n")).size:
                yield edges

    return declared_n, _chunks()


def resolve_node_count(declared_n: int | None, max_id: int) -> int:
    """The vertex count: the ``# nodes:`` value, else 1 + the largest id."""
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ValueError(f"declared nodes: {n} but saw vertex id {max_id}")
    return max(n, 0)


def parse_edge_list(
    source: str | Path | TextIO,
    consume: Callable[[int | None, Iterator[np.ndarray]], _T],
    *,
    block_bytes: int = FAST_BLOCK_BYTES,
) -> _T:
    """The one edge-list parse: return ``consume(n, chunks)``.

    A file path streams through :func:`scan_edge_list`, with ``n`` the
    ``# nodes:`` value or None (the consumer applies
    :func:`resolve_node_count` to what it saw). If the fast path refuses
    the file, up front or after ``consume`` has taken some chunks,
    ``consume`` runs again from scratch on the per-line parser's edges as
    one chunk, with ``n`` resolved. File objects go there directly.
    """
    if isinstance(source, (str, Path)):
        try:
            return consume(*scan_edge_list(source, block_bytes=block_bytes))
        except FastParseUnsupported:
            pass
    edges, _weights, n = _parse(source, want_weights=False)
    return consume(n, iter([edges]))


def _read_edges(
    source, *, block_bytes: int = FAST_BLOCK_BYTES
) -> tuple[np.ndarray, int]:
    """:func:`read_edge_list`'s ``(edges, n)``, filled into one array.

    A data line takes at least 4 bytes, its line break included, so a
    file of s bytes holds at most (s + 1) // 4 edges: the array is
    reserved at that size and only the pages the edges fill are ever
    touched. The edges are never held twice, as a chunk list and its
    concatenation would hold them.
    """
    if not isinstance(source, (str, Path)):
        edges, _weights, n = _parse(source, want_weights=False)
        return edges, n

    def fill(n: int | None, chunks: Iterator[np.ndarray]):
        edges = np.empty(((os.path.getsize(source) + 1) // 4, 2), np.int64)
        rows = 0
        for chunk in chunks:
            edges[rows : rows + chunk.shape[0]] = chunk
            rows += chunk.shape[0]
        edges = edges[:rows]
        return edges, resolve_node_count(n, int(edges.max(initial=-1)))

    return parse_edge_list(source, fill, block_bytes=block_bytes)


# -- names of the removed binary edge cache ---------------------------------
# Nothing is written beside a text file any more. bench/ calls
# load_edge_cache and edge_cache_paths, and its probe table names all four.


def load_edge_cache(path: str | Path) -> tuple[np.ndarray, int]:
    """``(edges, n)`` of a text edge list: an ``(m, 2)`` int64 array in
    file order. Read through :func:`build_edge_cache`, which the
    benchmark times as the parse."""
    return build_edge_cache(path)


def build_edge_cache(path: str | Path) -> tuple[np.ndarray, int]:
    """Parse a text edge list into ``(edges, n)``, held once."""
    return _read_edges(path)


def cache_valid(path: str | Path) -> bool:
    """Whether a binary edge cache serves ``path``: never."""
    return False


def edge_cache_paths(path: str | Path) -> tuple[Path, ...]:
    """Files a text edge list leaves beside itself: none."""
    return ()


def loads(text: str) -> Graph:
    """Parse an edge list from a string (testing convenience)."""
    return read_edge_list(io.StringIO(text))


def loads_weighted(text: str) -> WeightedGraph:
    """Parse a weighted edge list from a string."""
    return read_weighted_edge_list(io.StringIO(text))
