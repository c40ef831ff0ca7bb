"""Out-of-core ingestion (:mod:`repro.graph.files` / :mod:`repro.graph.csr`).

The ingestion pipeline — vectorized text parse streamed into the
external-memory CSR build, mmap-backed graphs, array-native DDS setup —
is a pure I/O optimization: every test here asserts
bit-identity against the in-memory reference (``Graph.from_edges``,
the per-line parser, ``encode_graph``), most of them down to the full
per-round cost ledger.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import cli
from repro.core import AMPCConfig, AMPCRuntime
from repro.core.runtime import use_runtime
from repro.graph import csr, files, generators
from repro.graph.graph import Graph
from repro.graph.io import encode_graph, encode_graph_arrays
from repro.verify.runner import edge_list_parity

pytestmark = pytest.mark.ingest


def _ledger(report):
    """Cost ledger rows with every model-visible field (no wall time)."""
    return [
        (s.tag, s.kind, s.rounds, s.total_reads, s.total_writes,
         s.max_machine_reads, s.max_machine_writes, s.n_machines_active,
         s.budget_violations, s.max_server_load)
        for s in report.rounds
    ]


def _store_state(store):
    return (
        store.n_writes,
        store.server_item_loads.tolist(),
        len(store),
        sorted(store.items()),
    )


#: Kill points lie in this package's code only: an interrupt raised in
#: other code (a gc callback such as Hypothesis's) may be swallowed and
#: let the build finish.
_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _repro_steps(run, kill_at: int = 0) -> int | None:
    """Call ``run()``, raising KeyboardInterrupt at its ``kill_at``-th step
    (never when 0) — a call of, or a line in, a function of the ``repro``
    package, as a signal could land there. Returns None when the kill
    happened, else the number of steps ``run`` took. Whatever exception
    the kill turns into on its way out (C code may replace it) counts as
    the kill."""
    steps = 0

    def step(frame, event, arg):
        nonlocal steps
        if event in ("call", "line"):
            steps += 1
            if steps == kill_at:
                raise KeyboardInterrupt(f"killed at step {kill_at}")
        return step

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(_REPRO_DIR):
            return step(frame, event, arg)
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    except BaseException:
        if not 0 < kill_at <= steps:
            raise
        return None
    finally:
        sys.settrace(previous)
    return steps


def edge_arrays(max_n: int = 40, max_m: int = 120, self_loops: bool = False):
    """Strategy: (n, edges) with duplicates in both orientations."""
    def build(n, pairs):
        if not pairs:
            return n, np.zeros((0, 2), dtype=np.int64)
        return n, np.array(pairs, dtype=np.int64)

    def pairs_for(n):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if not self_loops:
            pair = pair.filter(lambda uv: uv[0] != uv[1])
        return st.lists(pair, max_size=max_m)

    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), pairs_for(n))
    )


# ---------------------------------------------------------------------------
# external-memory CSR build vs Graph.from_edges
# ---------------------------------------------------------------------------


class TestBuildCSR:
    @settings(max_examples=40, deadline=None)
    @given(edge_arrays(), st.integers(1, 64))
    def test_round_trip_matches_from_edges(self, inst, chunk):
        n, edges = inst
        want = Graph.from_edges(n, edges)
        with tempfile.TemporaryDirectory() as tmp:
            got = csr.build_csr(edges, n, tmp, chunk_edges=chunk)
            assert got.n == want.n
            assert np.array_equal(np.asarray(got.indptr), want.indptr)
            assert np.array_equal(np.asarray(got.indices), want.indices)

    @settings(max_examples=20, deadline=None)
    @given(edge_arrays(self_loops=True), st.integers(1, 64))
    def test_drop_self_loops_matches_filtered_input(self, inst, chunk):
        n, edges = inst
        kept = edges[edges[:, 0] != edges[:, 1]] if edges.size else edges
        want = Graph.from_edges(n, kept)
        with tempfile.TemporaryDirectory() as tmp:
            got = csr.build_csr(edges, n, tmp, chunk_edges=chunk,
                                drop_self_loops=True)
            assert np.array_equal(np.asarray(got.indptr), want.indptr)
            assert np.array_equal(np.asarray(got.indices), want.indices)

    def test_generator_input_is_spooled_and_replayed(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 200, size=(3000, 2), dtype=np.int64)
        edges = edges[edges[:, 0] != edges[:, 1]]
        want = Graph.from_edges(200, edges)
        with tempfile.TemporaryDirectory() as tmp:
            got = csr.build_csr(csr.edge_chunks(edges, 257), 200, tmp,
                                chunk_edges=257)
            assert np.array_equal(np.asarray(got.indptr), want.indptr)
            assert np.array_equal(np.asarray(got.indices), want.indices)
            # Scratch files are gone; only the cache triple remains.
            assert sorted(os.listdir(tmp)) == [
                "indices.npy", "indptr.npy", "meta.json"
            ]
            assert csr.is_cache(tmp)

    def test_interrupted_rebuild_leaves_no_blessed_cache(self, monkeypatch):
        """A rebuild over a valid cache that dies mid-pass must not leave
        the previous build's meta.json vouching for half-new arrays."""
        old = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        rng = np.random.default_rng(3)
        new = rng.integers(0, 50, size=(400, 2), dtype=np.int64)
        new = new[new[:, 0] != new[:, 1]]
        with tempfile.TemporaryDirectory() as tmp:
            csr.build_csr(old, 4, tmp)
            assert csr.is_cache(tmp)

            real_bucket, calls = csr._bucket, []

            def dying_bucket(*args):
                calls.append(1)
                if len(calls) == 3:
                    raise KeyboardInterrupt("killed in pass 2")
                real_bucket(*args)

            monkeypatch.setattr(csr, "_bucket", dying_bucket)
            with pytest.raises(KeyboardInterrupt):
                csr.build_csr(new, 50, tmp, chunk_edges=64)
            monkeypatch.setattr(csr, "_bucket", real_bucket)
            assert not csr.is_cache(tmp)

            got = csr.build_csr(new, 50, tmp, chunk_edges=64)
            want = Graph.from_edges(50, new)
            assert csr.is_cache(tmp)
            reloaded = csr.MmapGraph.load(tmp)
            assert reloaded.n == got.n == 50
            assert np.array_equal(np.asarray(reloaded.indptr), want.indptr)
            assert np.array_equal(np.asarray(reloaded.indices), want.indices)
            assert sorted(os.listdir(tmp)) == [
                "indices.npy", "indptr.npy", "meta.json"
            ]

    def test_every_kill_point_leaves_no_blessed_cache(self):
        """Killed at any step of a rebuild's own code, the directory is
        either not a cache or a complete one of the old or new edges, and
        the loop reaches every step an unkilled rebuild takes."""
        old = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        rng = np.random.default_rng(8)
        new = rng.integers(0, 24, size=(90, 2), dtype=np.int64)
        new = new[new[:, 0] != new[:, 1]]
        complete = [Graph.from_edges(4, old), Graph.from_edges(24, new)]
        def rebuild():
            csr.build_csr(csr.edge_chunks(new, 32), 24, tmp, chunk_edges=32)

        with tempfile.TemporaryDirectory() as tmp:
            csr.build_csr(old, 4, tmp)
            kill_points = _repro_steps(rebuild)
            for k in itertools.count(1):
                csr.build_csr(old, 4, tmp)
                killed = _repro_steps(rebuild, k) is None
                if csr.is_cache(tmp):
                    got = csr.MmapGraph.load(tmp)
                    assert any(
                        np.array_equal(np.asarray(got.indptr), g.indptr)
                        and np.array_equal(np.asarray(got.indices),
                                           g.indices)
                        for g in complete
                    )
                if not killed:
                    break
            assert k == kill_points + 1
            assert csr.is_cache(tmp)

    @pytest.mark.parametrize("source", ["array", "generator"])
    def test_peak_allocation_is_linear_in_n_plus_chunk(self, source, tmp_path):
        # tracemalloc counts every allocation of the process, so the
        # window runs in a fresh child where nothing else allocates.
        measure = (
            "import sys, tracemalloc\n"
            "import numpy as np\n"
            "from repro.graph import csr\n"
            "n, chunk = 2000, 4096\n"
            "rng = np.random.default_rng(11)\n"
            "edges = rng.integers(0, n, size=(120_000, 2), dtype=np.int64)\n"
            "edges = edges[edges[:, 0] != edges[:, 1]]\n"
            "stream = (edges if sys.argv[1] == 'array'\n"
            "          else csr.edge_chunks(edges, chunk))\n"
            "tracemalloc.start()\n"
            "csr.build_csr(stream, n, sys.argv[2], chunk_edges=chunk)\n"
            "_, peak = tracemalloc.get_traced_memory()\n"
            "tracemalloc.stop()\n"
            "np.save(sys.argv[3], edges)\n"
            "print(peak)\n"
        )
        out, saved = tmp_path / "csr", tmp_path / "edges.npy"
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        peak = int(subprocess.run(
            [sys.executable, "-c", measure, source, str(out), str(saved)],
            capture_output=True, text=True, check=True, env=env).stdout)
        n, chunk, edges = 2000, 4096, np.load(saved)
        got = csr.MmapGraph.load(str(out))
        assert np.array_equal(np.asarray(got.indices),
                              Graph.from_edges(n, edges).indices)
        assert peak * 4 <= edges.nbytes
        assert peak <= 8 * 8 * (n + chunk)

    def test_hub_row_over_budget_is_a_block_of_its_own(self):
        n, hub, chunk = 300, 150, 64
        rng = np.random.default_rng(5)
        rest = rng.integers(0, n, size=(600, 2), dtype=np.int64)
        rest = rest[(rest[:, 0] != rest[:, 1]) & (rest != hub).all(axis=1)]
        spokes = np.column_stack((np.full(n - 1, hub),
                                  np.delete(np.arange(n), hub)))
        # Every spoke twice, once per orientation: degree 2(n-1) > chunk.
        edges = np.concatenate([rest[:300], spokes, spokes[::-1, ::-1],
                                rest[300:]])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges.ravel(), minlength=n), out=offsets[1:])
        starts = csr._block_starts(offsets, chunk)
        assert hub in starts and hub + 1 in starts
        assert np.all(np.diff(offsets[starts])[starts[:-1] != hub] <= chunk)
        want = Graph.from_edges(n, edges)
        for stream in (edges, csr.edge_chunks(edges, chunk)):
            with tempfile.TemporaryDirectory() as tmp:
                got = csr.build_csr(stream, n, tmp, chunk_edges=chunk)
                assert np.array_equal(np.asarray(got.indptr), want.indptr)
                assert np.array_equal(np.asarray(got.indices),
                                      want.indices)

    def test_key_cap_limits_rows_per_block(self, monkeypatch):
        # Keys are (row - first row) * n + neighbor: with the int64 cap
        # patched down to 3n, a block may span at most 3 rows.
        n = 60
        rng = np.random.default_rng(6)
        edges = rng.integers(0, n, size=(400, 2), dtype=np.int64)
        edges = edges[edges[:, 0] != edges[:, 1]]
        monkeypatch.setattr(csr, "_KEY_MAX", 3 * n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges.ravel(), minlength=n), out=offsets[1:])
        starts = csr._block_starts(offsets, csr.DEFAULT_CHUNK_EDGES)
        assert np.diff(starts).max() == 3
        want = Graph.from_edges(n, edges)
        with tempfile.TemporaryDirectory() as tmp:
            got = csr.build_csr(edges, n, tmp)
            assert np.array_equal(np.asarray(got.indptr), want.indptr)
            assert np.array_equal(np.asarray(got.indices), want.indices)

    @pytest.mark.parametrize("damage", [
        "truncated indices", "foreign indices", "float indices",
        "indptr end", "short indptr",
    ])
    def test_arrays_not_matching_meta_are_rejected(self, damage):
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]], dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            csr.build_csr(edges, 4, tmp)
            indptr = Path(tmp) / "indptr.npy"
            indices = Path(tmp) / "indices.npy"
            if damage == "truncated indices":
                os.truncate(indices, indices.stat().st_size - 8)
            elif damage == "foreign indices":
                np.save(indices, np.arange(5, dtype=np.int64))
            elif damage == "float indices":
                np.save(indices, np.load(indices).astype(np.float64))
            elif damage == "indptr end":
                np.save(indptr, np.array([0, 2, 4, 6, 7], dtype=np.int64))
            else:
                np.save(indptr, np.array([0, 2, 4, 8], dtype=np.int64))
            assert not csr.is_cache(tmp)
            with pytest.raises(ValueError):
                csr.MmapGraph.load(tmp)

    def test_flipped_data_byte_fails_the_checksum(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]], dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            csr.build_csr(edges, 4, tmp)
            indices = Path(tmp) / "indices.npy"
            data = bytearray(indices.read_bytes())
            data[-2] ^= 1  # the last neighbor: shapes and sizes still agree
            indices.write_bytes(bytes(data))
            assert not csr.is_cache(tmp)
            with pytest.raises(ValueError, match="checksum"):
                csr.MmapGraph.load(tmp)

    def test_unknown_n_is_one_past_the_largest_endpoint(self):
        # Self-loops count: the per-line parser's rule for a file without
        # a "# nodes:" header, which the dropped loop (5, 5) still sizes.
        edges = np.array([[0, 1], [5, 5], [1, 2]], dtype=np.int64)
        want = Graph.from_edges(6, edges[[0, 2]])
        for stream in (edges, csr.edge_chunks(edges, 2)):
            with tempfile.TemporaryDirectory() as tmp:
                got = csr.build_csr(stream, None, tmp, drop_self_loops=True)
                assert got == want
        with tempfile.TemporaryDirectory() as tmp:
            assert csr.build_csr(iter([]), None, tmp).n == 0

    def test_self_loop_rejected_by_default(self):
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match="self-loops"):
                csr.build_csr(np.array([[1, 1]]), 4, tmp)

    def test_endpoint_out_of_range(self):
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match="out of range"):
                csr.build_csr(np.array([[0, 9]]), 4, tmp)

    def test_empty_and_null_graphs(self):
        with tempfile.TemporaryDirectory() as tmp:
            g = csr.build_csr(np.zeros((0, 2), dtype=np.int64), 5,
                              Path(tmp) / "empty")
            assert g.n == 5 and g.m == 0
            h = csr.build_csr(np.zeros((0, 2), dtype=np.int64), 0,
                              Path(tmp) / "null")
            assert h.n == 0 and h.m == 0

    def test_load_rejects_unknown_version(self):
        with tempfile.TemporaryDirectory() as tmp:
            csr.build_csr(np.array([[0, 1]]), 2, tmp)
            meta = Path(tmp) / "meta.json"
            meta.write_text(meta.read_text().replace(
                f'"version": {csr.FORMAT_VERSION}', '"version": 99'))
            with pytest.raises(ValueError, match="version"):
                csr.MmapGraph.load(tmp)


# ---------------------------------------------------------------------------
# text edge lists: one parse, streamed into the CSR build
# ---------------------------------------------------------------------------


def _ingest_cli(source, out, *flags) -> int:
    return cli.main(["ingest", str(source), str(out), "--no-stats", *flags])


class TestEdgeCache:
    @settings(max_examples=25, deadline=None)
    @given(edge_arrays())
    def test_text_cache_csr_graph_parity(self, inst):
        n, edges = inst
        graph = Graph.from_edges(n, edges)
        with tempfile.TemporaryDirectory() as tmp:
            text = Path(tmp) / "g.txt"
            files.write_edge_list(graph, text)
            # Text -> fast parse.
            parsed = files.read_edge_list(text)
            assert parsed == graph
            # Text -> edge array -> CSR -> Graph, all bit-identical.
            loaded, loaded_n = files.load_edge_cache(text)
            assert loaded_n == graph.n
            mapped = csr.build_csr(loaded, loaded_n, Path(tmp) / "csr",
                                   chunk_edges=61)
            assert mapped == graph
            # Text streamed into the CSR build, as `repro ingest` runs it.
            streamed, built = csr.ingest(text, Path(tmp) / "stream",
                                         chunk_edges=61)
            assert built and streamed == graph

    def test_fallback_mid_stream_replaces_the_fast_rows(self, tmp_path,
                                                        monkeypatch):
        # `repro ingest` streams a few 64-byte blocks into the CSR build,
        # then meets a weight column on the last line; the build starts
        # over from the per-line parse.
        graph = generators.erdos_renyi_gnm(30, 80, rng=4)
        lines = [f"{u} {v}" for u, v in graph.edges().tolist()]
        lines[-1] += " 2.5"
        text = tmp_path / "src" / "g.txt"
        text.parent.mkdir()
        text.write_text("\n".join(lines) + "\n")
        scan, streamed = files.scan_edge_list, []

        def small_blocks(path, **_):
            declared_n, chunks = scan(path, block_bytes=64)
            return declared_n, (streamed.append(c) or c for c in chunks)

        monkeypatch.setattr(files, "scan_edge_list", small_blocks)
        out = tmp_path / "csr"
        assert _ingest_cli(text, out, "--chunk-edges", "16") == 0
        assert len(streamed) > 2
        n = int(graph.edges().max()) + 1
        assert csr.MmapGraph.load(out) == Graph.from_edges(n, graph.edges())
        assert sorted(os.listdir(out)) == [
            "indices.npy", "indptr.npy", "meta.json"
        ]
        assert os.listdir(text.parent) == ["g.txt"]

    def test_stale_csr_is_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "csr"
        assert _ingest_cli("rmat:8:4", out) == 0
        assert _ingest_cli("rmat:10:4", out) == 0
        assert csr.MmapGraph.load(out).n == 1 << 10
        # An edited source (a different size, so the record differs even
        # if the file system's mtime does not tick between the writes).
        text = tmp_path / "g.txt"
        files.write_edge_list(generators.erdos_renyi_gnm(40, 60, rng=1), text)
        assert _ingest_cli(text, out) == 0
        edited = generators.erdos_renyi_gnm(50, 90, rng=2)
        files.write_edge_list(edited, text)
        assert _ingest_cli(text, out) == 0
        assert csr.MmapGraph.load(out) == edited
        capsys.readouterr()
        assert _ingest_cli(text, out) == 0
        assert "cache up to date" in capsys.readouterr().out
        # A flipped --drop-self-loops rebuilds, and the loop is refused.
        text.write_text("0 1\n2 2\n")
        assert _ingest_cli(text, out, "--drop-self-loops") == 0
        assert _ingest_cli(text, out) == 2
        assert "self-loops are not allowed" in capsys.readouterr().err

    def test_read_holds_the_edges_once(self, tmp_path):
        """Peak RSS growth of a 2*10^6-edge read (the reader behind
        read_edge_list and load_edge_cache) stays near the edge array's
        own bytes: the chunks are never held beside a copy. ru_maxrss
        counts touched pages only, as the reserved array relies on."""
        rng = np.random.default_rng(12)
        pairs = rng.integers(0, 1 << 20, size=(2000, 2)).tolist()
        text = tmp_path / "g.txt"
        text.write_bytes("".join(f"{u} {v}\n" for u, v in pairs).encode()
                         * 1000)
        (tmp_path / "warm.txt").write_text("0 1\n")
        measure = (
            "import resource, sys\n"
            "from repro.graph import files\n"
            "files._read_edges(sys.argv[2])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "edges, n = files._read_edges(sys.argv[1])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024, edges.nbytes)\n"
        )
        # Linux starts a forked child's ru_maxrss at its parent's RSS, so
        # the measuring process is forked from a small launcher, not from
        # this test process.
        launch = ("import subprocess, sys\n"
                  "subprocess.run([sys.executable, '-c', *sys.argv[1:]], "
                  "check=True)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", launch, measure, str(text),
             str(tmp_path / "warm.txt")],
            capture_output=True, text=True, check=True, env=env).stdout
        growth, nbytes = map(int, out.split())
        assert nbytes == 2_000_000 * 16
        assert growth < 1.3 * nbytes

    def test_fast_and_slow_paths_raise_identical_errors(self):
        cases = [
            "# nodes: 3\n0 1\n5 1\n",   # id above declared n
            "0 1\n7\n",                 # single token on a line
        ]
        for content in cases:
            with tempfile.TemporaryDirectory() as tmp:
                text = Path(tmp) / "g.txt"
                text.write_text(content)
                with pytest.raises(ValueError) as fast_err:
                    files.read_edge_list(text)
                import io
                with pytest.raises(ValueError) as slow_err:
                    files.read_edge_list(io.StringIO(content))
                assert str(fast_err.value) == str(slow_err.value)

    def test_ingest_reports_a_declared_count_overrun_as_the_parser_does(
            self, tmp_path):
        # The first file takes the fast path into the CSR build; the lone
        # CR of the second sends it to the per-line parser.
        for content in ("# nodes: 3\n0 1\n5 1\n", "# nodes: 3\n0 1\r5 1\n"):
            text = tmp_path / "g.txt"
            text.write_text(content, newline="")
            with pytest.raises(ValueError) as parsed:
                files.read_edge_list(text)
            with pytest.raises(ValueError) as ingested:
                csr.ingest(text, tmp_path / "csr")
            assert str(ingested.value) == str(parsed.value) == (
                "declared nodes: 3 but saw vertex id 5")


# ---------------------------------------------------------------------------
# byte-level fast path vs the per-line parser
# ---------------------------------------------------------------------------

# Token lengths cluster where the fast path switches words (8 | 9 digits),
# where it stops (16 | 17) and where int64 does (18 | 19 digits).
_TOKEN = st.sampled_from([1, 2, 7, 8, 9, 16, 17, 18, 19]).flatmap(
    lambda k: st.text("0123456789", min_size=k, max_size=k).map(str.encode)
)
_BYTE = st.sampled_from([
    b" ", b" ", b"\t", b"\r", b"\n", b"\n", b"\r\n", b"#", b"-", b"+", b".",
    b"\x00", b"\xff",
])
_LINE = st.tuples(
    _TOKEN, st.sampled_from([b" ", b"\t", b"  ", b"\r"]), _TOKEN,
    st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]),
).map(b"".join)
_COMMENT = st.tuples(
    st.sampled_from([b"# nodes: ", b"# c"]),
    st.lists(st.one_of(_TOKEN, _BYTE), max_size=3).map(b"".join),
    st.just(b"\n"),
).map(b"".join)
_EDGE_LIST_BYTES = st.tuples(
    st.lists(_COMMENT, max_size=2),
    st.lists(st.one_of(_LINE, _LINE, _LINE, _TOKEN, _BYTE), max_size=40),
).map(lambda parts: b"".join(parts[0] + parts[1]))


class TestParserParity:
    @settings(max_examples=300, deadline=None)
    @given(_EDGE_LIST_BYTES, st.integers(8, 48))
    def test_fuzzed_bytes_read_as_the_per_line_parser_reads(
        self, data, block_bytes
    ):
        with tempfile.TemporaryDirectory() as tmp:
            text = Path(tmp) / "g.txt"
            text.write_bytes(data)
            assert edge_list_parity(text, block_bytes) == []

    @staticmethod
    def _scan(path, block_bytes=files.FAST_BLOCK_BYTES):
        declared_n, chunks = files.scan_edge_list(
            path, block_bytes=block_bytes)
        edges = np.concatenate([np.zeros((0, 2), np.int64), *chunks])
        return declared_n, edges.tolist()

    @staticmethod
    def _per_line(path):
        edges, _weights, n = files._parse(path, want_weights=False)
        return edges.tolist(), n

    @pytest.mark.parametrize("digits", [1, 7, 8, 9, 15, 16, 17, 18, 19])
    def test_token_lengths(self, tmp_path, digits):
        u = int("1234567890123456789"[:digits])
        v = 10 ** (digits - 1)
        text = tmp_path / "g.txt"
        text.write_bytes(f"{u} {v}\n{v}\t{u}\n".encode())
        want = [[u, v], [v, u]]
        assert self._per_line(text) == (want, u + 1)
        if digits <= 16:
            assert self._scan(text) == (None, want)
        else:  # three words or more: the per-line parser's job
            with pytest.raises(files.FastParseUnsupported):
                self._scan(text)
        assert files._read_edges(text)[0].tolist() == want

    @pytest.mark.parametrize("data, block_bytes, want", [
        # leading zeros, on both sides of the one/two-word switch
        (b"007 0000000000000012\n00000000 1\n", 64, [[7, 12], [0, 1]]),
        # each block starts with a token whose word reaches into the
        # block's front padding (one word, then the high one of two)
        (b"1 87654321\n123456789 2\n", 11, [[1, 87654321], [123456789, 2]]),
        # tabs and runs of spaces between u and v
        (b"1\t2\n3   4\n5 \t 6\n  7 8  \n", 64,
         [[1, 2], [3, 4], [5, 6], [7, 8]]),
        # CRLF, and blank lines, one of them first in its block
        (b"0 1\r\n\r\n2 3\r\n\n4 5\n", 5, [[0, 1], [2, 3], [4, 5]]),
        # no trailing newline
        (b"0 1\n2 3", 64, [[0, 1], [2, 3]]),
        # blocks so small that every line straddles a block edge
        (b"10 20\n11 21\n12 22\n13 23\n", 4,
         [[10, 20], [11, 21], [12, 22], [13, 23]]),
    ])
    def test_boundary_cases_take_the_fast_path(self, tmp_path, data,
                                                block_bytes, want):
        text = tmp_path / "g.txt"
        text.write_bytes(data)
        assert self._scan(text, block_bytes) == (None, want)
        assert self._per_line(text)[0] == want
        assert edge_list_parity(text, block_bytes) == []

    def test_header_only_file(self, tmp_path):
        text = tmp_path / "g.txt"
        text.write_bytes(b"# nodes: 7\n# more\n\n")
        assert self._scan(text) == (7, [])
        assert files.read_edge_list(text) == Graph.from_edges(7, [])

    @pytest.mark.parametrize("data", [b"0\r1\n", b"0 1\r2 3\n", b"# c\r0 1\n"])
    def test_lone_cr_is_a_line_break_on_both_paths(self, tmp_path, data):
        # Text mode reads a lone CR as the end of a line; the byte-level
        # path must not read it as a separator.
        text = tmp_path / "g.txt"
        text.write_bytes(data)
        with pytest.raises(files.FastParseUnsupported):
            self._scan(text)
        assert edge_list_parity(text, block_bytes=16) == []

    def test_line_longer_than_a_block_goes_to_the_per_line_parser(
        self, tmp_path
    ):
        text = tmp_path / "g.txt"
        long_line = b"0 1" + b" " * (3 * files.FAST_BLOCK_BYTES) + b"\n"
        text.write_bytes(long_line + b"2 3\n")
        with pytest.raises(files.FastParseUnsupported, match="longer"):
            self._scan(text)
        edges, n = self._per_line(text)
        assert files.read_edge_list(text) == Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# streaming RMAT
# ---------------------------------------------------------------------------


class TestRMAT:
    def test_deterministic_and_chunk_invariant_totals(self):
        a = list(generators.rmat_edge_chunks(8, 4, rng=3, chunk_edges=100))
        b = list(generators.rmat_edge_chunks(8, 4, rng=3, chunk_edges=100))
        assert sum(c.shape[0] for c in a) == 4 << 8
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rmat_graph_equals_csr_of_stream(self):
        # The raw stream is deterministic per (rng, chunk_edges); use the
        # generator's default chunking so it matches rmat_graph's.
        graph = generators.rmat_graph(7, 4, rng=5)
        with tempfile.TemporaryDirectory() as tmp:
            mapped = csr.build_csr(
                generators.rmat_edge_chunks(7, 4, rng=5),
                1 << 7, tmp, chunk_edges=64, drop_self_loops=True,
            )
            assert np.array_equal(np.asarray(mapped.indptr), graph.indptr)
            assert np.array_equal(np.asarray(mapped.indices), graph.indices)


# ---------------------------------------------------------------------------
# array-native DDS setup: ledger identity with encode_graph
# ---------------------------------------------------------------------------


class TestArrayNativeSetup:
    def test_publish_ledger_and_placement_identical(self):
        graph = generators.erdos_renyi_gnm(50, 100, rng=4)
        config = AMPCConfig.for_input(graph.n + graph.m, seed=9)

        scalar_rt = AMPCRuntime(config)
        scalar_rt.publish_state(pairs=encode_graph(graph))
        arrays_rt = AMPCRuntime(config)
        arrays_rt.publish_state(arrays=encode_graph_arrays(
            graph, chunk_edges=17))

        assert _store_state(scalar_rt._store) == _store_state(
            arrays_rt._store)
        assert _ledger(scalar_rt.report) == _ledger(arrays_rt.report)

    def test_vectorized_connectivity_ledger_identity(self):
        # The production round seeds the DDS via encode_graph_arrays; its
        # per-item spec staged from the scalar encode_graph pair stream
        # must find the same edges at the same ledger row: the
        # array-native setup contract end to end.
        from repro.algorithms.connectivity import _increase_degrees
        from repro.verify.specs import bfs

        graph = generators.erdos_renyi_gnm(90, 180, rng=6)
        config = AMPCConfig.for_input(graph.n + graph.m, seed=2)
        rt = AMPCRuntime(config)
        augmented = _increase_degrees(graph, 5, rt, tag="bfs")
        spec_rt = AMPCRuntime(config)
        result = spec_rt.round(list(range(graph.n)), bfs(5),
                               setup=encode_graph(graph), tag="bfs")
        vs, xs = result.store.read_namespace("fedge")
        want = Graph.from_edges(
            graph.n, np.concatenate([graph.edges(), np.column_stack((vs, xs))])
        )
        assert augmented.m > graph.m
        assert np.array_equal(augmented.indptr, want.indptr)
        assert np.array_equal(augmented.indices, want.indices)
        assert _ledger(rt.report) == _ledger(spec_rt.report)


# ---------------------------------------------------------------------------
# mmap graphs through the full stack
# ---------------------------------------------------------------------------


class TestMmapGraphEndToEnd:
    def _mapped(self, graph, tmp):
        return csr.build_csr(graph.edges(), graph.n, tmp, chunk_edges=97)

    def test_connectivity_and_mis_bit_identical(self):
        graph = generators.erdos_renyi_gnm(80, 160, rng=8)
        with tempfile.TemporaryDirectory() as tmp:
            mapped = self._mapped(graph, tmp)
            want = repro.connectivity(graph, seed=1)
            got = repro.connectivity(mapped, seed=1)
            assert np.array_equal(want.labels, got.labels)
            assert _ledger(want.report) == _ledger(got.report)
            want_mis = repro.maximal_independent_set(graph, seed=1)
            got_mis = repro.maximal_independent_set(mapped, seed=1)
            assert np.array_equal(want_mis.in_mis, got_mis.in_mis)
            assert _ledger(want_mis.report) == _ledger(got_mis.report)

    def test_process_backend_bit_identical(self):
        # Zero-copy handoff: the worker re-maps the CSR files read-only
        # instead of receiving copies; results and ledgers must still be
        # bit-identical to the serial in-memory run.
        graph = generators.erdos_renyi_gnm(120, 240, rng=9)
        with tempfile.TemporaryDirectory() as tmp:
            mapped = self._mapped(graph, tmp)
            serial = repro.connectivity(graph, seed=4)
            with use_runtime(partial(AMPCRuntime, backend="process",
                                     n_workers=2)):
                process = repro.connectivity(mapped, seed=4)
            assert np.array_equal(serial.labels, process.labels)
            assert _ledger(serial.report) == _ledger(process.report)
