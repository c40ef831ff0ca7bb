"""Tests for the edge-list file format and the CLI."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.graph import files, generators
from repro.graph.graph import WeightedGraph


class TestEdgeListFormat:
    def test_roundtrip_unweighted(self, tmp_path):
        g = generators.erdos_renyi_gnm(40, 90, rng=1)
        path = tmp_path / "g.txt"
        files.write_edge_list(g, path)
        g2 = files.read_edge_list(path)
        assert g == g2

    def test_roundtrip_weighted(self, tmp_path):
        g = generators.with_random_weights(
            generators.erdos_renyi_gnm(30, 70, rng=2), rng=2
        )
        path = tmp_path / "g.txt"
        files.write_edge_list(g, path)
        g2 = files.read_weighted_edge_list(path)
        assert np.array_equal(g.edge_list(), g2.edge_list())
        assert np.allclose(g.edge_weights(), g2.edge_weights())

    def test_comments_and_blanks_ignored(self):
        g = files.loads("# a comment\n\n0 1\n# another\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_nodes_header_pins_vertex_count(self):
        g = files.loads("# nodes: 10\n0 1\n")
        assert g.n == 10

    def test_nodes_header_too_small_rejected(self):
        with pytest.raises(ValueError):
            files.loads("# nodes: 2\n0 5\n")

    def test_isolated_vertices_preserved_by_header(self, tmp_path):
        g = generators.random_forest(10, 10, rng=1)  # all isolated
        path = tmp_path / "iso.txt"
        files.write_edge_list(g, path)
        assert files.read_edge_list(path).n == 10

    def test_weighted_read_requires_weight_column(self):
        with pytest.raises(ValueError, match="weight column"):
            files.loads_weighted("0 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            files.loads("0\n")

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            files.loads("0 -1\n")

    def test_unweighted_read_ignores_weights(self):
        g = files.loads("0 1 5.5\n1 2 2.5\n")
        assert g.m == 2

    def test_stringio_targets(self):
        g = generators.cycle(5)
        buf = io.StringIO()
        files.write_edge_list(g, buf)
        g2 = files.read_edge_list(io.StringIO(buf.getvalue()))
        assert g == g2


class TestCLI:
    def graph_file(self, tmp_path, weighted=False):
        g = generators.erdos_renyi_gnm(60, 150, rng=3)
        if weighted:
            g = generators.with_random_weights(g, rng=3)
        path = tmp_path / "g.txt"
        files.write_edge_list(g, path)
        return str(path)

    def test_connectivity_command(self, tmp_path, capsys):
        rc = main(["connectivity", self.graph_file(tmp_path), "--no-ledger"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "components:" in out

    def test_mis_command(self, tmp_path, capsys):
        rc = main(["mis", self.graph_file(tmp_path), "--no-ledger"])
        assert rc == 0
        assert "|MIS|" in capsys.readouterr().out

    def test_msf_command_needs_weighted(self, tmp_path, capsys):
        rc = main(["msf", self.graph_file(tmp_path, weighted=True),
                   "--no-ledger"])
        assert rc == 0
        assert "MSF:" in capsys.readouterr().out

    def test_two_cycle_command(self, tmp_path, capsys):
        g, truth = generators.two_cycle_instance(64, True, rng=1)
        path = tmp_path / "tc.txt"
        files.write_edge_list(g, path)
        rc = main(["two-cycle", str(path), "--no-ledger"])
        assert rc == 0
        assert "two cycles" in capsys.readouterr().out

    def test_bc_command(self, tmp_path, capsys):
        rc = main(["bc", self.graph_file(tmp_path), "--no-ledger"])
        assert rc == 0
        assert "bridges:" in capsys.readouterr().out

    def test_coloring_and_matching_commands(self, tmp_path, capsys):
        path = self.graph_file(tmp_path)
        assert main(["coloring", path, "--no-ledger"]) == 0
        assert main(["matching", path, "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "colors used:" in out and "|matching|" in out

    def test_ledger_printed_by_default(self, tmp_path, capsys):
        rc = main(["mis", self.graph_file(tmp_path)])
        assert rc == 0
        assert "total rounds=" in capsys.readouterr().out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        rc = main(["generate", "er", "50", "100", str(out), "--seed", "7"])
        assert rc == 0
        g = files.read_edge_list(out)
        assert g.n == 50 and g.m == 100

    def test_generate_weighted(self, tmp_path):
        out = tmp_path / "genw.txt"
        assert main(["generate", "grid", "4", "5", str(out),
                     "--weighted"]) == 0
        wg = files.read_weighted_edge_list(out)
        assert isinstance(wg, WeightedGraph)
        assert wg.weights_distinct()

    @pytest.mark.parametrize("case", [
        "connectivity", "mis", "matching", "coloring", "edge-coloring",
        "msf", "affinity", "biconnectivity",
    ])
    def test_chaos_command_runs_any_graph_case(self, case, tmp_path, capsys):
        weighted = case in ("msf", "affinity")
        rc = main(["chaos", case, self.graph_file(tmp_path, weighted),
                   "--crash", "0.3", "--outage", "0.1", "--no-ledger"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-identical to fault-free run: True" in out

    def test_epsilon_flag_propagates(self, tmp_path, capsys):
        path = self.graph_file(tmp_path)
        assert main(["mis", path, "--epsilon", "0.7", "--no-ledger"]) == 0


class TestCLIUserErrors:
    """Bad command-line input exits 2 with one ``repro <command>: …``
    line on stderr, never a traceback."""

    @staticmethod
    def graph_file(tmp_path):
        path = tmp_path / "g.txt"
        files.write_edge_list(generators.erdos_renyi_gnm(30, 60, rng=1), path)
        return str(path)

    @staticmethod
    def assert_usage_error(argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"repro {argv[0]}: "), err
        assert needle in lines[0]

    def test_generate_missing_parameter(self, tmp_path, capsys):
        self.assert_usage_error(
            ["generate", "er", "10", str(tmp_path / "out.txt")], capsys,
            "er")

    def test_serve_non_integer_key(self, tmp_path, capsys):
        self.assert_usage_error(
            ["serve", self.graph_file(tmp_path), "--query", "mis_member:abc"],
            capsys, "mis_member:abc")

    def test_serve_unknown_kind(self, tmp_path, capsys):
        self.assert_usage_error(
            ["serve", self.graph_file(tmp_path), "--query", "bogus:1"],
            capsys, "bogus")

    def test_serve_key_out_of_range(self, tmp_path, capsys):
        self.assert_usage_error(
            ["serve", self.graph_file(tmp_path), "--query", "mis_member:999"],
            capsys, "999")

    def test_loadgen_unknown_workload(self, capsys):
        self.assert_usage_error(
            ["loadgen", "--size", "30", "--workloads", "nope"], capsys,
            "nope")

    def test_chaos_rate_out_of_range(self, tmp_path, capsys):
        self.assert_usage_error(
            ["chaos", "connectivity", self.graph_file(tmp_path),
             "--crash", "1.0"], capsys, "machine_crash_probability")

    def test_missing_graph_file(self, tmp_path, capsys):
        self.assert_usage_error(
            ["mis", str(tmp_path / "MISSING.txt")], capsys, "MISSING.txt")

    def test_error_inside_a_solve_keeps_its_traceback(
            self, tmp_path, monkeypatch):
        import repro

        def broken(*args, **kwargs):
            raise ValueError("solver bug")

        monkeypatch.setattr(repro, "maximal_independent_set", broken)
        with pytest.raises(ValueError, match="solver bug"):
            main(["mis", self.graph_file(tmp_path)])
