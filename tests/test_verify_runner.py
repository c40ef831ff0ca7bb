"""The `repro verify` conformance sweep, run in CI smoke mode.

One module-scoped smoke sweep (every registered algorithm × its generator
families × 2 seeds, with chaos replays armed) backs several assertions:
zero invariant violations, all oracles agreeing, determinism everywhere,
and a well-formed machine-readable JSON report. The CLI entry point is
exercised separately on a narrow slice to keep the suite fast.
"""

import json

import numpy as np
import pytest

from repro.algorithms import bc_labeling
from repro.cli import main as cli_main
from repro.core import AMPCRuntime, ChaosRuntime, use_runtime
from repro.graph import generators
from repro.verify import CASES, case_names, verify_sweep
from repro.verify.oracles import Workload
from repro.verify.runner import (
    FAMILIES,
    CellRecord,
    ConformanceReport,
    default_fault_plan,
    family_names,
    make_workload,
)

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def smoke_report():
    return verify_sweep(smoke=True, chaos=True)


class TestRegistry:
    def test_every_case_has_three_families(self):
        for name, case in CASES.items():
            assert len(case.families) >= 3, name
            for family in case.families:
                assert family in FAMILIES, (name, family)

    def test_family_kinds_are_compatible(self):
        for case in CASES.values():
            for family in case.families:
                workload = make_workload(case, family, n=12, seed=0)
                assert isinstance(workload, Workload)
                assert workload.kind == case.kind

    def test_cross_model_and_chaos_coverage(self, smoke_report):
        crossed = {n for n, c in CASES.items() if c.cross_model is not None}
        assert {"connectivity", "msf", "list-ranking", "two-cycle"} <= crossed
        # The smoke report has chaos cells for every case except the
        # exempt one, and a fault fired in some cell of each.
        exempt = {n for n, c in CASES.items() if c.chaos_exempt}
        assert exempt == {"affinity"}
        chaotic = {r.algorithm for r in smoke_report.records
                   if r.chaos_identical is not None}
        assert chaotic == set(CASES) - exempt
        assert smoke_report.summary()["unfaulted_cases"] == []


class TestSmokeSweep:
    def test_all_cells_conformant(self, smoke_report):
        assert smoke_report.ok, "\n" + smoke_report.format_failures()

    def test_covers_every_algorithm_with_two_seeds(self, smoke_report):
        summary = smoke_report.summary()
        assert set(summary["by_algorithm"]) == set(case_names())
        for name, case in CASES.items():
            cells = [r for r in smoke_report.records if r.algorithm == name]
            assert len(cells) == 2 * len(case.families)
            assert {r.seed for r in cells} == {0, 1}

    def test_no_violations_and_deterministic(self, smoke_report):
        summary = smoke_report.summary()
        assert summary["invariant_violations"] == 0
        assert summary["oracle_disagreements"] == 0
        assert summary["nondeterministic"] == 0
        assert all(r.deterministic for r in smoke_report.records)

    def test_chaos_replays_bit_identical(self, smoke_report):
        chaos_cells = [
            r for r in smoke_report.records if r.chaos_identical is not None
        ]
        assert chaos_cells, "no chaos-capable cells ran"
        assert all(r.chaos_identical for r in chaos_cells)

    def test_json_report_is_machine_readable(self, smoke_report):
        parsed = json.loads(smoke_report.to_json())
        assert parsed["summary"]["ok"] is True
        assert parsed["summary"]["cells"] == len(parsed["records"])
        record = parsed["records"][0]
        for field in ("algorithm", "family", "seed", "status", "rounds",
                      "deterministic", "invariant_violations"):
            assert field in record


class TestRuntimeFactory:
    def test_every_case_builds_its_runtimes_through_the_factory(self):
        """A solve that constructs ``AMPCRuntime(config)`` itself would
        escape every deployment (backend, workers, fault plan): each case
        must build at least one runtime through the factory."""
        for name, case in CASES.items():
            built = []

            def counting(config):
                built.append(config)
                return AMPCRuntime(config)

            workload = make_workload(case, case.families[0], n=12, seed=0)
            with use_runtime(counting):
                case.run(workload, 0)
            assert built, f"{name} built no runtime through the factory"

    def test_bc_labeling_is_armed_in_every_stage(self):
        graph = generators.erdos_renyi_gnm(60, 120, rng=2)
        clean = bc_labeling(graph, seed=0)
        armed = []

        def chaos(config):
            armed.append(ChaosRuntime(config.with_replication(2),
                                      plan=default_fault_plan(3)))
            return armed[-1]

        with use_runtime(chaos):
            faulted = bc_labeling(graph, seed=0)
        # MSF, the rooted forest's runtime and two connectivity runs.
        assert len(armed) == 4
        assert faulted.report.crashes > 0
        assert faulted.report.crashes == sum(rt.report.crashes
                                             for rt in armed)
        for field in ("bridges", "articulation_points", "two_edge_labels",
                      "labels"):
            assert np.array_equal(getattr(clean, field),
                                  getattr(faulted, field)), field

    def test_armed_cell_with_no_fault_fired_is_counted_apart(self):
        def cell(name, fired):
            return CellRecord(algorithm=name, family="er", seed=0, n=1,
                              m=0, faults_fired=fired)

        report = ConformanceReport(records=[
            cell("a", 0), cell("a", 0), cell("b", 0), cell("b", 3),
            cell("c", None),
        ], settings={})
        assert [r.no_fault_fired for r in report.records] == [
            True, True, True, False, False]
        summary = report.summary()
        assert summary["no_fault_fired"] == 3
        # Only a case none of whose armed cells was hit fails the smoke.
        assert summary["unfaulted_cases"] == ["a"]
        assert report.to_dict()["records"][3]["faults_fired"] == 3


class TestSelection:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            verify_sweep(algorithms=["no-such-algo"], smoke=True)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            verify_sweep(families=["no-such-family"], smoke=True)

    def test_family_filter_narrows_cells(self):
        report = verify_sweep(algorithms=["connectivity"], families=["er"],
                              seeds=[0], smoke=True)
        assert report.n_cells == 1
        assert report.records[0].family == "er"


class TestCLI:
    def test_verify_smoke_slice_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "verify", "--smoke", "--quiet",
            "-a", "connectivity", "-a", "list-ranking",
            "--seeds", "0",
            "--json", str(out),
        ])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["summary"]["ok"] is True
        assert "0 failed" in capsys.readouterr().out

    def test_verify_list(self, capsys):
        assert cli_main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in case_names():
            assert name in out
        for family in family_names():
            assert family in out
