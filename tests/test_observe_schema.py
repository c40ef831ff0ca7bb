"""End-to-end trace-schema conformance: one algorithm per family.

Runs list ranking (pointer structures), connectivity (general graphs),
and MIS (local algorithms) inside a :class:`TracingSession`; the
exported JSONL and Chrome ``trace_event`` documents must validate
against the documented schema and agree with the RunReport ledger.
The ``repro trace`` CLI is exercised the same way.
"""

import json

import pytest

import repro
from repro.cli import main
from repro.observe import (
    SCHEMA_VERSION,
    TracingSession,
    read_jsonl,
    reconcile_metrics,
    reconcile_with_report,
    to_chrome_trace,
    to_records,
    trace_totals,
    validate_chrome,
    validate_records,
    write_jsonl,
)
from repro.verify.oracles import CASES
from repro.verify.runner import make_workload

# (case, family, vectorized) — one algorithm per input family; the "vec"
# cells call the entry point the way bench/workloads.py does, with the
# (no-op) ``vectorized=True`` keyword.
_ENTRY_POINTS = {
    "list-ranking": repro.list_ranking,
    "connectivity": repro.connectivity,
}
CELLS = [
    ("list-ranking", "list-uniform", False),
    ("list-ranking", "list-uniform", True),
    ("connectivity", "er", False),
    ("connectivity", "er", True),
    ("mis", "er", False),
]


def _traced_cell(name, family, vectorized, n=120, seed=0, **session_kw):
    case = CASES[name]
    workload = make_workload(case, family, n, seed)
    run = case.run
    if vectorized:
        def run(w, seed):
            return _ENTRY_POINTS[name](w.payload, seed=seed, vectorized=True)
    with TracingSession(**session_kw) as session:
        result = run(workload, seed)
    return case.report_of(result), session


@pytest.mark.parametrize("name,family,vectorized", CELLS,
                         ids=[f"{n}-{'vec' if v else 'scalar'}"
                              for n, _, v in CELLS])
class TestSchemaConformance:
    def test_jsonl_schema_and_ledger_agreement(self, name, family,
                                               vectorized):
        report, session = _traced_cell(name, family, vectorized)
        records = to_records(session.events)
        assert validate_records(records) == []
        assert records[0]["type"] == "meta"
        assert records[0]["attrs"]["schema"] == SCHEMA_VERSION
        assert reconcile_with_report(session.events, report) == []
        assert reconcile_metrics(session.snapshot, report) == []

    def test_chrome_trace_validates(self, name, family, vectorized):
        report, session = _traced_cell(name, family, vectorized)
        doc = to_chrome_trace(session.events)
        assert validate_chrome(doc) == []
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "process_name" in names  # metadata record
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)


class TestJsonlRoundtrip:
    def test_written_file_reparses_and_reconciles(self, tmp_path):
        report, session = _traced_cell("connectivity", "er", False)
        path = tmp_path / "trace.jsonl"
        write_jsonl(session.events, path)
        records = read_jsonl(path)
        assert validate_records(records) == []
        # Totals are recoverable from the serialized records alone.
        assert (trace_totals(records[1:])
                == trace_totals(session.events))
        assert reconcile_with_report(records[1:], report) == []


class TestTraceCli:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "trace", "connectivity", "--size", "120",
            "--chrome", str(chrome), "--jsonl", str(jsonl),
            "--metrics", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger == trace == metrics: True" in out
        doc = json.loads(chrome.read_text())
        assert validate_chrome(doc) == []
        assert validate_records(read_jsonl(jsonl)) == []
        snapshot = json.loads(metrics.read_text())
        assert "model.reads" in snapshot["counters"]

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "not-an-algorithm",
                   "--chrome", str(tmp_path / "t.json")])
        assert rc == 2

    def test_generated_kind_rejects_graph_file(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        rc = main(["trace", "two-cycle", str(graph)])
        assert rc == 2
