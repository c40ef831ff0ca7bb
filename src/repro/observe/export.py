"""Trace export: JSONL, Chrome ``trace_event``, schema validation,
and ledger reconciliation.

Two interchange formats are produced from the same :class:`Event` list:

**JSONL** (one JSON object per line; the documented schema, see
``docs/observability.md``)::

    {"type":"meta","name":"trace","cat":"meta","attrs":{"schema":1,...}}
    {"type":"span","name":"connectivity #3","cat":"round","ts_us":12.5,
     "dur_us":830.2,"tid":0,"attrs":{"reads":96,"writes":64,...}}
    {"type":"instant","name":"charge:sort","cat":"charge","ts_us":900.1,
     "tid":0,"attrs":{"reads":0,"writes":128,"rounds":2,...}}

Required keys by type — ``meta``: type,name,cat,attrs; ``instant``: +
ts_us,tid; ``span``: + dur_us. ``attrs`` is always a JSON object.

**Chrome trace_event** (the JSON Array-of-objects flavour understood by
chrome://tracing and https://ui.perfetto.dev): spans become ``"X"``
complete events, instants ``"i"`` events, and one ``"M"`` metadata
record names each timeline (tid 0 = "driver", tid m+1 = "machine m").
Timestamps are microseconds in both formats.

:func:`reconcile_with_report` closes the loop with the cost ledger: the
read/write/round totals recoverable from a trace must be bit-identical
to the :class:`~repro.core.cost.RunReport` of the traced run (rounds
aborted by chaos recovery carry ``aborted: true`` and are excluded,
matching the ledger's truncation).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .tracer import Event

#: Version of the JSONL record schema documented in docs/observability.md.
SCHEMA_VERSION = 1

#: Categories whose events carry ledger attributes (reads/writes/rounds).
LEDGER_CATS = ("round", "charge", "bootstrap")

_VALID_TYPES = ("meta", "span", "instant")


# ---------------------------------------------------------------------------
# record / JSONL export
# ---------------------------------------------------------------------------


def to_records(events: Iterable[Event],
               meta: dict[str, Any] | None = None) -> list[dict[str, Any]]:
    """Events as schema-conforming dicts, prefixed with a meta record."""
    header: dict[str, Any] = {
        "type": "meta",
        "name": "trace",
        "cat": "meta",
        "attrs": {"schema": SCHEMA_VERSION, "clock": "perf_counter",
                  "time_unit": "us", **(meta or {})},
    }
    return [header] + [event.to_record() for event in events]


def to_jsonl(events: Iterable[Event],
             meta: dict[str, Any] | None = None) -> str:
    """The trace as JSON-Lines text (trailing newline included)."""
    records = to_records(events, meta)
    return "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n"


def write_jsonl(events: Iterable[Event], path: str,
                meta: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(events, meta))


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into records."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------


def to_chrome_trace(events: Iterable[Event], *,
                    process_name: str = "repro-ampc") -> dict[str, Any]:
    """The trace as a Chrome/Perfetto ``trace_event`` JSON object."""
    trace_events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    tids: set[int] = set()
    for event in events:
        if event.type == "meta":
            continue
        tids.add(event.tid)
        record: dict[str, Any] = {
            "name": event.name,
            "cat": event.cat,
            "pid": 0,
            "tid": event.tid,
            "ts": round(event.ts_us, 3),
            "args": event.attrs,
        }
        if event.type == "span":
            record["ph"] = "X"
            record["dur"] = round(event.dur_us or 0.0, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    for tid in sorted(tids):
        name = "driver" if tid == 0 else f"machine {tid - 1}"
        trace_events.append(
            {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
             "args": {"name": name}}
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[Event], path: str, *,
                       process_name: str = "repro-ampc") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(events, process_name=process_name), fh)


# ---------------------------------------------------------------------------
# validation (hand-rolled: the toolchain has no jsonschema dependency)
# ---------------------------------------------------------------------------


def validate_records(records: Iterable[dict[str, Any]]) -> list[str]:
    """Check JSONL records against the documented schema.

    Returns a list of human-readable problems (empty = valid).
    """
    problems: list[str] = []
    for i, record in enumerate(records):
        where = f"record {i}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        rtype = record.get("type")
        if rtype not in _VALID_TYPES:
            problems.append(f"{where}: bad type {rtype!r}")
            continue
        for key, kinds in (("name", str), ("cat", str), ("attrs", dict)):
            if not isinstance(record.get(key), kinds):
                problems.append(f"{where} ({rtype}): missing/invalid {key!r}")
        if rtype == "meta":
            continue
        for key in ("ts_us", "tid"):
            if not isinstance(record.get(key), (int, float)):
                problems.append(f"{where} ({rtype}): missing/invalid {key!r}")
        if isinstance(record.get("ts_us"), (int, float)) and record["ts_us"] < 0:
            problems.append(f"{where}: negative ts_us")
        if rtype == "span":
            dur = record.get("dur_us")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where} (span): missing/invalid 'dur_us'")
            elif dur < 0:
                problems.append(f"{where}: negative dur_us")
        elif "dur_us" in record:
            problems.append(f"{where} ({rtype}): unexpected 'dur_us'")
    return problems


def validate_chrome(doc: dict[str, Any]) -> list[str]:
    """Check a Chrome trace object for trace_event conformance."""
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        return ["not an object with a 'traceEvents' array"]
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing/invalid 'name'")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: missing/invalid {key!r}")
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            problems.append(f"{where}: missing/invalid 'ts'")
        if ph == "X" and (
            not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0
        ):
            problems.append(f"{where}: missing/invalid 'dur'")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant missing scope 's'")
    return problems


# ---------------------------------------------------------------------------
# ledger reconciliation
# ---------------------------------------------------------------------------


def trace_totals(events: Iterable[Event | dict[str, Any]]) -> dict[str, int]:
    """Ledger totals recoverable from a trace (aborted spans excluded)."""
    reads = writes = rounds = 0
    for event in events:
        if isinstance(event, Event):
            cat, attrs = event.cat, event.attrs
        else:
            cat, attrs = event.get("cat"), event.get("attrs", {})
        if cat not in LEDGER_CATS or attrs.get("aborted"):
            continue
        reads += attrs.get("reads", 0)
        writes += attrs.get("writes", 0)
        rounds += attrs.get("rounds", 0)
    return {"reads": reads, "writes": writes, "rounds": rounds}


def reconcile_with_report(events: Iterable[Event | dict[str, Any]],
                          report: Any) -> list[str]:
    """Mismatches between trace totals and a :class:`RunReport` ledger.

    Empty list = the trace accounts for exactly the ledger's reads,
    writes, and rounds (the acceptance bar: bit-identical totals).
    """
    totals = trace_totals(events)
    expected = {
        "reads": report.total_reads,
        "writes": report.total_writes,
        "rounds": report.n_rounds,
    }
    return [
        f"trace {key}={totals[key]} != ledger {key}={expected[key]}"
        for key in ("reads", "writes", "rounds")
        if totals[key] != expected[key]
    ]


def reconcile_metrics(snapshot: dict[str, Any], report: Any) -> list[str]:
    """Mismatches between a metrics snapshot and a ledger."""
    counters = snapshot.get("counters", {})
    expected = {
        "model.reads": report.total_reads,
        "model.writes": report.total_writes,
        "model.rounds": report.n_rounds,
    }
    return [
        f"metrics {name}={counters.get(name)} != ledger {value}"
        for name, value in expected.items()
        if counters.get(name) != value
    ]
