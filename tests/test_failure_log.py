"""The conftest hook that names every failed tier-1 test phase."""

from __future__ import annotations

import json
from types import SimpleNamespace

import conftest

HYPOTHESIS_REPORT = """\
    def test_x(a, b):
>       assert a < 5
E       assert 5 < 5
E       Falsifying example: test_x(
E           a=5,
E           b=0,  # or any other generated value
E       )
E       You can reproduce this example by temporarily adding \
@reproduce_failure('6.155.2', b'AXicY2BgYAQAAA0ABA==') as a decorator

test_h.py:4: AssertionError"""


def test_hypothesis_lines_keep_the_example_and_the_reproduce_line():
    assert conftest.hypothesis_lines(HYPOTHESIS_REPORT) == [
        "Falsifying example: test_x(",
        "a=5,",
        "b=0,  # or any other generated value",
        ")",
        "You can reproduce this example by temporarily adding "
        "@reproduce_failure('6.155.2', b'AXicY2BgYAQAAA0ABA==') as a "
        "decorator",
    ]
    assert conftest.hypothesis_lines("E   assert 1 == 2") == []


def test_a_failed_phase_appends_one_line(tmp_path, monkeypatch):
    log = tmp_path / "failures.jsonl"
    monkeypatch.setattr(conftest, "FAILURE_LOG", log)

    def report(failed, when):
        return SimpleNamespace(failed=failed, when=when, nodeid="t.py::x",
                               longreprtext=HYPOTHESIS_REPORT)

    conftest.pytest_runtest_logreport(report(False, "call"))
    assert not log.exists()
    conftest.pytest_runtest_logreport(report(True, "call"))
    conftest.pytest_runtest_logreport(report(True, "teardown"))
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["nodeid"], r["phase"]) for r in rows] == [
        ("t.py::x", "call"), ("t.py::x", "teardown")]
    assert rows[0]["hypothesis"][0] == "Falsifying example: test_x("
