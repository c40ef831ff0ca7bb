"""Fault schedules of the chaos layer, frozen.

``tests/data/fault_schedules.json`` holds, per fault plan, every draw a
plan makes: the process-fault directive of each shard dispatch
(``directive_for`` over 8 rounds x 8 tasks), the fork-failure dice of a
small respawn grid (``fork_fails``) and the DDS servers down per round
execution (``draw_server_outages`` over 8 rounds x 3 attempts, 16
servers). For the sweep's default plan and a crash + outage plan it also
holds connectivity and MIS on ER(200, 600) under a chaos runtime: a hash
of the result, a digest of the ledger rows (index and recovery fields
excluded) and ``recovery_summary()`` without its wall-time field.

Fault schedules are the chaos layer's contract with every recorded
run: a change to how a plan draws must move this file on purpose, not
by accident. Only the plan-building table below depends on the plan
API; the draws and the runs are read through it.

Written by ``PYTHONPATH=src python3 tests/test_fault_schedules.py`` at
the commit recorded in the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, chaos_plan
from repro.core import AMPCConfig
from repro.core.chaos import ChaosRuntime, FaultPlan
from repro.graph import generators
from repro.verify.runner import default_fault_plan, default_process_fault_plan

DATA = Path(__file__).parent / "data" / "fault_schedules.json"

CHAOS_ARGV = [
    "chaos", "connectivity", "G", "--crash", "0.2", "--outage", "0.1",
    "--kill-worker", "0.1", "--hang-worker", "0.05", "--delay-reply", "0.1",
    "--fork-fail", "0.1",
]


# -- the plan-building table (the only part that depends on the plan API) --

def _one(plan: FaultPlan) -> tuple[FaultPlan, FaultPlan]:
    """One plan draws every fault, simulated and process alike."""
    return plan, plan


def _cli_chaos_plan() -> tuple[FaultPlan, FaultPlan]:
    """The plan ``repro chaos`` builds from :data:`CHAOS_ARGV`."""
    return _one(chaos_plan(build_parser().parse_args(CHAOS_ARGV)))


#: name -> ``(plan that draws outages, plan that draws process faults)``.
PLANS = {
    "machine_crashes": lambda: _one(FaultPlan.machine_crashes(0.3, seed=3)),
    "server_outages": lambda: _one(FaultPlan.server_outages(0.3, seed=3)),
    "read_timeouts": lambda: _one(FaultPlan.read_timeouts(0.3, seed=3)),
    "stragglers": lambda: _one(FaultPlan.stragglers(0.3, seed=3)),
    "kills": lambda: _one(FaultPlan.kills(0.3, seed=3)),
    "hangs": lambda: _one(FaultPlan.hangs(0.3, seed=3)),
    "delays": lambda: _one(FaultPlan.delays(0.3, delay_s=0.01, seed=3)),
    "fork_failures": lambda: _one(FaultPlan.fork_failures(0.3, seed=3)),
    "default_fault_plan": lambda: _one(default_fault_plan(1)),
    "default_process_fault_plan": lambda: _one(default_process_fault_plan(3)),
    "combined": lambda: _one(
        (FaultPlan.machine_crashes(0.2)
         | FaultPlan.server_outages(0.1)).with_seed(7)),
    "cli_chaos": _cli_chaos_plan,
}

# -- draws and runs --------------------------------------------------------

#: Plans the connectivity and MIS runs are armed with.
RUN_PLANS = ("default_fault_plan", "combined")
ALGORITHMS = {
    "connectivity": (repro.connectivity, ("labels",)),
    "mis": (repro.maximal_independent_set, ("in_mis", "pi")),
}


def draws(name: str) -> dict:
    outage_plan, process_plan = PLANS[name]()
    return {
        "directives": [
            [process_plan.directive_for(r, t) for t in range(8)]
            for r in range(8)
        ],
        "fork_fails": [
            process_plan.fork_fails(r, w, seq, attempt)
            for r in range(4) for w in range(4)
            for seq in range(2) for attempt in range(2)
        ],
        "outages": [
            sorted(outage_plan.draw_server_outages(r, a, 16))
            for r in range(8) for a in range(3)
        ],
    }


def run(algorithm: str, plan_name: str) -> dict:
    fn, fields = ALGORITHMS[algorithm]
    graph = generators.erdos_renyi_gnm(200, 600, rng=4)
    config = AMPCConfig.for_input(
        graph.n + graph.m, seed=0, replication_factor=2
    )
    plan, _ = PLANS[plan_name]()
    result = fn(graph, runtime=ChaosRuntime(config, plan=plan))
    h = hashlib.sha256()
    for field in fields:
        a = np.ascontiguousarray(getattr(result, field))
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    rows = result.report.to_dict()["rounds"]
    for row in rows:
        row.pop("recovery", None)
        row.pop("index", None)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    summary = result.report.recovery_summary()
    summary.pop("recovery_wall_s")
    return {
        "result": h.hexdigest(),
        "ledger": hashlib.sha256(blob.encode()).hexdigest(),
        "recovery": summary,
    }


def _jsonable(value):
    return json.loads(json.dumps(value))


def test_frozen_file_covers_every_plan():
    frozen = json.loads(DATA.read_text())
    assert set(frozen["draws"]) == set(PLANS)
    assert set(frozen["runs"]) == {
        f"{a}/{p}" for a in ALGORITHMS for p in RUN_PLANS
    }


@pytest.mark.parametrize("name", list(PLANS))
def test_plan_draws_reproduce_frozen_schedule(name):
    frozen = json.loads(DATA.read_text())["draws"][name]
    assert _jsonable(draws(name)) == frozen


@pytest.mark.parametrize("plan_name", RUN_PLANS)
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_chaos_run_reproduces_frozen_recovery(algorithm, plan_name):
    frozen = json.loads(DATA.read_text())["runs"][f"{algorithm}/{plan_name}"]
    assert _jsonable(run(algorithm, plan_name)) == frozen


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_jsonable({
        "commit": commit,
        "command": "PYTHONPATH=src python3 tests/test_fault_schedules.py",
        "draws": {name: draws(name) for name in PLANS},
        "runs": {
            f"{a}/{p}": run(a, p) for a in ALGORITHMS for p in RUN_PLANS
        },
    }), indent=1) + "\n")
    print(f"wrote {len(PLANS)} plans at {commit} to {DATA}")
