"""Fully-simulated message-level MPC list ranking.

The other baselines execute vectorized and *charge* their MPC round costs;
this module runs Wyllie's pointer jumping through the real
:class:`~repro.core.runtime.MPCRuntime` message machinery — every pointer
dereference is an actual request/response message pair between the owning
machines, and the runtime's :class:`~repro.core.errors.AdaptivityError`
guard proves no adaptive read sneaks in. It exists to validate the charged
baselines' round accounting (tests assert both give identical ranks and
round counts) and to document what an honest MPC execution looks like;
use :func:`repro.baselines.pointer_doubling.mpc_list_ranking` for speed.

Machines are stateless between rounds in the simulator, so each machine
re-sends its own elements' state to itself every round — the standard
self-message formalization of persistent local state in MPC. A message is
one DDS word row, ``(tag, v, ptr, dist)``, with an int tag.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import AMPCConfig
from repro.core.machine import MPCMachineContext
from repro.core.partition import machine_of
from repro.core.runtime import MPCRuntime

from .pointer_doubling import MPCListRankingResult

_REQ, _STATE, _ANS = range(3)  # message tags


def mpc_list_ranking_simulated(
    succ: np.ndarray,
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    config: AMPCConfig | None = None,
) -> MPCListRankingResult:
    """Wyllie's algorithm as real message rounds. O(n) elements, so keep n
    small (tests use a few hundred); Θ(log n) iterations × 2 rounds."""
    n = int(succ.size)
    if config is None:
        config = AMPCConfig.for_input(max(n, 1), epsilon=epsilon, seed=seed)
    runtime = MPCRuntime(config)
    if n == 0:
        return MPCListRankingResult(
            ranks=np.zeros(0, np.int64), iterations=0,
            report=runtime.report, config=config,
        )
    p = config.n_machines
    owner = {v: machine_of(v, p, config.seed) for v in range(n)}
    tail = int(np.flatnonzero(succ < 0)[0])

    # Initial state: element v -> (ptr, dist); tail points at itself.
    state: dict[int, tuple[int, int]] = {
        v: (int(succ[v]) if succ[v] >= 0 else v,
            1 if succ[v] >= 0 else 0)
        for v in range(n)
    }

    iterations = int(math.ceil(math.log2(max(n, 2))))
    for i in range(iterations):
        # Round A: each owner asks the owner of ptr(v) for ptr(v)'s state.
        requests = [
            (owner[ptr], (_REQ, v, ptr, 0))
            for v, (ptr, _dist) in state.items()
        ]
        holdings = [
            (owner[v], (_STATE, v, ptr, dist))
            for v, (ptr, dist) in state.items()
        ]

        def respond(ctx: MPCMachineContext):
            inbox = ctx.inbox()
            local = {
                msg[1]: (msg[2], msg[3]) for msg in inbox if msg[0] == _STATE
            }
            for tag, v, ptr, _ in inbox:
                if tag == _REQ:
                    ptr2, dist2 = local[ptr]
                    ctx.send(owner[v], (_ANS, v, ptr2, dist2))

        runtime.message_round(
            respond, messages=requests + holdings, tag=f"mpc-req:{i}"
        )

        # Round B: owners fold the answers into their elements' states.
        answers: dict[int, tuple[int, int]] = {}

        def collect(ctx: MPCMachineContext):
            for msg in ctx.inbox():
                if msg[0] == _ANS:
                    answers[msg[1]] = (msg[2], msg[3])

        runtime.message_round(collect, tag=f"mpc-fold:{i}")
        state = {
            v: (answers[v][0], dist + answers[v][1])
            for v, (ptr, dist) in state.items()
        }

    ranks = np.empty(n, dtype=np.int64)
    for v, (ptr, dist) in state.items():
        if ptr != tail:
            raise ValueError("input was not a single linked list")
        ranks[v] = (n - 1) - dist
    return MPCListRankingResult(
        ranks=ranks,
        iterations=iterations,
        report=runtime.report,
        config=config,
    )
