"""PRAM simulation on AMPC (paper §2).

"Due to known simulations of PRAM algorithms by MPC [27, 24], the AMPC
model can also simulate existing PRAM algorithms from the EREW, CREW
[and CRCW] variants ... using O(1) rounds per PRAM step, and total space
proportional to the number of processors."

This module gives that simulation concretely: shared memory lives in the
DDS, each PRAM step is **one** AMPC round in which every processor reads
the cells its program asks for (concurrent reads are free in the DDS, so
CREW is natural) and emits writes for the next step's memory. Write
conflicts resolve by minimum value (common-CRCW style, deterministic);
EREW/CREW programs never trigger it.

Addresses are int64 ids and every cell holds one DDS word (an int, a
float or a flat tuple of them), so a cell is the DDS pair
``("mem", address)``. Memory is carried forward between steps by
rewriting the touched cells —
the simulator keeps the full memory dict driver-side and republished
cells are charged as the round's setup writes, matching the MPC→AMPC
simulation's cost structure.
"""

from __future__ import annotations

from typing import Any, Callable

from .config import AMPCConfig
from .runtime import AMPCRuntime

# A processor program: (proc_id, read) -> iterable of (address, value)
# writes. `read(address)` performs an adaptive DDS read of shared memory.
ProcessorProgram = Callable[[int, Callable[[int], Any]], Any]


class PRAMSimulator:
    """CREW/common-CRCW PRAM on top of an AMPC runtime.

    Args:
        n_processors: PRAM width.
        memory: initial shared memory, int64 address -> word.
        config: AMPC deployment (defaults to one sized for n_processors).
    """

    def __init__(
        self,
        n_processors: int,
        memory: dict[int, Any] | None = None,
        config: AMPCConfig | None = None,
    ) -> None:
        if n_processors < 1:
            raise ValueError("need at least one processor")
        self.n_processors = n_processors
        self.memory: dict[int, Any] = dict(memory or {})
        self.config = config or AMPCConfig.for_input(
            max(n_processors, 16), seed=0
        )
        self.runtime = AMPCRuntime(self.config)
        self.steps = 0

    def step(self, program: ProcessorProgram, *, tag: str | None = None) -> None:
        """Execute one PRAM step as one AMPC round.

        Every processor runs ``program(proc_id, read)``; its returned
        (address, value) pairs are applied to shared memory for the next
        step. Conflicting writes to one address keep the minimum value.
        """
        self.steps += 1
        label = tag or f"pram-step:{self.steps}"

        def setup():
            for address, value in self.memory.items():
                yield ("mem", address), value

        def worker(ctx, proc_id: int):
            def read(address: int) -> Any:
                return ctx.read(("mem", address))

            writes = program(proc_id, read)
            out = []
            for address, value in writes or ():
                ctx.write(("out", proc_id, address), value)
                out.append((address, value))
            return len(out)

        result = self.runtime.round(
            list(range(self.n_processors)), worker, setup=setup(), tag=label
        )
        pending: dict[int, Any] = {}
        for key, value in result.store.items():
            if key[0] == "out":
                address = key[2]
                if address in pending:
                    pending[address] = min(pending[address], value)
                else:
                    pending[address] = value
        self.memory.update(pending)

    @property
    def rounds_used(self) -> int:
        """AMPC rounds consumed — exactly one per PRAM step."""
        return self.runtime.report.n_rounds
