"""Exception types for the AMPC/MPC simulation core.

All model-constraint violations raise subclasses of :class:`AMPCError` so
callers can distinguish "the algorithm broke the model" from ordinary Python
errors. In non-strict mode the runtime records violations in the round
statistics instead of raising; see :class:`repro.core.config.AMPCConfig`.
"""

from __future__ import annotations


class AMPCError(Exception):
    """Base class for all simulation-model errors."""


class BudgetExceededError(AMPCError):
    """A machine exceeded its per-round read or write budget.

    The AMPC model allows each machine O(S) queries and O(S) writes per
    round (paper §2). The configured budget is ``space * budget_multiplier``.
    """

    def __init__(self, machine_id: int, kind: str, used: int, budget: int):
        self.machine_id = machine_id
        self.kind = kind
        self.used = used
        self.budget = budget
        super().__init__(
            f"machine {machine_id} exceeded {kind} budget: "
            f"used {used} > budget {budget}"
        )


class StoreSealedError(AMPCError):
    """Attempt to write to a data store that has been sealed.

    The DDS for round i-1 is immutable during round i (paper §2, "Disallowing
    writes"); this error signals a write to an already-sealed store.
    """


class StoreNotSealedError(AMPCError):
    """Attempt to read from a data store that is still being written.

    Machines in round i may only read from D_{i-1}, which is sealed before
    round i begins. Reading an unsealed store would allow intra-round
    communication, which the model forbids.
    """


class ValueSizeError(AMPCError):
    """A key or value exceeds the constant-size bound of the model.

    The paper requires each key-value pair to have constant size (a constant
    number of machine words). The bound is configurable via
    ``AMPCConfig.max_words``.
    """


class RoundProtocolError(AMPCError):
    """The driver violated the round protocol.

    Examples: starting a round before the previous round's store was sealed,
    or reading coordinator state mid-round.
    """


class AdaptivityError(AMPCError):
    """An MPC-runtime machine attempted an adaptive (arbitrary-key) read.

    In the MPC model a machine may only receive messages addressed to it;
    arbitrary-key random reads are the capability that distinguishes AMPC
    from MPC. The MPC runtime raises this error to keep baselines honest.
    """


class MachineCrash(AMPCError):
    """Injected machine failure (not a model violation — a simulated
    hardware fault).

    Raised from inside a machine program by the fault-injecting runtimes;
    the framework discards the attempt's journaled writes and reruns the
    work from scratch against the immutable round store (§2.1).
    """

    def __init__(self, machine_id: int, after_reads: int):
        self.machine_id = machine_id
        self.after_reads = after_reads
        super().__init__(
            f"machine {machine_id} crashed after {after_reads} reads"
        )


class ServerUnavailableError(AMPCError):
    """Every replica of a key's DDS servers is down.

    Raised by :class:`repro.core.dds.ReplicatedDataStore` when a read
    cannot be served by the primary or any backup replica. A chaos-aware
    runtime treats this as a whole-round failure and recovers via
    checkpoint/restore; reaching a plain runtime it is fatal.
    """

    def __init__(self, key, servers):
        self.key = key
        self.servers = tuple(servers)
        super().__init__(
            f"all {len(self.servers)} replica server(s) {self.servers} "
            f"for key {key!r} are down"
        )


class RoundAbortedError(AMPCError):
    """A round could not complete and must be re-executed from checkpoint.

    Causes: a read exhausted its retry budget or per-round deadline, or
    more DDS servers failed than the replication factor covers. The
    driver-level recovery path (``AMPCRuntime.checkpoint``/``restore``)
    rolls the run back to the last sealed store and replays the round.
    """
