"""``repro.serve`` — AMPC as a service: a resident query-serving engine.

The paper's §5 query process is *designed* for serving: LFMIS
membership is answered per vertex, adaptively, against resident state.
This package turns the batch simulator into that serving system —
ROADMAP item 1's "sustained QPS and p50/p99 latency" — in four layers:

* **Engine** (:mod:`~repro.serve.engine`): build + seal once
  (:meth:`~repro.core.runtime.AMPCRuntime.publish_state` pins a sealed
  columnar DDS as the resident store), then answer request ticks as
  adaptive query rounds (:meth:`~repro.core.runtime.AMPCRuntime.query_round`)
  that roll back to the resident checkpoint — every tick replays
  bit-identically to a fresh engine's first, and every request carries
  an exact read/write ledger.
* **Scheduler** (:mod:`~repro.serve.scheduler`): admission control
  (bounded queue, load shedding) and batched ticks; latency percentiles
  from :mod:`repro.observe` histograms.
* **Workload** (:mod:`~repro.serve.workload`): Poisson/bursty arrivals
  × uniform/Zipfian/hotspot popularity × mixed op ratios, deterministic
  under a seed.
* **Loadgen** (:mod:`~repro.serve.loadgen`): the traffic driver behind
  ``repro loadgen`` and the ``serve-*`` workloads of ``bench/run.py``.

Quick start (also what the ``repro serve`` CLI does)::

    from repro.graph import generators
    from repro.serve import ServingEngine, run_loadgen

    engine = ServingEngine(generators.erdos_renyi_gnm(1000, 4000, 0), seed=0)
    result = run_loadgen(engine, "poisson-zipf")
    print(result.summary())   # qps, p50/p95/p99, admission accounting

See ``docs/serving.md`` for the architecture and knobs.
"""

from .engine import (
    REQUEST_KINDS,
    ServeRequest,
    ServeResponse,
    ServingEngine,
)
from .loadgen import LoadgenResult, loadgen_matrix, run_loadgen
from .scheduler import AdmissionControl, RequestScheduler
from .workload import (
    STANDARD_WORKLOADS,
    ServeEvent,
    WorkloadConfig,
    generate,
    workload_config,
)

__all__ = [
    "REQUEST_KINDS",
    "STANDARD_WORKLOADS",
    "AdmissionControl",
    "LoadgenResult",
    "RequestScheduler",
    "ServeEvent",
    "ServeRequest",
    "ServeResponse",
    "ServingEngine",
    "WorkloadConfig",
    "generate",
    "loadgen_matrix",
    "run_loadgen",
    "workload_config",
]
