"""Synthetic traffic models: arrivals × key popularity × operation mix.

The workload vocabulary standard in caching/serving simulators (Icarus'
stationary Poisson/Zipf workloads; the uniform/Zipfian/hotspot key
generators of storage benchmarks), specialized to the engine's request
kinds. A :class:`WorkloadConfig` is three independent choices:

* **arrivals** — ``poisson`` (exponential inter-arrival gaps at
  ``rate`` req/s) or ``bursty`` (``burst_size`` requests arriving
  simultaneously, inter-burst gaps preserving the same average rate;
  the open-loop pattern that actually exercises admission control —
  and keeps shed/served accounting deterministic, since a whole burst
  hits the bounded queue before any tick can drain it).
* **popularity** — ``uniform``, ``zipfian`` (P(rank k) ∝ 1/k^s over a
  seed-shuffled rank→vertex map), or ``hotspot`` (``hot_weight`` of
  traffic on a ``hot_fraction`` slice of the keyspace).
* **mix** — op ratios over :data:`~repro.serve.engine.REQUEST_KINDS`.

:func:`generate` expands a config into a deterministic event list
(timestamps are *virtual* seconds — the loadgen replays them against a
virtual clock, see :mod:`repro.serve.loadgen`). Determinism: one
``numpy`` generator seeded from ``config.seed`` drives everything, so a
(config, n_keys) pair always yields the same stream, which is what the
seed-matrix determinism tests pin down.

:data:`STANDARD_WORKLOADS` names the three patterns ``repro loadgen``
and the ``serve-smoke`` perf suite replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .engine import REQUEST_KINDS, ServeRequest

ARRIVAL_MODELS = ("poisson", "bursty")
POPULARITY_MODELS = ("uniform", "zipfian", "hotspot")

#: Default operation mix: membership-heavy with the lookup kinds riding
#: along — the "mixed membership/connectivity workload" of ROADMAP item 1.
DEFAULT_MIX = (
    ("mis_member", 0.40),
    ("component_of", 0.20),
    ("same_component", 0.20),
    ("subtree_size", 0.20),
)


@dataclass(frozen=True)
class WorkloadConfig:
    """One synthetic traffic pattern (see the module docstring).

    Attributes:
        rate: average offered load, requests per virtual second.
        burst_size: requests per burst (``bursty`` arrivals only).
        zipf_s: Zipf exponent (``zipfian`` popularity only).
        hot_fraction / hot_weight: hotspot size and traffic share
            (``hotspot`` popularity only).
        mix: (kind, weight) op ratios; weights are normalized.
    """

    name: str = "custom"
    arrivals: str = "poisson"
    rate: float = 2000.0
    burst_size: int = 32
    popularity: str = "uniform"
    zipf_s: float = 1.1
    hot_fraction: float = 0.1
    hot_weight: float = 0.9
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    n_requests: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrivals not in ARRIVAL_MODELS:
            raise ValueError(
                f"arrivals must be one of {ARRIVAL_MODELS}, "
                f"got {self.arrivals!r}"
            )
        if self.popularity not in POPULARITY_MODELS:
            raise ValueError(
                f"popularity must be one of {POPULARITY_MODELS}, "
                f"got {self.popularity!r}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst_size < 1:
            raise ValueError(
                f"burst_size must be >= 1, got {self.burst_size}"
            )
        if not self.mix:
            raise ValueError("mix must name at least one request kind")
        for kind, weight in self.mix:
            if kind not in REQUEST_KINDS:
                raise ValueError(f"unknown request kind in mix: {kind!r}")
            if weight < 0:
                raise ValueError(f"negative mix weight for {kind!r}")


@dataclass(frozen=True)
class ServeEvent:
    """One arriving request with its virtual arrival time (seconds)."""

    time: float
    request: ServeRequest


#: The named patterns ``repro loadgen`` replays by default: steady
#: uniform traffic, steady skewed traffic, and bursty traffic hammering
#: a hotspot (the admission-control stressor).
STANDARD_WORKLOADS = {
    "poisson-uniform": WorkloadConfig(
        name="poisson-uniform", arrivals="poisson", popularity="uniform"
    ),
    "poisson-zipf": WorkloadConfig(
        name="poisson-zipf", arrivals="poisson", popularity="zipfian"
    ),
    "bursty-hotspot": WorkloadConfig(
        name="bursty-hotspot", arrivals="bursty", popularity="hotspot"
    ),
}


def workload_config(name: str, **overrides) -> WorkloadConfig:
    """A standard pattern by name, with field overrides.

    >>> workload_config("poisson-zipf", n_requests=50, seed=3)
    """
    if name not in STANDARD_WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; expected one of "
            f"{sorted(STANDARD_WORKLOADS)}"
        )
    return replace(STANDARD_WORKLOADS[name], **overrides)


def _arrival_times(config: WorkloadConfig, rng: np.random.Generator) -> np.ndarray:
    n = config.n_requests
    if config.arrivals == "poisson":
        gaps = rng.exponential(scale=1.0 / config.rate, size=n)
        return np.cumsum(gaps)
    # bursty: every burst's requests arrive at the same instant (the
    # pure open-loop stressor — a full burst hits admission control
    # before any tick can drain), inter-burst gaps sized to keep the
    # average offered rate equal to `rate`. Simultaneity also keeps
    # rejection accounting deterministic: which requests are shed never
    # depends on how fast the host served the previous tick.
    burst = config.burst_size
    n_bursts = -(-n // burst)
    starts = np.arange(n_bursts, dtype=np.float64) * (burst / config.rate)
    return np.repeat(starts, burst)[:n]


def _key_sampler(
    config: WorkloadConfig, n_keys: int, rng: np.random.Generator
):
    if config.popularity == "uniform":
        return lambda size: rng.integers(0, n_keys, size=size)
    if config.popularity == "zipfian":
        ranks = np.arange(1, n_keys + 1, dtype=np.float64)
        p = ranks ** -config.zipf_s
        p /= p.sum()
        key_of_rank = rng.permutation(n_keys)
        return lambda size: key_of_rank[rng.choice(n_keys, size=size, p=p)]
    # hotspot
    perm = rng.permutation(n_keys)
    n_hot = max(1, int(round(config.hot_fraction * n_keys)))
    hot, cold = perm[:n_hot], perm[n_hot:]
    if cold.size == 0:
        cold = hot

    def sample(size: int) -> np.ndarray:
        take_hot = rng.random(size) < config.hot_weight
        keys = cold[rng.integers(0, cold.size, size=size)]
        keys[take_hot] = hot[rng.integers(0, hot.size, size=int(take_hot.sum()))]
        return keys

    return sample


def generate(config: WorkloadConfig, n_keys: int) -> list[ServeEvent]:
    """Expand ``config`` into a deterministic arrival-ordered event list.

    ``n_keys`` is the engine's vertex count; all sampled keys are in
    ``[0, n_keys)``.
    """
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    rng = np.random.default_rng(config.seed)
    n = config.n_requests
    times = _arrival_times(config, rng)
    sample_keys = _key_sampler(config, n_keys, rng)
    kinds = [k for k, _ in config.mix]
    weights = np.asarray([w for _, w in config.mix], dtype=np.float64)
    weights = weights / weights.sum()
    kind_ids = rng.choice(len(kinds), size=n, p=weights)
    keys = sample_keys(n)
    keys2 = sample_keys(n)  # drawn for every event to keep streams aligned
    events = []
    for i in range(n):
        kind = kinds[kind_ids[i]]
        key2 = int(keys2[i]) if kind == "same_component" else -1
        events.append(ServeEvent(
            time=float(times[i]),
            request=ServeRequest(kind=kind, key=int(keys[i]), key2=key2),
        ))
    return events
