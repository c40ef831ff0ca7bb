"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core import AMPCConfig, AMPCRuntime
from repro.graph import generators

# Hard wall-clock ceiling for @pytest.mark.parallel,
# @pytest.mark.faultproc, and @pytest.mark.perf tests: a wedged worker
# (deadlocked pipe, orphaned pool, a SIGSTOPped process the supervisor
# failed to reap) or a runaway bench collection must fail the test, not
# hang the suite. pytest-timeout is used when installed; otherwise we
# arm SIGALRM ourselves (main thread, POSIX — fine for this suite).
PARALLEL_TEST_TIMEOUT_S = 120

_TIMEBOXED_MARKERS = ("parallel", "faultproc", "perf", "serve", "ingest")

try:  # pragma: no cover - presence probe
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def _timeboxed(item) -> bool:
    return any(item.get_closest_marker(m) is not None
               for m in _TIMEBOXED_MARKERS)


def pytest_collection_modifyitems(config, items):
    if not _HAVE_PYTEST_TIMEOUT:
        return
    for item in items:
        if _timeboxed(item):
            item.add_marker(pytest.mark.timeout(PARALLEL_TEST_TIMEOUT_S))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if (_HAVE_PYTEST_TIMEOUT
            or not _timeboxed(item)
            or not hasattr(signal, "SIGALRM")):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"parallel test exceeded {PARALLEL_TEST_TIMEOUT_S}s "
            f"(wedged worker pool?)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(PARALLEL_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class OwnSegments:
    """The shared-memory segments this process's ``ShmArena``s create
    while armed, so a leak check never blames a segment another process
    (a second pytest run, an unrelated program) made meanwhile."""

    def __init__(self, monkeypatch) -> None:
        from repro.parallel.shm import ShmArena

        self.names: list[str] = []
        create = ShmArena._new_segment

        def recorded(arena, size):
            segment = create(arena, size)
            self.names.append(segment.name)
            return segment

        monkeypatch.setattr(ShmArena, "_new_segment", recorded)

    def leaked(self) -> list[str]:
        """Recorded segments still present in /dev/shm."""
        import os

        return sorted(name for name in self.names
                      if os.path.exists(os.path.join("/dev/shm", name)))


@pytest.fixture(autouse=True)
def shm_leak_check(request, monkeypatch):
    """Fail any parallel/faultproc test that leaks a /dev/shm segment.

    Armed only for pool-touching tests (marker-gated) — a shared-memory
    segment that survives a test is a failure even when the answers
    match, and doubly so under fault injection where a SIGKILLed worker
    cannot run its own cleanup. Only segments this process's arenas
    created count (:class:`OwnSegments`). Yields the watcher, or None
    when unarmed.
    """
    import os

    if not _timeboxed(request.node) or not os.path.isdir("/dev/shm"):
        yield None  # unmarked test or non-Linux: nothing to scan
        return
    own = OwnSegments(monkeypatch)
    yield own
    leaked = own.leaked()
    assert not leaked, f"shared-memory segments leaked: {leaked}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> AMPCConfig:
    return AMPCConfig(epsilon=0.5, space=64, n_machines=8, seed=7)


@pytest.fixture
def runtime(small_config: AMPCConfig) -> AMPCRuntime:
    return AMPCRuntime(small_config)


def graph_zoo(seed: int = 0):
    """A spread of graph families used by correctness sweeps."""
    return [
        ("empty", generators.erdos_renyi_gnm(20, 0, rng=seed)),
        ("single-edge", generators.path(2)),
        ("path", generators.path(30)),
        ("cycle", generators.cycle(24)),
        ("star", generators.star(15)),
        ("grid", generators.grid(5, 6)),
        ("complete", generators.complete(9)),
        ("er-sparse", generators.erdos_renyi_gnm(60, 70, rng=seed + 1)),
        ("er-dense", generators.erdos_renyi_gnm(40, 300, rng=seed + 2)),
        ("ba", generators.barabasi_albert(50, 2, rng=seed + 3)),
        ("forest", generators.random_forest(50, 6, rng=seed + 4)),
        ("two-cycles", generators.union_of_cycles([9, 13])),
        ("components", generators.components_with_diameter(3, 8, 2, rng=seed + 5)),
    ]
