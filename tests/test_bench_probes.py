"""The benchmark's seams: every callable ``bench/`` times must still exist.

``bench/spans.py`` measures the layers from outside by rebinding public
callables by name, and tolerates a missing one (the run goes on, the
layer's numbers silently read zero; ``trace.probes_missing`` counts it but
nothing gates that). A refactor that renames or drops a probed callable
therefore blinds a layer without failing anything — except this test,
which resolves the probe table exactly as the benchmark does: by
installing it.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        from metrics import probe_targets
        from spans import Tracer

        targets = probe_targets()
        tracer = Tracer()
        try:
            tracer.install(targets)
            missing = list(tracer.missing)
        finally:
            tracer.uninstall()
    finally:
        # bench/ modules have generic top-level names; don't leave them
        # importable for the rest of the session.
        sys.modules.pop("metrics", None)
        sys.modules.pop("spans", None)
    assert targets, "empty probe table"
    assert not missing, f"bench probes no longer resolve in src/: {missing}"
