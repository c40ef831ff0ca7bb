"""Outside-in layer spans: time calls into public functions without editing them.

A :class:`Tracer` rebinds callables named ``(module, qualified name)`` to
probes that record how long each call took and which probe it ran under.
Module-level functions are rebound at the defining module *and* at every
``from x import y`` alias held by an already-imported ``repro`` module, so a
call through either name is seen; methods are rebound on their class.
:meth:`Tracer.uninstall` puts every original object back.

Two probe kinds, chosen per target by how often it is called:

* ``SPAN`` keeps one record per call: ``[name, start_ns, end_ns, parent,
  child_ns, elems]`` where ``parent`` is the index of the enclosing span
  (``-1`` at top level) and ``child_ns`` the part of the interval spent in
  probes directly below it.
* ``FOLD`` is for functions called ~1e5+ times per run (scalar ``get`` /
  ``read`` / ``server_of``). One record per call would cost more memory and
  time than the call itself, so calls are folded into one accumulator per
  ``(name, enclosing span)``: ``[calls, total_ns, child_ns, elems]``.

Either way *self time* = total − child time, so summing self time over every
name under a root span gives exactly that span's duration.

Probes nest through two one-slot lists (innermost span id, child-time
accumulator) saved and restored on the Python stack: no per-call allocation
beyond the span record, about 0.4 µs per folded call on the build host.
Spans live in memory; :meth:`Tracer.write_jsonl` dumps them when asked.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types
from typing import Any, Callable, Iterator

SPAN = "span"
FOLD = "fold"

# Index names for span records and fold accumulators.
NAME, START, END, PARENT, CHILD, ELEMS = range(6)
F_CALLS, F_TOTAL, F_CHILD, F_ELEMS = range(4)

# Elements one call handles: a constant, or a function of (args, kwargs).
Elems = "int | Callable[[tuple, dict], int] | None"


def _split_elems(elems: Any) -> tuple[int, Callable | None]:
    return (elems, None) if isinstance(elems, int) else (0, elems)


class Tracer:
    """In-memory span recorder plus the monkeypatching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.folded: dict[str, dict[int, list[int]]] = {}
        self._cur = [-1]
        self._child = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- probes ------------------------------------------------------------

    def span_probe(
        self, name: str, fn: Callable, elems: Elems = None
    ) -> Callable:
        """Wrap ``fn`` so each call appends one span record."""
        spans, cur, child, clock = (
            self.spans, self._cur, self._child, time.perf_counter_ns
        )
        timed_iter = self._timed_iter
        fixed, count = _split_elems(elems)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            record = [name, 0, 0, cur[0], 0, fixed]
            saved_cur, saved_child = cur[0], child[0]
            cur[0] = len(spans)
            spans.append(record)
            child[0] = 0
            if count is not None:
                record[ELEMS] = count(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                record[START], record[END] = start, end
                record[CHILD] = child[0]
                cur[0] = saved_cur
                child[0] = saved_child + (end - start)
            if isinstance(result, types.GeneratorType):
                # A generator does its work when consumed, not when made:
                # time each step under the same name, wherever it is pulled.
                return timed_iter(name, result)
            return result

        return probe

    def fold_probe(
        self, name: str, fn: Callable, elems: Elems = None
    ) -> Callable:
        """Wrap ``fn`` so calls accumulate per enclosing span."""
        table = self.folded.setdefault(name, {})
        cur, child, clock = self._cur, self._child, time.perf_counter_ns
        fixed, count = _split_elems(elems)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            saved_child = child[0]
            child[0] = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                acc = table.get(cur[0])
                if acc is None:
                    acc = table[cur[0]] = [0, 0, 0, 0]
                acc[F_CALLS] += 1
                acc[F_TOTAL] += took
                acc[F_CHILD] += child[0]
                acc[F_ELEMS] += fixed
                if count is not None:
                    acc[F_ELEMS] += count(args, kwargs)
                child[0] = saved_child + took

        return probe

    def _timed_iter(self, name: str, generator: Iterator) -> Iterator:
        step = self.fold_probe(name, generator.__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def worker_probe(
        self, name: str, fn: Callable, worker_name: str
    ) -> Callable:
        """Span probe for ``AMPCRuntime.round`` / ``round_batch``.

        The machine program handed to the round is itself wrapped (folded
        under ``worker_name``), so the round's self time is the runtime's
        own work and the program's time is reported apart. On the process
        backend the program is left alone: a wrapped closure cannot be
        shipped to pool workers and the round would quietly run serially.
        """
        span = self.span_probe(name, fn)
        fold = self.fold_probe

        @functools.wraps(fn)
        def probe(runtime, work=None, worker=None, *args, **kwargs):
            if runtime.backend != "process":
                if worker is not None:
                    worker = fold(worker_name, worker)
                if kwargs.get("per_machine") is not None:
                    kwargs["per_machine"] = fold(
                        worker_name, kwargs["per_machine"]
                    )
            return span(runtime, work, worker, *args, **kwargs)

        return probe

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[int]:
        """Open a span from the benchmark's own code; yields its id."""
        cur, child = self._cur, self._child
        record = [name, 0, 0, cur[0], 0, 0]
        saved_cur, saved_child = cur[0], child[0]
        cur[0] = span_id = len(self.spans)
        self.spans.append(record)
        child[0] = 0
        record[START] = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            record[END] = time.perf_counter_ns()
            record[CHILD] = child[0]
            cur[0] = saved_cur
            child[0] = saved_child + (record[END] - record[START])

    # -- install / uninstall -----------------------------------------------

    def install(self, targets: list[tuple]) -> None:
        """Rebind every ``(module, qualname, span name, kind, elems)``.

        ``kind`` is :data:`SPAN`, :data:`FOLD`, or ``("worker", name)`` for
        the two round entry points (see :meth:`worker_probe`).
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        aliases = _alias_index()
        for target in targets:
            module_name, qualname, name, kind, elems = target
            *path, attr = qualname.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # The program under test may drop or rename a callable; the
                # benchmark must still run, so note the gap and move on.
                self.missing.append(f"{module_name}:{qualname}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == SPAN:
                probe = self.span_probe(name, fn, elems)
            elif kind == FOLD:
                probe = self.fold_probe(name, fn, elems)
            else:
                probe = self.worker_probe(name, fn, kind[1])
            new = classmethod(probe) if isinstance(raw, classmethod) else probe
            self._rebind(owner, attr, raw, new)
            if not path:
                for alias_owner, alias in aliases.get(id(raw), ()):
                    if alias_owner is not owner:
                        self._rebind(alias_owner, alias, raw, new)

    def _rebind(self, owner: Any, attr: str, raw: Any, new: Any) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> int:
        """Restore every original; returns how many bindings were restored."""
        restored = 0
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
            restored += 1
        return restored

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- reading the trace -------------------------------------------------

    def aggregate(self, root_id: int) -> dict[str, dict[str, int]]:
        """Per-name totals of everything recorded under span ``root_id``.

        Returns ``{name: {"calls", "total_ns", "self_ns", "elems"}}``. The
        root itself is included, so the ``self_ns`` values sum to its
        duration.
        """
        end = self._subtree_end(root_id)
        out: dict[str, dict[str, int]] = {}

        def add(name: str, calls: int, total: int, child: int, el: int):
            row = out.setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0, "elems": 0}
            )
            row["calls"] += calls
            row["total_ns"] += total
            row["self_ns"] += total - child
            row["elems"] += el

        for record in self.spans[root_id:end]:
            add(record[NAME], 1, record[END] - record[START],
                record[CHILD], record[ELEMS])
        for name, table in self.folded.items():
            for parent, acc in table.items():
                if root_id <= parent < end:
                    add(name, *acc)
        return out

    def _subtree_end(self, root_id: int) -> int:
        """One past the last span nested (transitively) under ``root_id``."""
        for i in range(root_id + 1, len(self.spans)):
            # Spans are appended in start order, so the subtree is the run
            # of records that follows; it ends at the first span whose
            # parent was opened before the root.
            if self.spans[i][PARENT] < root_id:
                return i
        return len(self.spans)

    def durations_ns(self, name: str, root_id: int) -> list[int]:
        """Durations of every span called ``name`` under ``root_id``."""
        end = self._subtree_end(root_id)
        return [
            r[END] - r[START] for r in self.spans[root_id:end] if r[NAME] == name
        ]

    def problems(self) -> list[str]:
        """Structural checks: parents exist, enclose their children, and no
        span spends more time in children than it lasted."""
        found: list[str] = []
        for i, r in enumerate(self.spans):
            parent = r[PARENT]
            if not -1 <= parent < i:
                found.append(f"span {i} ({r[NAME]}) has parent {parent}")
                continue
            if r[END] < r[START]:
                found.append(f"span {i} ({r[NAME]}) ends before it starts")
            if r[CHILD] > r[END] - r[START]:
                found.append(f"span {i} ({r[NAME]}) child time exceeds its own")
            if parent >= 0:
                p = self.spans[parent]
                if not (p[START] <= r[START] and r[END] <= p[END]):
                    found.append(
                        f"span {i} ({r[NAME]}) is not inside parent {parent}"
                    )
        for name, table in self.folded.items():
            for parent, acc in table.items():
                if not -1 <= parent < len(self.spans):
                    found.append(f"folded {name} has parent {parent}")
                if acc[F_CHILD] > acc[F_TOTAL]:
                    found.append(f"folded {name} child time exceeds its own")
        return found

    def write_jsonl(self, path: str) -> int:
        """Dump spans then folded accumulators, one JSON object per line."""
        lines = 0
        with open(path, "w") as out:
            for i, r in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": r[NAME], "start_ns": r[START],
                    "end_ns": r[END], "parent": r[PARENT],
                    "child_ns": r[CHILD], "elems": r[ELEMS],
                }) + "\n")
                lines += 1
            for name, table in self.folded.items():
                for parent, acc in table.items():
                    out.write(json.dumps({
                        "name": name, "parent": parent, "folded": True,
                        "calls": acc[F_CALLS], "total_ns": acc[F_TOTAL],
                        "child_ns": acc[F_CHILD], "elems": acc[F_ELEMS],
                    }) + "\n")
                    lines += 1
        return lines


def _alias_index() -> dict[int, list[tuple[Any, str]]]:
    """``id(function) -> [(module, attribute)]`` over the globals of every
    imported ``repro`` module: where each function is bound, including its
    ``from x import y`` aliases."""
    index: dict[int, list[tuple[Any, str]]] = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                index.setdefault(id(value), []).append((module, attr))
    return index
