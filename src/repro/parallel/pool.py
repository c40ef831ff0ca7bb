"""Supervised fork-based worker pool.

One pipe per worker, one in-flight task per worker, tasks dispatched by
name from a registry in :mod:`repro.parallel.backend` (so only payloads
cross the pipe, never code objects for the framework itself). Round
*worker callables*, however, are frequently local closures — MIS's
truncated-query worker, for one — which plain pickle refuses; :func:`encode_callable` falls back to a
marshal-of-code encoding that reconstructs the function in the child
against its defining module's globals, with pickled defaults and closure
cell values. When even that fails, :class:`CallableShipError` tells the
runtime to fall back to the serial path for that round.

Supervision
-----------

:meth:`WorkerPool.run_tasks` dispatches each shard once, in shard order,
and waits on every in-flight worker's pipe *and* process sentinel at
once. A worker whose sentinel fires, whose pipe EOFs, or that has not
replied by the per-task deadline is *lost*: every machine of its shard
crashed. Recovery is the paper's §2.1 rule — "a failing machine can be
simply replaced with a different machine that would perform the
computation from scratch" — with the parent process as the replacement
machine. The pool kills and respawns the worker (it may be wedged, not
dead), then runs the lost shard's task in the parent:
``TASKS[name](pickle.loads(blob))``. Tasks are pure functions of their
payload — they read the exported sealed store and return a journal — so
the parent's reply is the one the worker would have sent, and the merge
keeps results and cost ledgers bit-identical to the serial path. If
every fork of a respawn fails, the pool is marked broken, the round's
remaining shards run in the parent as well, and :func:`get_pool`
rebuilds the pool for the next round.

Fault injection: ``run_tasks(..., faults=...)`` accepts a duck-typed
plan — the process faults of a :class:`repro.core.chaos.FaultPlan`
bound to one round (:class:`repro.core.chaos.BoundProcessFaults`) —
providing
``directive_for(task_index)`` — returning ``None``, ``("kill",)``,
``("drop",)`` or ``("delay", seconds)`` — and
``fork_fails(worker_idx, respawn_seq, spawn_attempt)``. Directives ride
along with the dispatch and are honored *in the worker* (a real SIGKILL,
a real dropped reply), so recovery is exercised against genuine process
death, not a simulation of it. With a plan armed the per-task deadline
is :data:`FAULT_DEADLINE_S` instead of :data:`DEFAULT_DEADLINE_S`, so an
injected hang costs one second.
"""

from __future__ import annotations

import atexit
import dataclasses
import importlib
import marshal
import multiprocessing
import multiprocessing.connection as _mpc
import os
import pickle
import signal
import sys
import time
import traceback
import types
from typing import Any, Callable

__all__ = [
    "CallableShipError",
    "WorkerCrashError",
    "PoolRunResult",
    "PARENT",
    "encode_callable",
    "decode_callable",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
]

#: Forks attempted per respawn before the pool is declared broken.
MAX_SPAWN_ATTEMPTS = 3

#: Per-task deadline of a plain run.
DEFAULT_DEADLINE_S = 60.0

#: Per-task deadline while a fault plan is armed. Plans drive small
#: fault-injection runs; a healthy shard slower than this is treated as
#: hung and re-run in the parent — still correct, only slower.
FAULT_DEADLINE_S = 1.0

#: ``PoolRunResult.worker_of`` entry of a shard the parent ran itself.
PARENT = -1


class CallableShipError(RuntimeError):
    """A round worker (or its payload) cannot be shipped to pool workers;
    the runtime catches this and falls back to the serial path."""


class WorkerCrashError(RuntimeError):
    """A pool worker's task failed with an exception the parent cannot
    rebuild."""


@dataclasses.dataclass
class PoolRunResult:
    """Outcome of one ``run_tasks`` call.

    ``worker_of[i]`` is the worker that ran shard ``i``, or
    :data:`PARENT` when the parent ran it; replay tags tracer spans with
    it.
    """

    results: list[Any]
    worker_of: list[int]


def encode_callable(fn: Callable[..., Any]) -> tuple[str, Any]:
    """Encode a callable for reconstruction in a pool worker.

    Module-level functions go through pickle; local closures/lambdas use
    the marshal fallback. Raises :class:`CallableShipError` when neither
    works (e.g. a closure over an unpicklable object).
    """
    try:
        return ("pickle", pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        pass
    try:
        code = fn.__code__
        cells = tuple(cell.cell_contents for cell in (fn.__closure__ or ()))
        return (
            "marshal",
            (
                marshal.dumps(code),
                fn.__module__,
                fn.__name__,
                pickle.dumps(fn.__defaults__, protocol=pickle.HIGHEST_PROTOCOL),
                pickle.dumps(cells, protocol=pickle.HIGHEST_PROTOCOL),
            ),
        )
    except Exception as exc:
        raise CallableShipError(
            f"cannot ship worker callable {fn!r} to the process backend: {exc}"
        ) from exc


def decode_callable(encoded: tuple[str, Any]) -> Callable[..., Any]:
    """Inverse of :func:`encode_callable` (runs in the pool worker)."""
    kind, payload = encoded
    if kind == "pickle":
        return pickle.loads(payload)
    code_bytes, module_name, name, defaults_bytes, cells_bytes = payload
    code = marshal.loads(code_bytes)
    module = sys.modules.get(module_name)
    if module is None:
        module = importlib.import_module(module_name)
    cell_values = pickle.loads(cells_bytes)
    closure = tuple(types.CellType(v) for v in cell_values) or None
    return types.FunctionType(
        code, module.__dict__, name, pickle.loads(defaults_bytes), closure
    )


def _ship_exception(exc: BaseException) -> tuple:
    etype = type(exc)
    try:
        args = pickle.dumps(exc.args, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        args = pickle.dumps((str(exc),))
    return ("err", etype.__module__, etype.__qualname__, args,
            traceback.format_exc())


def _rebuild_exception(info: tuple) -> BaseException:
    _, module_name, qualname, args_bytes, tb_text = info
    try:
        args = pickle.loads(args_bytes)
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        try:
            exc = obj(*args)
        except Exception:
            # Exception classes whose __init__ reshapes args (e.g. a
            # formatted message): bypass __init__, keep the args.
            exc = obj.__new__(obj)
            exc.args = args
    except Exception:
        exc = WorkerCrashError(
            f"worker task failed with unreconstructable "
            f"{module_name}.{qualname}"
        )
    try:
        exc.add_note("pool worker traceback:\n" + tb_text)
    except Exception:
        pass
    return exc


def _run_task(task_name: str, payload_blob: bytes) -> Any:
    """One shard's task — the same call in a pool worker and in the
    parent."""
    from . import backend as _backend

    return _backend.TASKS[task_name](pickle.loads(payload_blob))


def _worker_main(conn: Any) -> None:
    from .shm import disable_worker_shm_tracking

    disable_worker_shm_tracking()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        task_name, payload_blob, directive = message
        if directive is not None and directive[0] == "kill":
            # Injected fault: die exactly like a genuinely SIGKILLed
            # worker — no cleanup, no reply, sentinel fires in the parent.
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            out: tuple = ("ok", _run_task(task_name, payload_blob))
        except Exception as exc:
            out = _ship_exception(exc)
        if directive is not None:
            kind = directive[0]
            if kind == "drop":
                # Injected fault: the work was done but the reply is
                # lost — the parent sees a hang and must deadline it.
                continue
            if kind == "delay":
                time.sleep(directive[1])
        try:
            conn.send(out)
        except Exception as exc:
            # An unpicklable task *result* must not break the pipe
            # protocol; ship it as a CallableShipError so the parent
            # falls back to the serial path (workers mutate no parent
            # state, so re-running the round serially is safe).
            try:
                conn.send(
                    _ship_exception(
                        CallableShipError(
                            f"task result could not be shipped back: {exc}"
                        )
                    )
                )
            except Exception:
                break
    try:
        conn.close()
    except Exception:
        pass


class WorkerPool:
    """Fixed set of forked workers, one duplex pipe each, supervised.

    Fork (not spawn): workers inherit the loaded module graph, so a task
    only ships its payload. The pool is persistent — created once, reused
    by every parallel round — which is what makes per-round dispatch
    cheap enough to shard small rounds.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._ctx = multiprocessing.get_context("fork")
        self.n_workers = n_workers
        self.broken = False
        self._respawn_seq = [0] * n_workers
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        for _ in range(n_workers):
            conn, proc = self._spawn()
            self._conns.append(conn)
            self._procs.append(proc)

    def _spawn(self) -> tuple[Any, Any]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _replace(self, worker_idx: int, faults: Any = None) -> None:
        """Kill one worker (it may be wedged, not dead) and fork its
        replacement; when every fork attempt fails, mark the pool broken.

        Shared-memory segments the dead worker had attached are reclaimed
        by the kernel on process death; the parent-side arena still owns
        (and will unlink) them, so a mid-round respawn leaks nothing.
        Closing the old pipe also discards anything the worker had sent,
        so no stale reply can reach a later dispatch.
        """
        proc = self._procs[worker_idx]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)
        try:
            self._conns[worker_idx].close()
        except Exception:
            pass
        seq = self._respawn_seq[worker_idx]
        self._respawn_seq[worker_idx] += 1
        for spawn_attempt in range(MAX_SPAWN_ATTEMPTS):
            if faults is not None and faults.fork_fails(
                worker_idx, seq, spawn_attempt
            ):
                continue
            try:
                self._conns[worker_idx], self._procs[worker_idx] = (
                    self._spawn()
                )
            except OSError:
                continue
            return
        self.broken = True

    def run_tasks(self, task_name: str, payload_blobs: list[bytes],
                  faults: Any = None,
                  lost: dict[int, float] | None = None) -> PoolRunResult:
        """Run pre-pickled payloads across the workers, supervised.

        Results come back in shard order. A lost worker's shard is re-run
        in the parent (see the module docstring). If any task raised an
        application-level exception — in a worker or in a re-run in the
        parent — the exception of the *lowest shard index* is re-raised
        (shards are ordered by ascending machine range, so this matches
        the serial path's first-machine-wins error ordering) and no shard
        with a higher index is newly dispatched.

        ``lost``, when given, receives one entry per shard whose worker
        was lost: the wall time from its dispatch to the end of its
        re-run in the parent. It is filled as the call runs, so it is
        complete even when the call raises.
        """
        n = len(payload_blobs)
        deadline = DEFAULT_DEADLINE_S if faults is None else FAULT_DEADLINE_S
        results: list[Any] = [None] * n
        worker_of = [PARENT] * n
        if lost is None:
            lost = {}
        errors: dict[int, BaseException] = {}
        # worker -> (shard index, dispatch time)
        inflight: dict[int, tuple[int, float]] = {}
        next_shard = 0

        def in_parent(index: int) -> None:
            try:
                results[index] = _run_task(task_name, payload_blobs[index])
            except Exception as exc:
                errors[index] = exc

        def lose(worker_idx: int) -> None:
            index, dispatched = inflight.pop(worker_idx)
            self._replace(worker_idx, faults)
            in_parent(index)
            lost[index] = time.monotonic() - dispatched

        def dispatch(worker_idx: int, index: int) -> None:
            directive = None if faults is None else faults.directive_for(index)
            inflight[worker_idx] = (index, time.monotonic())
            try:
                self._conns[worker_idx].send(
                    (task_name, payload_blobs[index], directive)
                )
            except OSError:
                lose(worker_idx)  # the worker died while idle

        def collect(worker_idx: int, overdue: bool = False) -> None:
            """Take the worker's reply if one is waiting; otherwise lose
            the worker when it is dead or ``overdue``."""
            conn = self._conns[worker_idx]
            try:
                out = conn.recv() if conn.poll() else None
            except (OSError, EOFError):
                lose(worker_idx)  # died mid-task
                return
            if out is None:
                if overdue or not self._procs[worker_idx].is_alive():
                    lose(worker_idx)
                return
            index, _ = inflight.pop(worker_idx)
            if out[0] == "ok":
                results[index] = out[1]
                worker_of[index] = worker_idx
            else:
                errors[index] = _rebuild_exception(out)

        try:
            while True:
                if self.broken:
                    while next_shard < min(errors, default=n):
                        in_parent(next_shard)
                        next_shard += 1
                else:
                    for worker_idx in range(self.n_workers):
                        if (worker_idx not in inflight
                                and next_shard < min(errors, default=n)):
                            dispatch(worker_idx, next_shard)
                            next_shard += 1
                stop = min(errors, default=n)
                if next_shard >= stop and all(
                    index >= stop for index, _ in inflight.values()
                ):
                    break
                if not inflight:
                    continue

                waitables: dict[Any, int] = {}
                for worker_idx in inflight:
                    waitables[self._conns[worker_idx]] = worker_idx
                    waitables[self._procs[worker_idx].sentinel] = worker_idx
                first_due = min(t for _, t in inflight.values()) + deadline
                ready = _mpc.wait(
                    list(waitables),
                    timeout=max(0.0, first_due - time.monotonic()),
                )
                for worker_idx in sorted({waitables[obj] for obj in ready}):
                    collect(worker_idx)

                # Hung (or reply-dropped) workers: the per-task deadline.
                # A reply that came in while the parent was re-running a
                # lost shard is still taken — collect polls first.
                now = time.monotonic()
                for worker_idx in [w for w, (_, t) in inflight.items()
                                   if now - t > deadline]:
                    collect(worker_idx, overdue=True)
        finally:
            self._settle(inflight)
        if errors:
            raise errors[min(errors)]
        return PoolRunResult(results, worker_of)

    def _settle(self, inflight: dict[int, tuple[int, float]]) -> None:
        """Leave no worker mid-task: drain a late reply (briefly) or
        replace the worker, so the next round starts protocol-clean."""
        grace_end = time.monotonic() + 0.02
        for worker_idx in inflight:
            conn = self._conns[worker_idx]
            try:
                if conn.poll(max(0.0, grace_end - time.monotonic())):
                    conn.recv()  # reply for abandoned work: discard
                    continue
            except (OSError, EOFError):
                pass
            self._replace(worker_idx)
        inflight.clear()

    def close(self, timeout: float = 2.0) -> None:
        """Shut the workers down, escalating until none survives:
        cooperative stop → join → SIGTERM → join → SIGKILL → join. The
        kill step means even a wedged (e.g. stopped) worker cannot
        outlive the interpreter."""
        for conn in self._conns:
            try:
                conn.send(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=timeout)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._conns = []
        self._procs = []
        self.broken = True


_POOL: WorkerPool | None = None


def get_pool(n_workers: int) -> WorkerPool:
    """The shared persistent pool, (re)built on size change or breakage.

    ``_POOL`` is nulled *before* the stale pool is closed, so a close
    that raises can never leave the module pointing at a half-closed
    pool.
    """
    global _POOL
    if _POOL is not None and (_POOL.broken or _POOL.n_workers != n_workers):
        stale, _POOL = _POOL, None
        try:
            stale.close()
        except Exception:
            pass
    if _POOL is None:
        _POOL = WorkerPool(n_workers)
    return _POOL


def shutdown_pool() -> None:
    """Terminate the shared pool (idempotent; re-created on next use)."""
    global _POOL
    if _POOL is not None:
        stale, _POOL = _POOL, None
        try:
            stale.close()
        finally:
            from .shm import scrub_arenas

            scrub_arenas()


atexit.register(shutdown_pool)
