"""Persistent deterministic worker pool shared by every parallel consumer.

The loop-nest sweeps, the autotuner, the distributed ranks and the serving
layer's batch dispatch all fan out through this module, so they share one
set of guarantees:

* **order preservation** — :meth:`WorkerPool.map` returns exactly
  ``[fn(x) for x in items]`` regardless of worker count or scheduling, so
  deterministic callers (the sweeps' ``(value, index)`` argmin, the
  distributed rank reduction) see identical results serial or parallel;
* **persistence** — the process-wide pool from :func:`shared_pool` outlives
  individual ``map`` calls, so repeated sweeps and repeated distributed
  executions reuse warm worker processes (and their plan caches) instead of
  paying a fork per call;
* **supervision** — a worker that dies mid-map (SIGKILL, OOM killer, a
  native crash) or a map that outlives ``REPRO_TASK_TIMEOUT`` is detected,
  every worker is killed, and the map is retried on fresh workers, then
  re-run serially: parallelism is an optimization, never a behaviour
  change.  Unpicklable callables, single-item maps and daemonic callers (a
  task running *inside* a pool worker) take the same serial path.

The pool is built from public ``multiprocessing`` primitives only: each
worker is a daemonic ``Process`` that owns one duplex ``Pipe``, receives a
pickled chunk, runs it and sends the chunk's results back.  Workers share
no queue and no lock, so a worker killed at any instant cannot leave state
behind that blocks the parent or its siblings.  The parent waits with
:func:`multiprocessing.connection.wait` on the result pipes *and* each
``Process.sentinel``: a sentinel closes when its process dies, however it
died and whatever the parent's SIGCHLD disposition (``Process.exitcode``
stays ``None`` forever when SIGCHLD is ignored), so crash detection needs
no polling.  :meth:`WorkerPool.close` is SIGKILL + join;
:meth:`WorkerPool.drain` asks each worker to exit and joins it.

``concurrent.futures.ProcessPoolExecutor`` would report worker death too,
but before Python 3.14 it has no public way to kill a worker stuck in a
task: a timed-out map would leave the worker running, and the executor's
exit hook would then wait on it.

The default worker count is taken from the ``REPRO_WORKERS`` environment
variable (``0``/unset → serial, ``-1`` → one per CPU), shared by the
sweeps, the autotuner, the distributed runtime and the CLI.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from collections import OrderedDict
from multiprocessing.connection import wait
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.obs.metrics import register_source
from repro.obs.trace import add_spans, capture_spans, span, tracing_enabled
from repro.util.faults import fault_active, fault_point, faults_snapshot

T = TypeVar("T")
R = TypeVar("R")


class _TracedTask:
    """Picklable wrapper shipping worker-side spans back with each result.

    When tracing is enabled, :meth:`WorkerPool.map` wraps the task callable
    with this: the worker records the task under a ``pool.task`` span,
    captures every span finished during the call (``force=True`` keeps the
    capture working even in workers forked before tracing was enabled in
    the parent) and returns ``(result, spans)``; the parent unwraps the
    results and merges the spans — with their worker pid/tid identity —
    into its own buffer.  The serial fallback paths take the identical
    shape, so tracing never changes map semantics.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        with capture_spans(force=True) as spans:
            with span("task", "pool"):
                result = self.fn(item)
        return result, spans


class _FaultTask:
    """Picklable wrapper firing the ``pool.task`` fault point around a task.

    Wrapped around the mapped callable only when a fault plan targets
    ``pool.task``, so the hot path never pays the indirection.  The fault
    fires *inside the worker process* (kill mode SIGKILLs the worker, the
    exact failure the supervised map exists to survive); on the serial
    fallback path the same wrapper runs in the parent, where kill mode is
    a no-op by design.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        fault_point("pool.task")
        return self.fn(item)


#: Environment variable providing the process-wide default worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Per-map task timeout in seconds (unset/empty → no timeout).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
#: How many times a failed parallel map is retried on fresh workers
#: before falling back serial (default 1).
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"


def default_workers() -> Optional[int]:
    """Worker count requested via ``REPRO_WORKERS`` (``None`` if unset/invalid).

    An unparseable value warns — silently running serial because of a typo
    in a deployment manifest is the kind of misconfiguration that only
    shows up as a latency mystery weeks later.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {WORKERS_ENV}={raw!r} (not an integer); "
            "running serial as if it were unset",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def default_task_timeout() -> Optional[float]:
    """Task timeout (seconds) from ``REPRO_TASK_TIMEOUT`` (``None`` = none)."""
    raw = os.environ.get(TASK_TIMEOUT_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {TASK_TIMEOUT_ENV}={raw!r} (not a number)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value if value > 0 else None


def default_task_retries() -> int:
    """Retry budget for failed parallel maps from ``REPRO_TASK_RETRIES``."""
    raw = os.environ.get(TASK_RETRIES_ENV)
    if raw is None or not raw.strip():
        return 1
    try:
        return max(0, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring invalid {TASK_RETRIES_ENV}={raw!r} (not an integer); "
            "using the default of 1",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1


# Process-wide supervision event totals (in addition to the per-pool
# counters): the serving layer samples deltas around a batch execution to
# attribute worker crashes to the plan signature that caused them, and the
# daemon's health endpoint reports the last-crash timestamp.
_EVENTS = {
    "crashes": 0,
    "timeouts": 0,
    "respawns": 0,
    "retries": 0,
    "last_crash_unix": None,
}


def supervision_events() -> dict:
    """Process-wide supervision totals (crashes/timeouts/respawns/retries)."""
    return dict(_EVENTS)


def _record_event(kind: str) -> None:
    _EVENTS[kind] += 1
    if kind in ("crashes", "timeouts"):
        _EVENTS["last_crash_unix"] = time.time()


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-count request.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable (itself
    defaulting to serial), ``0`` forces serial regardless of the
    environment, ``-1`` means one worker per CPU, and any positive count is
    taken as-is.
    """
    if workers is None:
        workers = default_workers()
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def _worker_init() -> None:
    """Reset signal plumbing inherited from the forking parent.

    A worker forked from a process running an asyncio event loop (the
    serving daemon) inherits the loop's no-op SIGTERM/SIGINT handlers
    *and* its signal wakeup pipe.  Left in place, a SIGTERM aimed at the
    worker (a process-group SIGTERM stopping the daemon, or
    ``multiprocessing``'s exit handler terminating daemonic children)
    would (a) never kill it — the no-op handler swallows it, hanging any
    ``join()`` — and (b) write the signal number into the wakeup pipe
    *shared with the parent*, which the parent's event loop then reads as
    its own SIGTERM and begins a spurious daemon shutdown.  Detaching the
    wakeup fd and restoring the default SIGTERM disposition severs both
    paths; SIGINT is ignored so a terminal Ctrl+C is handled once, by the
    parent's drain.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _worker_main(conn) -> None:
    """A worker's life: receive ``(fn, chunk)``, reply ``(ok, value)``.

    ``value`` is the chunk's result list, or the exception a task raised.
    ``None`` (sent by :meth:`WorkerPool.drain`) or a closed pipe ends the
    loop.  A reply that cannot be pickled is replaced by a ``RuntimeError``
    naming it, so every chunk the parent sends gets exactly one reply.
    """
    _worker_init()
    try:
        while (job := conn.recv()) is not None:
            fn, chunk = job
            try:
                reply = (True, [fn(x) for x in chunk])
            except Exception as exc:  # travels back to the caller
                reply = (False, exc)
            try:
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # unpicklable result or exception
                data = pickle.dumps(
                    (False, RuntimeError(f"task reply cannot be pickled: {exc!r}"))
                )
            conn.send_bytes(data)
    except (EOFError, OSError):  # the parent is gone
        pass


def _pool_context():
    # On Linux, prefer fork: workers share the parent's shared-memory
    # resource tracker (single-homed bookkeeping for the operand broadcasts
    # of repro.runtime.shm), inherit warm module state, and start fast.
    # Everywhere else the platform default stands — macOS deliberately
    # defaults to spawn because forking after Accelerate/Objective-C
    # threads have started is unsafe.
    if sys.platform.startswith("linux"):
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - fork unavailable
            pass
    return multiprocessing.get_context()


class WorkerPool:
    """A persistent, order-preserving pool of worker processes.

    The workers are started lazily on the first parallel :meth:`map` and
    reused until :meth:`close`, so consumers that map repeatedly (autotune
    sweeps, distributed executions, benchmarks) pay the process-start cost
    once.  Maps on one pool run one at a time: a map already uses every
    worker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        task_retries: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        #: ``(process, parent end of its pipe)`` per live worker.
        self._procs: List[tuple] = []
        #: Serialises maps and teardown: a drain waits for a map in flight.
        self._lock = threading.Lock()
        #: Supervision knobs (``None`` defers to the REPRO_* environment):
        #: per-map task timeout in seconds, and how many times a crashed or
        #: timed-out map is retried on fresh workers before the serial
        #: fallback.
        self.task_timeout = (
            default_task_timeout() if task_timeout is None else task_timeout
        )
        self.task_retries = (
            default_task_retries() if task_retries is None else max(0, task_retries)
        )
        #: Lifetime counters: total map() calls, tasks mapped, and how many
        #: of those calls ran (or re-ran) on the serial fallback path.
        self.maps = 0
        self.tasks = 0
        self.serial_maps = 0
        #: Supervision counters: worker deaths observed mid-map, maps that
        #: hit the task timeout, worker respawns, and map retries.
        self.crashes = 0
        self.timeouts = 0
        self.respawns = 0
        self.retries = 0

    @property
    def is_running(self) -> bool:
        """Whether worker processes are currently alive."""
        return bool(self._procs)

    def _start_workers(self) -> None:
        ctx = _pool_context()
        while len(self._procs) < self.workers:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
            proc.start()
            # the worker now holds the only other copy of its end: when it
            # dies, reads on ``conn`` see EOF
            child_conn.close()
            self._procs.append((proc, conn))

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        chunksize: Optional[int] = None,
    ) -> List[R]:
        """Order-preserving map over *items*, identical to the serial map.

        The serial path is taken when the pool is sized for one worker,
        there are fewer than two items, *fn* cannot be pickled, or the
        caller is itself a daemonic pool worker (nested pools are not
        allowed by ``multiprocessing``); a pool failure mid-map also falls
        back to serial re-evaluation, so the call never returns partial
        results.  An exception raised by a task is re-raised here.
        """
        items = list(items)
        self.maps += 1
        self.tasks += len(items)
        if tracing_enabled():
            with span("map", "pool", tasks=len(items), workers=self.workers):
                pairs = self._map(_TracedTask(fn), items, chunksize)
            for _, worker_spans in pairs:
                add_spans(worker_spans)
            return [result for result, _ in pairs]
        return self._map(fn, items, chunksize)

    def _map(
        self,
        fn: Callable[[T], R],
        items: List[T],
        chunksize: Optional[int] = None,
    ) -> List[R]:
        if (
            self.workers <= 1
            or len(items) < 2
            or multiprocessing.current_process().daemon
        ):
            self.serial_maps += 1
            return [fn(x) for x in items]
        try:
            pickle.dumps(fn)
        except Exception:
            self.serial_maps += 1
            return [fn(x) for x in items]
        if chunksize is None:
            chunksize = max(
                1, (len(items) + 4 * self.workers - 1) // (4 * self.workers)
            )
        if fault_active("pool.task"):
            fn = _FaultTask(fn)
        try:
            # pickled once, up front: a retry resends the same bytes, and an
            # unpicklable item surfaces before any worker is involved
            jobs = [
                pickle.dumps((fn, items[i : i + chunksize]), pickle.HIGHEST_PROTOCOL)
                for i in range(0, len(items), chunksize)
            ]
        except Exception as exc:
            return self._serial_fallback(fn, items, f"cannot pickle items: {exc!r}")
        with self._lock:
            for attempt in range(self.task_retries + 1):
                if attempt:
                    self.retries += 1
                    _record_event("retries")
                    self.respawns += 1
                    _record_event("respawns")
                try:
                    self._start_workers()
                except OSError as exc:
                    failure = f"cannot start workers: {exc!r}"
                else:
                    chunks, failure = self._run(jobs)
                    if failure is None:
                        return [result for chunk in chunks for result in chunk]
                # crash, timeout or start failure: a later attempt (or the
                # next map) starts from fresh workers
                self._stop(graceful=False)
        return self._serial_fallback(fn, items, failure)

    def _run(self, jobs: List[bytes]) -> Tuple[Optional[list], Optional[str]]:
        """Run pickled chunks on the live workers.

        Returns ``(per-chunk results, None)``, or ``(None, reason)`` when a
        worker dies or the task timeout elapses.  A task exception stops the
        dispatch of further chunks; the chunks already in flight are
        drained, so no stale reply stays in a pipe, and then it is raised.
        """
        deadline = (
            time.monotonic() + self.task_timeout
            if self.task_timeout is not None
            else None
        )
        sentinels = {proc.sentinel for proc, _ in self._procs}
        idle = [conn for _, conn in self._procs]
        busy = {}  # conn -> index of the chunk it runs
        chunks: list = [None] * len(jobs)
        error: Optional[BaseException] = None
        dispatched = 0
        try:
            while True:
                while idle and dispatched < len(jobs) and error is None:
                    conn = idle.pop()
                    conn.send_bytes(jobs[dispatched])
                    busy[conn] = dispatched
                    dispatched += 1
                if not busy:
                    break
                timeout = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                ready = wait([*busy, *sentinels], timeout)
                if not ready:
                    self.timeouts += 1
                    _record_event("timeouts")
                    return None, f"task timeout after {self.task_timeout:g}s"
                if sentinels.intersection(ready):
                    raise EOFError("worker exited")
                for conn in ready:
                    data = conn.recv_bytes()
                    try:
                        ok, value = pickle.loads(data)
                    except Exception as exc:  # e.g. an exception needing kwargs
                        ok, value = False, RuntimeError(
                            f"task reply cannot be unpickled: {exc!r}"
                        )
                    chunks[busy.pop(conn)] = value
                    idle.append(conn)
                    if not ok and error is None:
                        error = value
        except (OSError, EOFError):
            # a closed sentinel, EOF on a pipe or a broken pipe: a worker died
            self.crashes += 1
            _record_event("crashes")
            return None, "worker died mid-map"
        except BaseException:
            # e.g. KeyboardInterrupt mid-wait: replies still in flight would
            # be read as the next map's results, so the workers must go
            self._stop(graceful=False)
            raise
        if error is not None:
            raise error
        return chunks, None

    def _serial_fallback(self, fn, items, reason: str) -> List[R]:
        # Results stay correct, but timing-sensitive callers
        # (measured_scaling, benchmarks) must not mistake this serial
        # re-run for a parallel measurement — warn loudly.
        warnings.warn(
            f"worker pool failed mid-map ({reason}); re-ran "
            f"{len(items)} task(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        self.serial_maps += 1
        return [fn(x) for x in items]

    def _stop(self, graceful: bool) -> None:
        """Stop every worker: ask it to exit (*graceful*) or SIGKILL it."""
        procs, self._procs = self._procs, []
        for proc, conn in procs:
            if not graceful:
                proc.kill()
                continue
            try:
                conn.send(None)
            except OSError:  # already dead
                pass
        for proc, conn in procs:
            proc.join()
            conn.close()

    def close(self) -> None:
        """Kill the worker processes (a later map restarts them).

        Workers share no lock or queue, so SIGKILL at any instant — even
        to workers an outside signal already felled — cannot wedge the
        join that follows.
        """
        with self._lock:
            self._stop(graceful=False)

    def drain(self) -> None:
        """Wait for the map in flight, then let the workers exit.

        The graceful sibling of :meth:`close`: nothing is killed mid-task.
        Used by the serving daemon's shutdown path and by the LRU eviction
        of shared pools; a later :meth:`map` restarts the workers.
        """
        with self._lock:
            self._stop(graceful=True)

    def stats(self) -> dict:
        """Lifetime counters plus current worker state (stats endpoints)."""
        return {
            "workers": self.workers,
            "running": self.is_running,
            "maps": self.maps,
            "tasks": self.tasks,
            "serial_maps": self.serial_maps,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "retries": self.retries,
            "task_timeout": self.task_timeout,
            "task_retries": self.task_retries,
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.is_running else "idle"
        return f"WorkerPool(workers={self.workers}, {state})"


# --------------------------------------------------------------------------- #
# Process-wide shared pools
# --------------------------------------------------------------------------- #
#: Persistent pools keyed by worker count.  Consumers that alternate sizes
#: (a sweep at ``--workers 2`` interleaved with a distributed execute at
#: ``--workers 4``) each keep their warm pool instead of thrashing one pool
#: through kill/refork cycles; rarely-used sizes are evicted LRU.
_SHARED_POOLS: "OrderedDict[int, WorkerPool]" = OrderedDict()
_MAX_SHARED_POOLS = 4


def shared_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool for the resolved worker count.

    All library consumers (:func:`parallel_map`, the distributed runtime)
    funnel through these pools so worker processes — and the plan and
    schedule caches they accumulate — are shared across subsystems.

    Examples
    --------
    >>> pool = shared_pool(4)                       # forked once
    >>> pool.map(str, range(8)) == [str(x) for x in range(8)]
    True
    >>> shared_pool(4) is pool                      # warm reuse
    True
    """
    n = resolve_workers(workers)
    pool = _SHARED_POOLS.get(n)
    if pool is None:
        pool = WorkerPool(n)
        _SHARED_POOLS[n] = pool
        if len(_SHARED_POOLS) > _MAX_SHARED_POOLS:
            _, evicted = _SHARED_POOLS.popitem(last=False)
            # drain, not close: another thread may be mid-map on the
            # evicted pool, and close would kill its tasks under it.
            evicted.drain()
    _SHARED_POOLS.move_to_end(n)
    return pool


def shutdown_pool() -> None:
    """Terminate every process-wide pool (a later use recreates them)."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        pool.close()


def drain_pools() -> None:
    """Gracefully drain every process-wide pool (wait, then stop).

    The serving daemon's shutdown hook: outstanding pool tasks finish,
    worker processes exit cleanly, and — unlike :func:`shutdown_pool` —
    nothing is killed mid-task.  Later consumers transparently refork.
    """
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        pool.drain()


def pool_stats() -> dict:
    """Counters of every live shared pool, keyed by worker count.

    The pool slice of the daemon's ``stats`` endpoint; serial consumers
    (``REPRO_WORKERS`` unset) simply report no pools.
    """
    return {
        "pools": {n: pool.stats() for n, pool in _SHARED_POOLS.items()},
        "default_workers": resolve_workers(None),
        "supervision": supervision_events(),
    }


atexit.register(shutdown_pool)

# The metrics registry embeds the pool counters in its snapshots;
# registering here (the producer) keeps repro.obs runtime-import free.
# The fault-injection plan rides along for the same reason: registering
# it from repro.util.faults would cycle util <-> obs imports.
register_source("pool", pool_stats)
register_source("faults", faults_snapshot)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Order-preserving map over *items*, optionally across processes.

    Results are identical to ``[fn(x) for x in items]`` regardless of the
    worker count.  Parallel maps run on the persistent :func:`shared_pool`
    sized at most to the item count (so a ``-1``/one-per-CPU request over a
    handful of tasks never forks idle workers); every serial/fallback
    condition of :meth:`WorkerPool.map` applies.
    """
    items = list(items)
    n_workers = min(resolve_workers(workers), len(items))
    if n_workers <= 1:
        return [fn(x) for x in items]
    return shared_pool(n_workers).map(fn, items, chunksize=chunksize)

