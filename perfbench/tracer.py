"""Span recording around the public functions of each measured layer.

The benchmark never edits the program and never turns on the program's own
``REPRO_TRACE`` tracer.  Instead :func:`install` replaces a fixed list of
public functions (see :data:`TARGETS`) with thin wrappers that record one
span per call: name, start, end, parent span, op id and thread.  Spans stay
in memory and are written out by :meth:`Tracer.dump` when the run ends.

Worker processes forked by the program's pool inherit the wrappers.  A
forked worker cannot hand its span list back, so there each call is added
to per-name totals (calls, seconds) kept in shared memory that the parent
reads at window boundaries.

Clock: ``CLOCK_MONOTONIC`` is system-wide on Linux, so spans recorded in
the serving daemon compare directly with the client's timed window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def now() -> float:
    """Seconds on the system-wide monotonic clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _publish_bytes(args, kwargs, result, before) -> Dict[str, float]:
    arrays = args[0] if args else kwargs["arrays"]
    return {"bytes": float(sum(getattr(a, "nbytes", 0) for a in arrays.values()))}


def _map_tasks(args, kwargs, result, before) -> Dict[str, float]:
    items = args[2] if len(args) > 2 else kwargs.get("items", ())
    return {"tasks": float(len(items)) if hasattr(items, "__len__") else 0.0}


def _dumps_bytes(args, kwargs, result, before) -> Dict[str, float]:
    return {"bytes": float(len(result))}


def _loads_bytes(args, kwargs, result, before) -> Dict[str, float]:
    return {"bytes": float(len(args[0]))}


def _flush_before(args, kwargs) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.batches, stats.amortized


def _flush_sizes(args, kwargs, result, before) -> Dict[str, float]:
    stats = args[0].stats
    groups = stats.batches - before[0]
    return {
        "groups": float(groups),
        "requests": float(groups + stats.amortized - before[1]),
    }


#: (span name, module, attribute path, info-before hook, info hook).
#: An attribute path ``Class.method`` wraps a method on the class; a plain
#: name wraps a module function and every ``repro`` module that imported it.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("apps.cp_als", "repro.apps.cp_als", "cp_als", None, None),
    ("apps.tucker_hooi", "repro.apps.tucker_hooi", "tucker_hooi", None, None),
    ("core.scheduler.schedule", "repro.core.scheduler", "SpTTNScheduler.schedule", None, None),
    ("engine.plan_cache.cached_schedule", "repro.engine.plan_cache", "cached_schedule", None, None),
    ("engine.plan_cache.cached_executor", "repro.engine.plan_cache", "cached_executor", None, None),
    ("engine.plan_cache.operand_signature", "repro.engine.plan_cache", "operand_signature", None, None),
    ("engine.executor.init", "repro.engine.executor", "LoopNestExecutor.__init__", None, None),
    ("engine.executor.execute", "repro.engine.executor", "LoopNestExecutor.execute", None, None),
    ("sptensor.csf.from_coo", "repro.sptensor.csf", "CSFTensor.from_coo", None, None),
    ("runtime.pool.map", "repro.runtime.pool", "WorkerPool.map", None, _map_tasks),
    ("runtime.shm.publish", "repro.runtime.shm", "publish", None, _publish_bytes),
    ("serve.service.submit", "repro.serve.service", "ContractionService.submit", None, None),
    ("serve.service.flush", "repro.serve.service", "ContractionService.flush", _flush_before, _flush_sizes),
    ("serve.protocol.encode_request", "repro.serve.protocol", "encode_request", None, None),
    ("serve.protocol.decode_request", "repro.serve.protocol", "decode_request", None, None),
    ("serve.protocol.result_reply", "repro.serve.protocol", "result_reply", None, None),
    ("serve.protocol.decode_result", "repro.serve.protocol", "decode_result", None, None),
    ("serve.protocol.dumps", "repro.serve.protocol", "dumps", None, _dumps_bytes),
    ("serve.protocol.loads", "repro.serve.protocol", "loads", None, _loads_bytes),
)

#: Modules imported before wrapping, so that every by-name import of a
#: wrapped function exists when :func:`install` rebinds it.
_PRELOAD = (
    "repro",
    "repro.apps",
    "repro.serve.client",
    "repro.serve.daemon",
    "repro.serve.service",
    "repro.runtime.pool",
    "repro.runtime.shm",
)

NAMES = tuple(t[0] for t in TARGETS)
_SLOT = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """In-memory span store for one process and its forked pool workers."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.in_worker = False
        os.register_at_fork(after_in_child=self._forked)
        self.op_id: Optional[int] = None
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        ctx = multiprocessing.get_context("fork")
        # per name: calls, seconds — written only by forked workers
        self._shared = ctx.RawArray("d", 2 * len(NAMES))
        self._lock = ctx.Lock()

    def _forked(self) -> None:
        self.in_worker = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, before_hook=None, info_hook=None) -> Callable:
        """*fn* wrapped so that every call records a span named *name*."""
        slot = _SLOT[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_worker:
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add_shared(slot, now() - start)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            before = before_hook(args, kwargs) if before_hook else None
            result = None
            stack.append(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                info = info_hook(args, kwargs, result, before) if info_hook else None
                self.spans.append(
                    (span_id, name, start, end, parent, self.op_id,
                     threading.get_ident(), info)
                )

        return wrapper

    def _add_shared(self, slot: int, seconds: float) -> None:
        # a worker killed while holding the lock must not wedge the others
        if self._lock.acquire(timeout=1.0):
            try:
                self._shared[2 * slot] += 1.0
                self._shared[2 * slot + 1] += seconds
            finally:
                self._lock.release()

    def worker_totals(self) -> Dict[str, Tuple[float, float]]:
        """Per-name (calls, seconds) summed over forked workers so far."""
        with self._lock:
            values = list(self._shared)
        return {
            name: (values[2 * i], values[2 * i + 1]) for i, name in enumerate(NAMES)
        }

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the spans (one JSON object per line) and *extra* to *path*."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps({"pid": self.pid, "extra": extra or {},
                                 "worker_totals": self.worker_totals()}) + "\n")
            for span in list(self.spans):
                fh.write(json.dumps(span_dict(span)) + "\n")
        os.replace(tmp, path)


def span_dict(span: tuple) -> dict:
    span_id, name, start, end, parent, op, tid, info = span
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "tid": tid, "info": info}


def load_dump(path: str) -> Tuple[dict, List[dict]]:
    """Read a file written by :meth:`Tracer.dump`: (header, spans)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


def _replace_function(original: Callable, wrapper: Callable) -> None:
    """Rebind *original* to *wrapper* in every loaded ``repro`` module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TARGETS` with *tracer*'s span wrapper."""
    for mod_name in _PRELOAD:
        importlib.import_module(mod_name)
    for name, mod_name, path, before_hook, info_hook in TARGETS:
        module = importlib.import_module(mod_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = tracer.wrap(name, raw.__func__, before_hook, info_hook)
                setattr(cls, meth, classmethod(wrapped))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, before_hook, info_hook))
        else:
            original = getattr(module, path)
            _replace_function(original, tracer.wrap(name, original, before_hook, info_hook))


# --------------------------------------------------------------------------- #
# Reading spans back
# --------------------------------------------------------------------------- #
def in_window(spans: Iterable[dict], start: float, end: float) -> List[dict]:
    """Spans that began inside ``[start, end]``."""
    return [s for s in spans if start <= s["start"] <= end]


def totals(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per-name call count, total seconds and summed ``info`` fields."""
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0.0, "seconds": 0.0})
        row["calls"] += 1
        row["seconds"] += s["end"] - s["start"]
        for key, value in (s["info"] or {}).items():
            row[key] = row.get(key, 0.0) + value
    return out


def self_seconds(spans: List[dict], name: str) -> float:
    """Total time inside spans *name* not covered by their direct children."""
    by_id = {s["id"]: s for s in spans if s["name"] == name}
    own = sum(s["end"] - s["start"] for s in by_id.values())
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] in by_id)
    return own - children


def covered_seconds(spans: Iterable[dict], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` during which at least one root span ran."""
    intervals = sorted(
        (max(s["start"], start), min(s["end"], end))
        for s in spans
        if s["parent"] is None and s["end"] > start and s["start"] < end
    )
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
