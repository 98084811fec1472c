"""One measured process: set up a workload, time it, check it, report.

Started by ``run.py`` with a clean environment; writes one JSON document
to ``--out``.  Only with ``--reference`` does it run the slow dense
reference check of ``decomp`` (see :meth:`workloads.Decomp.check`).  With
``--traced`` the span wrappers of :mod:`tracer` are installed before
anything else runs (and in the serving daemon), and the per-layer metrics
are computed from the spans recorded inside the timed window.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional

import tracer
from tracer import covered_seconds, in_window, self_seconds, totals


def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--traced", action="store_true")
    return p.parse_args(argv)


def versions() -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def snapshot(workload) -> Dict[str, object]:
    """Cache, search and supervision counters of the program's host process."""
    if workload.name == "serve-mixed":
        stats = workload.stats()
        return {
            "caches": stats["caches"],
            "searches": stats["metrics"]["counters"].get("schedule.searches", 0),
            "supervision": stats["pool"]["supervision"],
        }
    from repro.engine.plan_cache import caches_snapshot, schedule_search_count
    from repro.runtime import supervision_events

    return {
        "caches": caches_snapshot(),
        "searches": schedule_search_count(),
        "supervision": supervision_events(),
    }


def percentile_ms(latencies: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(latencies), q)) * 1e3


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def layer_metrics(
    spans: List[dict],
    daemon_spans: List[dict],
    worker_delta: Dict[str, tuple],
    worker_setup: Dict[str, tuple],
    window,
    setup_window: tuple,
    before: dict,
    after: dict,
    at_ready_searches: int,
    efficiency: float,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced window."""
    w0, w1 = window.start, window.end
    ops = len(window.latencies)
    wall_ms = (w1 - w0) * 1e3 / ops
    client = in_window(spans, w0, w1)
    daemon = in_window(daemon_spans, w0, w1)
    t = totals(client + daemon)
    t_client = totals(client)

    def calls(name: str) -> float:
        return t.get(name, {}).get("calls", 0.0) + worker_delta.get(name, (0.0, 0.0))[0]

    def ms(name: str) -> float:
        return (t.get(name, {}).get("seconds", 0.0) + worker_delta.get(name, (0.0, 0.0))[1]) * 1e3

    def info(name: str, key: str, source=t) -> float:
        return source.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    execute_ms = ms("engine.executor.execute") / ops
    m["engine.executor.execute.calls"] = calls("engine.executor.execute") / ops
    m["engine.executor.execute.ms_per_op"] = execute_ms
    m["engine.executor.execute.share"] = execute_ms / wall_ms
    m["engine.executor.init.ms_per_op"] = ms("engine.executor.init") / ops
    for name in ("sptensor.csf.from_coo", "engine.plan_cache.operand_signature"):
        m[f"{name}.calls_per_op"] = calls(name) / ops
        m[f"{name}.ms_per_op"] = ms(name) / ops
    for cache in ("schedule", "executor", "plan", "jit"):
        hits = after["caches"][cache]["hits"] - before["caches"][cache]["hits"]
        misses = after["caches"][cache]["misses"] - before["caches"][cache]["misses"]
        m[f"engine.plan_cache.hit_ratio.{cache}"] = ratio(hits, hits + misses)
    m["core.scheduler.schedule.calls"] = calls("core.scheduler.schedule")
    m["core.scheduler.schedule.ms"] = ms("core.scheduler.schedule")
    m["core.searches"] = float(after["searches"] - before["searches"])
    m["engine.plan_cache.cached_executor.ms"] = ms("engine.plan_cache.cached_executor")

    s0, s1 = setup_window
    setup = totals(in_window(spans + daemon_spans, s0, s1))
    for name in ("core.scheduler.schedule", "engine.plan_cache.cached_executor"):
        seconds = setup.get(name, {}).get("seconds", 0.0) + worker_setup.get(name, (0, 0))[1]
        m[f"setup.{name}.ms"] = seconds * 1e3
    m["setup.core.searches"] = float(at_ready_searches)

    flushes = calls("serve.service.flush")
    requests = info("serve.service.flush", "requests")
    groups = info("serve.service.flush", "groups")
    m["serve.service.submit.ms_per_op"] = ms("serve.service.submit") / ops
    m["serve.service.flush.ms_per_op"] = ms("serve.service.flush") / ops
    m["serve.service.flush.requests"] = ratio(requests, flushes)
    m["serve.service.flush.groups"] = ratio(groups, flushes)
    m["serve.service.amortized_ratio"] = ratio(requests - groups, requests)

    for name in ("encode_request", "decode_request", "result_reply", "decode_result"):
        m[f"serve.protocol.{name}.ms_per_op"] = ms(f"serve.protocol.{name}") / ops
    wire_bytes = info("serve.protocol.dumps", "bytes", t_client) + info(
        "serve.protocol.loads", "bytes", t_client
    )
    m["serve.protocol.bytes_per_op"] = wire_bytes / ops
    m["serve.daemon.unaccounted.ms_per_op"] = (
        ((w1 - w0) - covered_seconds(daemon, w0, w1)) * 1e3 / ops if daemon_spans else 0.0
    )

    maps = calls("runtime.pool.map")
    m["runtime.pool.map.ms_per_op"] = ms("runtime.pool.map") / ops
    m["runtime.pool.map.tasks_per_map"] = ratio(info("runtime.pool.map", "tasks"), maps)
    m["runtime.shm.publish.ms_per_op"] = ms("runtime.shm.publish") / ops
    m["runtime.shm.publish.bytes_per_op"] = info("runtime.shm.publish", "bytes") / ops
    for event in ("crashes", "retries", "respawns"):
        m[f"runtime.pool.{event}"] = float(
            after["supervision"][event] - before["supervision"][event]
        )
    m["runtime.pool.parallel_efficiency"] = efficiency

    dense_s = sum(self_seconds(client, name) for name in ("apps.cp_als", "apps.tucker_hooi"))
    m["apps.dense.ms_per_op"] = dense_s * 1e3 / ops
    return m


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    spans = None
    if args.traced:
        spans = tracer.Tracer()
        tracer.install(spans)
    import workloads

    daemon_trace = None
    if args.traced and args.workload == "serve-mixed":
        daemon_trace = f"{args.out}.daemon.jsonl"
    workload = workloads.make(args.workload, args.seed, args.size, daemon_trace)
    result: Dict[str, object] = {"versions": versions()}
    try:
        workload.setup()
        ready = tracer.now()
        origin = workload.setup_origin or args.spawned_at
        result["setup_s"] = ready - origin
        before = snapshot(workload)
        worker_at_ready = spans.worker_totals() if spans else {}
        cpu0 = workload.cpu_seconds()
        if hasattr(workload, "run_window"):
            window = workload.run_window(args.seconds, spans)
        else:
            window = workloads.timed_ops(workload, args.seconds, spans)
        cpu1 = workload.cpu_seconds()
        rss = workload.peak_rss_mb()
        worker_at_end = spans.worker_totals() if spans else {}
        after = snapshot(workload)
        problems, wrong = workload.check(window, reference=args.reference)
        result["reference_checked"] = args.reference
        result["warm_digest"] = workload.warm_digest()
        efficiency = 0.0
        if args.traced and args.workload == "batch-pool":
            efficiency = _parallel_efficiency(workload, window)
    finally:
        workload.close()

    ops = len(window.latencies)
    result.update(
        attempted=ops,
        failed=window.failed + wrong,
        problems=problems,
        samples=ops,
        latencies_ms=[x * 1e3 for x in window.latencies],
        window_s=window.end - window.start,
        cpu_s=cpu1 - cpu0,
        end_to_end={
            "setup_s": result["setup_s"],
            "ops_per_s": ops / (window.end - window.start),
            "latency_ms_p50": percentile_ms(window.latencies, 50),
            "latency_ms_p90": percentile_ms(window.latencies, 90),
            "cpu_ms_per_op": (cpu1 - cpu0) * 1e3 / ops,
            "peak_rss_mb": rss,
        },
    )
    if spans is not None:
        daemon_spans: List[dict] = []
        if daemon_trace is not None:
            _, daemon_spans = tracer.load_dump(daemon_trace)
        client_spans = [tracer.span_dict(s) for s in spans.spans]
        worker_delta = {
            name: (worker_at_end[name][0] - worker_at_ready[name][0],
                   worker_at_end[name][1] - worker_at_ready[name][1])
            for name in worker_at_end
        }
        result["layers"] = layer_metrics(
            client_spans, daemon_spans, worker_delta, worker_at_ready, window,
            (origin, ready), before, after, before["searches"], efficiency,
        )
        spans.dump(f"{args.out}.spans.jsonl", extra={"window": [window.start, window.end]})
    return _write(args.out, result)


def _parallel_efficiency(workload, window) -> float:
    """Serial time of the same batch / (workers x pooled time), medians."""
    import statistics

    serial = []
    for _ in range(3):
        t0 = tracer.now()
        workload.serial_outputs()
        serial.append(tracer.now() - t0)
    pooled = statistics.median(window.latencies)
    return statistics.median(serial) / (workload.workers() * pooled)


def _write(path: str, result: Dict[str, object]) -> int:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
