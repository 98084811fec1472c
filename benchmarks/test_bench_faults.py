"""Fault-tolerance overhead: the supervised pool vs a bare stdlib executor.

Supervision (waiting on worker sentinels as well as result pipes,
crash/timeout detection, retry bookkeeping) guards every parallel map the
serving stack issues, so it must be close to free on the no-fault hot
path.  This benchmark runs the same compute-bound workload, with the same
chunking, through a :class:`~repro.runtime.WorkerPool` and through a bare
``concurrent.futures.ProcessPoolExecutor`` (fork context, no supervision)
in interleaved rounds, and gates the pool's median map time at **< 5%**
(plus a 10 ms absolute allowance for scheduler noise) over the
executor's.  Medians, not minimums: on a shared host one quiet moment
makes a round's minimum, and such moments fall on either variant at
random, so minimums of 11 rounds still differed by -18% to +11% between
two equal-cost variants.

The timed rounds run in a child interpreter with BLAS pinned to one thread
per process, as ``perfbench`` does: unpinned, every worker starts one BLAS
thread per CPU, and on a 2-CPU host the ratio swung from 0.7 to 8.  Each
map takes 160–230 ms on such a host, so the 10 ms allowance is
small next to it.

A second, informational benchmark measures the cost of the recovery path
itself: with every worker task SIGKILLed (``pool.task:kill``), a map
still returns bit-identical results via retry + serial fallback; the
recorded row shows what a full crash-and-recover round trip costs
relative to the clean run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.runtime import WorkerPool
from repro.util.faults import configure_faults, reset_faults

from _workloads import format_table, record_rows

#: Tasks per map of the crash-recovery benchmark, and workers per pool.
N_TASKS = 16
WORKERS = 2
#: Rounds per variant of the overhead benchmark.
ROUNDS = 11
#: The overhead workload: OVERHEAD_TASKS matmuls of OVERHEAD_SIZE squared,
#: at least 100 ms per map on one BLAS thread per worker.
OVERHEAD_SIZE = 448
OVERHEAD_TASKS = 48
PINNED_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MatmulTask:
    """Picklable compute-bound task (seeded, deterministic per input)."""

    def __init__(self, size: int) -> None:
        self.size = size

    def __call__(self, seed: int) -> float:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((self.size, self.size))
        return float(np.linalg.norm(a @ a))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def overhead_rounds() -> dict:
    """Median map time (s) over interleaved rounds: the pool, the executor."""
    task = MatmulTask(OVERHEAD_SIZE)
    items = list(range(OVERHEAD_TASKS))
    chunksize = max(1, OVERHEAD_TASKS // (4 * WORKERS))
    fork = multiprocessing.get_context("fork")
    with WorkerPool(WORKERS) as pool, ProcessPoolExecutor(
        WORKERS, mp_context=fork
    ) as executor:

        def pool_map():
            return pool.map(task, items, chunksize=chunksize)

        def executor_map():
            return list(executor.map(task, items, chunksize=chunksize))

        # warm both (fork + import cost) outside the timed rounds
        assert pool_map() == executor_map()
        pool_times, base_times = [], []
        for _ in range(ROUNDS):  # interleaved: drift hits both variants
            base_times.append(_timed(executor_map))
            pool_times.append(_timed(pool_map))
    return {
        "pool_s": statistics.median(pool_times),
        "baseline_s": statistics.median(base_times),
    }


@pytest.mark.smoke
def test_supervision_overhead_under_five_percent(benchmark):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **PINNED_BLAS, "PYTHONPATH": os.path.abspath(src)}

    def measure() -> dict:
        out = subprocess.run(
            [sys.executable, __file__],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    sup, base = times["pool_s"], times["baseline_s"]
    rows = [
        {
            "tasks": OVERHEAD_TASKS,
            "size": OVERHEAD_SIZE,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "pool_ms": sup * 1e3,
            "baseline_ms": base * 1e3,
            "overhead_pct": (sup / base - 1.0) * 100.0,
        }
    ]
    record_rows(benchmark, rows)
    print("\n" + format_table(rows))

    # the acceptance bar: supervision costs < 5% on the no-fault hot
    # path (10 ms absolute slack absorbs scheduler noise at this scale)
    assert sup <= base * 1.05 + 0.010


@pytest.mark.smoke
def test_crash_recovery_round_trip(benchmark):
    """Crash-and-recover cost, recorded (no gate: the point is the row).

    Every worker task dies, so the map pays crash detection + respawn +
    retry + the serial fallback — and must still return the same answers.
    """
    task = MatmulTask(128)
    items = list(range(N_TASKS))
    try:
        configure_faults(None)
        with WorkerPool(WORKERS, task_retries=1) as pool:
            expected = pool.map(task, items)
            clean = _timed(lambda: pool.map(task, items))
        configure_faults("pool.task:kill")
        with WorkerPool(WORKERS, task_retries=1) as pool:
            start = time.perf_counter()
            with pytest.warns(RuntimeWarning, match="worker died mid-map"):
                crashed = pool.map(task, items)
            recovery = time.perf_counter() - start
            assert pool.stats()["serial_maps"] == 1
        assert crashed == expected  # recovery never changes the answer
    finally:
        reset_faults()

    rows = [
        {
            "tasks": N_TASKS,
            "workers": WORKERS,
            "clean_ms": clean * 1e3,
            "recovery_ms": recovery * 1e3,
            "slowdown": recovery / clean,
        }
    ]
    record_rows(benchmark, rows)
    print("\n" + format_table(rows))

    # keep a pytest-benchmark record of the clean supervised map
    with WorkerPool(WORKERS) as pool:
        benchmark.pedantic(lambda: pool.map(task, items), rounds=2, iterations=1)


if __name__ == "__main__":
    print(json.dumps(overhead_rounds()))
