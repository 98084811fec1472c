"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs one untimed pass that
fills the program's caches (:meth:`setup`), then runs timed ops
(:meth:`op`, or :meth:`run_window` for the closed-loop client).  The output
of every timed op is fingerprinted (:func:`digest`) after its latency is
taken, and :meth:`check` compares every fingerprint with the reference
afterwards, outside the timed interval.

* ``decomp`` — a library user factorising one tensor.  One op is one job:
  ``cp_als`` then ``tucker_hooi``, each with a fixed sweep count, on a
  synthetic ``nell-2`` preset.  The engine does few, large kernel calls;
  serving, the pool and the wire protocol are bypassed.
* ``serve-mixed`` — daemon clients that each wait for their reply (closed
  loop).  ``repro serve --daemon`` runs with default settings in its own
  process; one connection keeps a fixed number of requests in flight,
  cycling the seeded ``scenario_mix(..., "mixed")``.  Glue dominates: wire
  codec, admission, signature keying, many tiny kernel calls.  The pool is
  bypassed (serial by default).
* ``batch-pool`` — an offline batch through an in-process
  ``ContractionService(workers=-1)``.  One op is one batch of 16 requests:
  4 tenants' factor sets x (3 MTTKRP modes + 1 TTMc) on one shared tensor.
  The pool and the shared-memory broadcast do the work.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import resource
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from tracer import now

HERE = Path(__file__).resolve().parent
CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class DecompSize:
    scale: float
    nnz: int
    cp_rank: int
    tucker_ranks: Tuple[int, int, int]
    sweeps: int


@dataclass(frozen=True)
class ServeSize:
    requests: int
    inflight: int


@dataclass(frozen=True)
class BatchSize:
    scale: float
    nnz: int
    rank: int
    ttmc_rank: int
    tenants: int


SIZES = {
    "full": {
        "decomp": DecompSize(2e-2, 20_000, 16, (8, 8, 8), 5),
        "serve-mixed": ServeSize(64, 4),
        "batch-pool": BatchSize(2e-2, 30_000, 32, 8, 4),
    },
    "smoke": {
        "decomp": DecompSize(5e-3, 1_500, 4, (2, 2, 2), 2),
        "serve-mixed": ServeSize(8, 2),
        "batch-pool": BatchSize(5e-3, 1_500, 4, 2, 2),
    },
}


# --------------------------------------------------------------------------- #
# Process accounting
# --------------------------------------------------------------------------- #
def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set size of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(output) -> object:
    """Fingerprint of an op's output: equal fingerprints mean bit-identity.

    Dense arrays and COO tensors hash shape, dtype and bytes (blake2b);
    floats keep their exact hex form; sequences are fingerprinted per item.
    """
    from repro.sptensor.coo import COOTensor

    if isinstance(output, (list, tuple)):
        return tuple(digest(x) for x in output)
    if isinstance(output, float):
        return float(output).hex()
    h = hashlib.blake2b(digest_size=16)
    if isinstance(output, COOTensor):
        h.update(f"coo{tuple(output.shape)}".encode())
        parts = (output.indices, output.values)
    else:
        parts = (output,)
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Window:
    """What one timed interval measured."""

    start: float
    end: float
    latencies: List[float]
    failed: int
    #: fingerprints of the outputs of the ops that did not fail
    digests: list


def timed_ops(workload, seconds: float, tracer=None) -> Window:
    """Run *workload*'s ops back to back until *seconds* have passed."""
    latencies: List[float] = []
    digests: list = []
    failed = 0
    start = now()
    i = 0
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = now()
        try:
            output = workload.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            output = None
        t1 = now()
        latencies.append(t1 - t0)
        if output is not None:
            digests.append(digest(output))
        i += 1
        if t1 - start >= seconds:
            break
    if tracer is not None:
        tracer.op_id = None
    return Window(start, t1, latencies, failed, digests)


def count_wrong(digests: list, expected, what: str) -> Tuple[List[str], int]:
    """(problems, wrong ops) of timed-op fingerprints against *expected*."""
    wrong = sum(d != expected for d in digests)
    problems = [f"{wrong} of {len(digests)} timed {what}"] if wrong else []
    return problems, wrong


# --------------------------------------------------------------------------- #
# decomp
# --------------------------------------------------------------------------- #
class _CaptureExecutes:
    """Keep (kernel, operands, output copy) of the executes numbered *keep*."""

    def __init__(self, keep: frozenset) -> None:
        self.keep = keep
        self.calls: List[tuple] = []

    def __enter__(self) -> "_CaptureExecutes":
        from repro.engine.executor import LoopNestExecutor

        self._original = LoopNestExecutor.__dict__["execute"]
        original, calls, keep = self._original, self.calls, self.keep
        seen = itertools.count()

        def execute(executor, tensors):
            out = original(executor, tensors)
            if next(seen) in keep:
                calls.append((executor.kernel, dict(tensors), np.array(out, copy=True)))
            return out

        LoopNestExecutor.execute = execute
        return self

    def __exit__(self, *exc) -> None:
        from repro.engine.executor import LoopNestExecutor

        LoopNestExecutor.execute = self._original


class Decomp:
    name = "decomp"

    def __init__(self, seed: int, size: DecompSize) -> None:
        self.seed = seed
        self.size = size
        self.setup_origin: Optional[float] = None  # program start = process start

    def setup(self) -> None:
        from repro.sptensor.datasets import load_preset

        s = self.size
        self.tensor = load_preset("nell-2", scale=s.scale, max_nnz=s.nnz, seed=self.seed)
        # the warm job doubles as the correctness sample: cp_als runs
        # `order` MTTKRPs per sweep, then tucker_hooi starts with its mode-0
        # TTMc; the first sweep's MTTKRPs and that TTMc go to the reference
        order = self.tensor.order
        with _CaptureExecutes(frozenset([*range(order), s.sweeps * order])) as capture:
            self.warm_fits = self._job()
        self.captured = capture.calls

    def _job(self) -> tuple:
        """One decomposition job; returns its CP and Tucker fit trajectories."""
        import repro.apps as apps

        s = self.size
        cp = apps.cp_als(
            self.tensor, s.cp_rank, iterations=s.sweeps, seed=self.seed, tolerance=0.0
        )
        tk = apps.tucker_hooi(
            self.tensor, s.tucker_ranks, iterations=s.sweeps, seed=self.seed, tolerance=0.0
        )
        return tuple(cp.fits), tuple(tk.fits)

    def op(self, i: int) -> tuple:
        return self._job()

    def warm_digest(self) -> object:
        return digest(self.warm_fits)

    def cpu_seconds(self) -> float:
        return sum(os.times()[:2])

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def check(self, window: Window, reference: bool = True) -> Tuple[List[str], int]:
        """Every timed job's fit trajectory vs the warm job's, bit for bit,
        and the warm job's captured kernel outputs vs the dense reference.

        With *reference* false (every process of a run but one) the dense
        reference check is skipped; ``run.py`` then requires this process's
        warm fits to equal those of the process that ran it (:meth:`warm_digest`).
        """
        from repro.engine.reference import assert_same_result, dense_reference

        problems, wrong = count_wrong(
            window.digests, digest(self.warm_fits),
            "fit trajectories differ from the warm job's",
        )
        if not reference:
            return problems, wrong
        warm_problems = []
        for kernel, tensors, out in self.captured:
            try:
                assert_same_result(out, dense_reference(kernel, tensors))
            except AssertionError as exc:
                warm_problems.append(f"{kernel}: {exc}")
        if len(self.captured) != self.tensor.order + 1:
            warm_problems.append(f"captured {len(self.captured)} kernel outputs")
        if warm_problems:
            # the warm job is wrong, and every timed job reproduces it or differs
            wrong = len(window.digests)
        return problems + warm_problems, wrong

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, size: ServeSize, trace_out: Optional[str]) -> None:
        self.seed = seed
        self.size = size
        self.trace_out = trace_out
        self.setup_origin: Optional[float] = None
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def setup(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.scenarios import scenario_mix

        self.requests = scenario_mix(self.size.requests, "mixed", seed=self.seed)
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--daemon", "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "daemon_main.py"), self.trace_out,
                   "serve", "--daemon", "--port", "0"]
        # program start: the daemon process is the program here
        self.setup_origin = now()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        found = re.search(r"listening on (\S+):(\d+)", banner)
        if found is None:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.client = ServeClient(found.group(1), int(found.group(2)), timeout=120.0)
        self.warm = self.client.run(self.requests)

    def run_window(self, seconds: float, tracer=None) -> Window:
        """Closed loop: keep ``inflight`` requests outstanding on one connection."""
        from repro.serve.protocol import ServeError

        n = len(self.requests)
        latencies: List[float] = []
        digests: list = []
        failed = 0
        pending: deque = deque()
        sent = 0
        start = now()
        stopping = False
        while True:
            while not stopping and len(pending) < self.size.inflight:
                if tracer is not None:
                    tracer.op_id = sent
                pending.append((sent, now(), self.client.submit(self.requests[sent % n])))
                sent += 1
            if not pending:
                break
            index, t0, handle = pending.popleft()
            if tracer is not None:
                tracer.op_id = index
            try:
                reply = handle.result()
            except ServeError as exc:
                print(f"request {index} failed: {exc}", file=sys.stderr)
                failed += 1
                reply = None
            t1 = now()
            latencies.append(t1 - t0)
            if reply is not None:
                digests.append((index % n, digest(reply)))
            stopping = stopping or t1 - start >= seconds
        if tracer is not None:
            tracer.op_id = None
        return Window(start, t1, latencies, failed, digests)

    def stats(self) -> dict:
        return self.client.stats()

    def warm_digest(self) -> None:
        return None  # every process checks against execute_sequential

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def check(self, window: Window, reference: bool = True) -> Tuple[List[str], int]:
        """Every daemon reply vs in-process execution (cheap: always runs)."""
        from repro.serve.service import execute_sequential

        expected = [digest(out) for out in execute_sequential(self.requests)]
        problems = [
            f"warm reply {i} differs from execute_sequential"
            for i, out in enumerate(self.warm) if digest(out) != expected[i]
        ]
        wrong = sum(d != expected[i] for i, d in window.digests)
        if wrong:
            problems.append(
                f"{wrong} of {len(window.digests)} timed replies differ from execute_sequential"
            )
        return problems, wrong

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown_server(wait=True)
            finally:
                self.client.close()
                self.client = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# batch-pool
# --------------------------------------------------------------------------- #
class BatchPool:
    name = "batch-pool"

    def __init__(self, seed: int, size: BatchSize) -> None:
        self.seed = seed
        self.size = size
        self.setup_origin: Optional[float] = None

    def setup(self) -> None:
        from repro.serve.request import mttkrp_request, ttmc_request
        from repro.serve.service import ContractionService
        from repro.sptensor.datasets import load_preset

        s = self.size
        tensor = load_preset("nell-2", scale=s.scale, max_nnz=s.nnz, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        order = tensor.order
        self.requests = []
        for _ in range(s.tenants):
            factors = [rng.random((dim, s.rank)) for dim in tensor.shape]
            ttmc_factors = [rng.random((dim, s.ttmc_rank)) for dim in tensor.shape]
            for mode in range(order):
                others = [factors[n] for n in range(order) if n != mode]
                self.requests.append(mttkrp_request(tensor, others, mode=mode))
            self.requests.append(ttmc_request(tensor, ttmc_factors[1:], mode=0))
        self.service = ContractionService(workers=-1)
        self.warm = self.service.run(self.requests)

    def op(self, i: int) -> list:
        return self.service.run(self.requests)

    def warm_digest(self) -> None:
        return None  # every process checks against a serial run

    def workers(self) -> int:
        from repro.runtime import resolve_workers

        return min(resolve_workers(-1), len(self.requests))

    def cpu_seconds(self) -> float:
        import multiprocessing

        own = sum(os.times()[:2])
        return own + sum(proc_cpu_seconds(p.pid) for p in multiprocessing.active_children())

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def serial_outputs(self):
        from repro.serve.service import ContractionService

        return ContractionService(workers=0).run(self.requests)

    def check(self, window: Window, reference: bool = True) -> Tuple[List[str], int]:
        """Every pooled batch vs a serial run of the batch (cheap: always runs)."""
        expected = digest(self.serial_outputs())
        problems, wrong = count_wrong(
            window.digests, expected, "pooled batches differ from serial"
        )
        if digest(self.warm) != expected:
            problems.append("warm pooled batch differs from serial")
        return problems, wrong

    def close(self) -> None:
        # the graceful stop of a finished batch: shutdown_pool SIGKILLs the
        # workers first, and now and then the stdlib teardown after it fails
        # reading the task queue (EOFError)
        from repro.runtime import drain_pools

        drain_pools()


def make(name: str, seed: int, size: str, trace_out: Optional[str] = None):
    sizes = SIZES[size]
    if name == "decomp":
        return Decomp(seed, sizes[name])
    if name == "serve-mixed":
        return ServeMixed(seed, sizes[name], trace_out)
    if name == "batch-pool":
        return BatchPool(seed, sizes[name])
    raise ValueError(f"unknown workload {name!r}")
