"""Deterministic fault injection and supervised worker-pool recovery.

Unit tests for the :mod:`repro.util.faults` registry (grammar, seeding,
limits, the wired ``shm.publish``/``store.write`` points) and for the
supervised :class:`~repro.runtime.WorkerPool` map: SIGKILLed workers and
stuck tasks are detected, the pool respawns and retries, and the serial
fallback guarantees bit-identical results when retries run out.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing.connection import wait

import numpy as np
import pytest

import repro.runtime.pool as pool_mod
from repro.engine.plan_store import PlanStore
from repro.runtime import (
    WorkerPool,
    publish,
    shared_pool,
    shutdown_pool,
    supervision_events,
)
from repro.runtime.pool import default_task_retries, default_task_timeout
from repro.util.faults import (
    FaultInjected,
    configure_faults,
    fault_point,
    faults_active,
    faults_snapshot,
    parse_faults,
    reset_faults,
)


class Square:
    """Picklable module-level callable for pool tests."""

    def __call__(self, x):
        return x * x


class SlowSquare:
    """Square with a fixed per-task delay (timeout tests)."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __call__(self, x):
        time.sleep(self.seconds)
        return x * x


class CrashOnce:
    """SIGKILL the executing worker until a sentinel file exists.

    The first worker to run a task drops the sentinel and dies; after the
    supervised retry starts fresh workers, every task sees the sentinel and
    completes — the retry itself succeeds in parallel, no serial fallback.
    """

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, x):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write(str(os.getpid()))
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
        return x * x


class FailOn:
    """Square, except that one item raises."""

    def __init__(self, bad: int) -> None:
        self.bad = bad

    def __call__(self, x):
        if x == self.bad:
            raise ValueError(f"bad item {x}")
        return x * x


def report_sigterm_disposition(_):
    """Worker-side probe: is SIGTERM back at the OS default?"""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


@pytest.fixture(autouse=True)
def _fresh_faults():
    """No fault plan and no lingering (plan-inheriting) pools around tests."""
    shutdown_pool()
    configure_faults(None)
    yield
    shutdown_pool()
    reset_faults()


# --------------------------------------------------------------------------- #
# Plan grammar
# --------------------------------------------------------------------------- #
class TestParseFaults:
    def test_grammar_and_defaults(self):
        specs = parse_faults("pool.task:kill, serve.execute:delay, a.b:raise:0.5:3")
        assert set(specs) == {"pool.task", "serve.execute", "a.b"}
        assert specs["pool.task"].mode == "kill"
        assert specs["pool.task"].arg == 1.0  # kill/raise default: always fire
        assert specs["pool.task"].limit is None
        assert specs["serve.execute"].mode == "delay"
        assert specs["serve.execute"].arg == 0.05  # delay default: 50 ms
        assert specs["a.b"] .arg == 0.5
        assert specs["a.b"].limit == 3

    def test_empty_plans_parse_to_nothing(self):
        assert parse_faults(None) == {}
        assert parse_faults("") == {}
        assert parse_faults("  , ") == {}

    @pytest.mark.parametrize(
        "bad",
        [
            "justapoint",  # no mode
            "p:frobnicate",  # unknown mode
            ":kill",  # empty point
            "p:kill:x",  # non-numeric arg
            "p:kill:-1",  # negative arg
            "p:raise:0.5:x",  # non-integer limit
            "p:raise:1:-2",  # negative limit
            "p:kill:1:1:1",  # too many fields
        ],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_faults(bad)


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #
class TestFaultPoint:
    def test_unconfigured_is_a_noop(self):
        assert not faults_active()
        fault_point("pool.task")  # must not raise
        assert faults_snapshot()["configured"] is None

    def test_raise_mode_fires_only_its_point(self):
        configure_faults("x.y:raise")
        fault_point("other.point")  # not in the plan
        with pytest.raises(FaultInjected, match="x.y"):
            fault_point("x.y")

    def test_limit_caps_firing_per_process(self):
        configure_faults("x.y:raise:1.0:2")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                fault_point("x.y")
        fault_point("x.y")  # third hit: limit reached, no-op
        point = faults_snapshot()["points"]["x.y"]
        assert point["hits"] == 3
        assert point["fired"] == 2

    def test_probability_is_deterministic_per_seed(self):
        def outcomes(seed):
            configure_faults("x.y:raise:0.5", seed=seed)
            fired = []
            for _ in range(32):
                try:
                    fault_point("x.y")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first = outcomes(7)
        assert outcomes(7) == first  # same plan + seed -> same decisions
        assert any(first) and not all(first)  # p=0.5 actually mixes

    def test_delay_mode_sleeps(self):
        configure_faults("x.y:delay:0.05")
        t0 = time.perf_counter()
        fault_point("x.y")
        assert time.perf_counter() - t0 >= 0.04

    def test_kill_mode_is_survivable_in_the_parent(self):
        # in the parent process a kill plan downgrades to a no-op, so
        # serial fallbacks and the daemon survive by construction
        configure_faults("x.y:kill")
        fault_point("x.y")
        assert faults_snapshot()["points"]["x.y"]["fired"] == 1


# --------------------------------------------------------------------------- #
# Wired injection points
# --------------------------------------------------------------------------- #
class TestWiredPoints:
    def test_shm_publish_fault_reaches_the_caller(self):
        configure_faults("shm.publish:raise")
        with pytest.raises(FaultInjected):
            publish({"A": np.ones(16)})

    def test_plan_store_write_fault_degrades_to_miss(self, tmp_path):
        store = PlanStore(tmp_path)
        configure_faults("store.write:raise")
        assert store.put("some-key", {"x": 1}) is False
        assert store.errors == 1
        assert store.get("some-key") is None  # degraded write == miss
        configure_faults(None)
        assert store.put("some-key", {"x": 1}) is True
        assert store.get("some-key") is not None


# --------------------------------------------------------------------------- #
# Supervised pool recovery
# --------------------------------------------------------------------------- #
class TestSupervisedPool:
    def test_killed_workers_fall_back_to_bit_identical_serial(self):
        configure_faults("pool.task:kill")  # every worker task dies
        before = supervision_events()
        with WorkerPool(2, task_retries=1) as pool:
            with pytest.warns(RuntimeWarning, match="worker died mid-map"):
                assert pool.map(Square(), range(8)) == [x * x for x in range(8)]
            stats = pool.stats()
        # first attempt crashes, the retry's respawned workers crash too,
        # then the serial fallback (where kill is a no-op) answers
        assert stats["crashes"] == 2
        assert stats["retries"] == 1
        assert stats["respawns"] == 1
        assert stats["serial_maps"] == 1
        after = supervision_events()
        assert after["crashes"] >= before["crashes"] + 2
        assert after["last_crash_unix"] is not None

    def test_transient_crash_retries_to_a_parallel_success(self, tmp_path):
        task = CrashOnce(str(tmp_path / "sentinel"))
        with WorkerPool(2, task_retries=1) as pool:
            assert pool.map(task, range(8)) == [x * x for x in range(8)]
            stats = pool.stats()
        assert stats["crashes"] == 1
        assert stats["retries"] == 1
        assert stats["serial_maps"] == 0  # the retry itself succeeded

    def test_task_timeout_triggers_serial_fallback(self):
        with WorkerPool(2, task_timeout=0.15, task_retries=0) as pool:
            with pytest.warns(RuntimeWarning, match="task timeout"):
                assert pool.map(SlowSquare(0.4), [1, 2]) == [1, 4]
            assert pool.stats()["timeouts"] == 1
            assert pool.stats()["serial_maps"] == 1

    def test_workers_shed_inherited_asyncio_signal_plumbing(self):
        """Forked workers must not share the parent's signal wakeup pipe.

        A worker forked from an asyncio parent (the serving daemon)
        inherits the loop's no-op SIGTERM handler and wakeup fd; without
        the worker start-up resetting them, a SIGTERM aimed at the worker
        would be swallowed *and* written into the shared pipe — which the
        parent's loop reads as its own SIGTERM, shutting the daemon down
        mid-session.
        """
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        old_fd = signal.set_wakeup_fd(write_fd)
        old_handler = signal.signal(signal.SIGTERM, lambda *a: None)
        try:
            with WorkerPool(2) as pool:
                # workers see the default disposition, not the no-op
                assert all(pool.map(report_sigterm_disposition, range(4)))
                pool.close()
            # ...and nothing leaked into the parent's wakeup pipe
            os.set_blocking(read_fd, False)
            with pytest.raises(BlockingIOError):
                os.read(read_fd, 1)
        finally:
            signal.signal(signal.SIGTERM, old_handler)
            signal.set_wakeup_fd(old_fd)
            os.close(read_fd)
            os.close(write_fd)

    @pytest.mark.parametrize("teardown", ["close", "drain"])
    def test_teardown_survives_externally_killed_idle_workers(self, teardown):
        """Idle workers killed from outside must not slow or wedge teardown.

        A process-group SIGTERM (systemd stopping the daemon's cgroup) or
        the OOM killer can end idle workers at any instant.  Workers share
        no lock or queue, so ``close()`` and ``drain()`` must still return
        at once, and so must the garbage collection of the pool.
        """
        others = set(multiprocessing.active_children())
        pool = WorkerPool(2)
        assert pool.map(Square(), range(8)) == [x * x for x in range(8)]
        procs = [p for p in multiprocessing.active_children() if p not in others]
        assert len(procs) == 2
        for p in procs:
            os.kill(p.pid, signal.SIGKILL)
        for p in procs:
            # the sentinel closes on death even when SIGCHLD is ignored,
            # where ``exitcode`` would stay None
            assert wait([p.sentinel], 5.0), "worker survived SIGKILL"

        elapsed = []

        def tear_down():
            start = time.monotonic()
            getattr(pool, teardown)()
            gc.collect()
            elapsed.append(time.monotonic() - start)

        worker = threading.Thread(target=tear_down, daemon=True)
        worker.start()
        worker.join(20.0)
        assert not worker.is_alive(), f"{teardown}() hung on dead workers"
        assert elapsed[0] < 1.0, f"{teardown}() took {elapsed[0]:.2f}s"
        assert not pool.is_running

    def test_kill_map_finishes_with_sigchld_ignored(self):
        """Crash detection must not depend on reaping the dead worker.

        With SIGCHLD ignored the kernel reaps children itself and
        ``Process.exitcode`` never leaves ``None``; a crash detector that
        polls it waits forever.  The map runs in a child interpreter so the
        disposition does not leak into this one.
        """
        script = textwrap.dedent(
            """
            import math, signal, warnings
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            from repro.runtime import WorkerPool
            from repro.util.faults import configure_faults
            configure_faults("pool.task:kill")
            with WorkerPool(2, task_retries=1) as pool:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    print(repr(pool.map(math.sqrt, range(16))))
                print(pool.stats()["crashes"], pool.stats()["serial_maps"])
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env.pop("REPRO_FAULTS", None)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert out.returncode == 0, out.stderr
        results, counters = out.stdout.splitlines()
        assert results == repr([math.sqrt(x) for x in range(16)])
        assert counters == "2 1"  # both attempts crashed, serial answered

    def test_close_cycles_raise_no_thread_exceptions(self, monkeypatch):
        """Back-to-back map + close cycles leave no failure behind.

        Teardown races show up as exceptions in helper threads (reported
        only through ``threading.excepthook``) or as an error from
        ``close()`` itself; 300 cycles make a rare race likely to show.
        """
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        for _ in range(300):
            pool = WorkerPool(2)
            assert pool.map(Square(), range(4)) == [0, 1, 4, 9]
            pool.close()
        assert hooked == []

    def test_task_exception_reaches_the_caller_and_pool_stays_usable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="bad item 3"):
                pool.map(FailOn(3), range(8))
            # the chunks in flight were drained: no stale reply is read
            # as this map's results
            assert pool.map(Square(), range(8)) == [x * x for x in range(8)]
            assert pool.stats()["serial_maps"] == 0

    def test_stats_surface_the_supervision_knobs(self):
        with WorkerPool(2, task_timeout=2.5, task_retries=3) as pool:
            stats = pool.stats()
        assert stats["task_timeout"] == 2.5
        assert stats["task_retries"] == 3


class TestEnvKnobs:
    def test_task_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert default_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_task_timeout() is None
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
            monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
            assert default_task_timeout() is None

    def test_task_retries_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert default_task_retries() == 1
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert default_task_retries() == 3
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-2")
        assert default_task_retries() == 0
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_RETRIES"):
            monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
            assert default_task_retries() == 1


class TestSharedPoolEviction:
    def test_lru_eviction_drains_instead_of_terminating(self, monkeypatch):
        drained, closed = [], []
        orig_drain = pool_mod.WorkerPool.drain
        monkeypatch.setattr(
            pool_mod.WorkerPool,
            "drain",
            lambda self: (drained.append(self.workers), orig_drain(self)),
        )
        monkeypatch.setattr(
            pool_mod.WorkerPool,
            "close",
            lambda self: closed.append(self.workers),
        )
        for n in range(2, 2 + pool_mod._MAX_SHARED_POOLS + 1):
            shared_pool(n)
        # one size over the cap: the least-recently-used pool is drained
        # (graceful — another thread may be mid-map on it), never closed
        assert drained == [2]
        assert closed == []
