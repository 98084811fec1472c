"""The repository benchmark: one command, three end-to-end workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decomp --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, measured from outside the program by wrapping the
public functions of each layer (see ``perfbench/tracer.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment the numbers were taken in.  Per-run details (sample counts,
raw latencies, spans of the latest traced run) go to ``.perfbench_out/`` at
the repository root.

Every measured process starts with ``REPRO_*`` cleared, so the program's
defaults are what is measured, and with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("decomp", "serve-mixed", "batch-pool")
#: Default seed (the committed baseline) and a seed held back from the
#: baseline and the spread measurements, for confirming later claims on
#: inputs a change was not tuned on.
DEFAULT_SEED = 0
HELD_BACK_SEED = 7919
#: Fresh processes per untraced run.  Each sets up and then times an equal
#: share of ``--seconds``; ``setup_s`` is the median of their set-up times
#: and the other metrics combine their timed ops (:func:`combined`).
#: Spreading the timed ops over several processes, with set-ups in between,
#: evens out the host's drift.
RUN_PROCESSES = 3
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0

BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def clean_env() -> Dict[str, str]:
    """The parent environment without ``REPRO_*``, BLAS pinned, src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_PINS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    """Content hash of ``src/`` — names the code when there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class ChildFailed(RuntimeError):
    pass


def run_child(args, env, deadline: float, seconds: float, tag: str,
              reference: bool = False, traced: bool = False) -> dict:
    """Run one measured process; kill its whole session on timeout."""
    out = OUT_DIR / f"{args.workload}-trace{args.trace}-{tag}.json"
    for stale in OUT_DIR.glob(f"{out.name}*"):
        stale.unlink()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--size", args.size,
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
        "--out", str(out),
    ]
    if reference:
        cmd.append("--reference")
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # stop anything the process left behind (daemon, pool workers)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not out.exists():
        raise ChildFailed(f"{tag} process ended with {code!r}")
    return json.loads(out.read_text())


def combined(children: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of a run from those of its processes.

    Ops, timed seconds and CPU seconds are summed; ``setup_s`` is the
    median and ``peak_rss_mb`` the largest.  Latency percentiles are each
    process's, averaged: the host's speed switches between a fast and a slow state
    every few tens of seconds, which makes per-op latencies bimodal, and a
    median pooled over all ops jumps between the two modes where the
    average of the processes' medians moves smoothly.
    """
    ops = sum(c["samples"] for c in children)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "ops_per_s": ops / sum(c["window_s"] for c in children),
        "latency_ms_p50": statistics.mean(c["end_to_end"]["latency_ms_p50"] for c in children),
        "latency_ms_p90": statistics.mean(c["end_to_end"]["latency_ms_p90"] for c in children),
        "cpu_ms_per_op": sum(c["cpu_s"] for c in children) * 1e3 / ops,
        "peak_rss_mb": max(c["end_to_end"]["peak_rss_mb"] for c in children),
    }


def unverified(children: List[dict]) -> Tuple[List[str], int]:
    """(problems, ops) of processes whose warm result differs from the one
    of the process that ran the reference check."""
    expected = next(c["warm_digest"] for c in children if c["reference_checked"])
    odd = [c for c in children if c["warm_digest"] != expected]
    problems = [f"{len(odd)} processes' warm results differ from the reference-checked one"]
    return (problems if odd else []), sum(c["attempted"] for c in odd)


def metric_units() -> Dict[str, Dict[str, str]]:
    spec = json.loads(BENCHMARK.read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}, the baseline; "
                   f"{HELD_BACK_SEED} is held back for confirming later claims)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input sizes; 'smoke' is for the self-test only")
    args = p.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    OUT_DIR.mkdir(exist_ok=True)
    env = clean_env()
    deadline = started + DEADLINE_S
    children: List[dict] = []
    try:
        if args.trace == 0:
            share = args.seconds / RUN_PROCESSES
            for rep in range(RUN_PROCESSES):
                children.append(run_child(args, env, deadline, share, f"run{rep}",
                                          reference=rep == RUN_PROCESSES - 1))
            values = combined(children)
            names = units["end_to_end"]
        else:
            # untraced, traced, traced, untraced: four fresh processes, each
            # timing a quarter of the run, so that a steady drift of the
            # host's speed cancels out of the tracing overhead
            quarter = args.seconds / 4.0
            plain: List[dict] = []
            traced: List[dict] = []
            for tag, on in (("untraced0", False), ("traced0", True),
                            ("traced1", True), ("untraced1", False)):
                child = run_child(args, env, deadline, quarter, tag, traced=on,
                                  reference=tag == "untraced1")
                (traced if on else plain).append(child)
            children += plain + traced
            values = {
                name: statistics.mean(c["layers"][name] for c in traced)
                for name in traced[0]["layers"]
            }
            values["trace.overhead_frac"] = sum(
                c["end_to_end"]["latency_ms_p50"] for c in traced
            ) / sum(c["end_to_end"]["latency_ms_p50"] for c in plain) - 1.0
            names = units["per_layer"]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems, failed = unverified(children)
    problems += [msg for c in children for msg in c["problems"]]
    failed += sum(c["failed"] for c in children)
    for msg in problems:
        print(f"perfbench: wrong output: {msg}", file=sys.stderr)
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "versions": children[0]["versions"],
        "env": {
            **{k: env[k] for k in (*BLAS_PINS, "PYTHONHASHSEED")},
            "REPRO_cleared": sorted(k for k in os.environ if k.startswith("REPRO_")),
        },
        "samples": [c["samples"] for c in children],
        "wall_s": time.monotonic() - started,
    }
    result = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, result=result), indent=1))
    print("perfbench-env " + json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
