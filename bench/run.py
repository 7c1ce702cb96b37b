"""pointscatter benchmark: seeded closed-loop workloads with output checks.

    python3 bench/run.py --workload field_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke          # a few ops per workload, both modes
    python3 bench/run.py --write-golden   # re-record bench/golden.json

A run spawns fresh interpreters one after another: several set-up probes,
then the measuring worker (``worker.py``).  ``setup_s`` is the median
spawn-to-ready time of all of them.  The worker's result becomes the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``); the line before it carries the run's
details (versions, machine, seed, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Meter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 4          # plus the worker itself: five set-up samples per run
CALIBRATION_RUNS = 40     # kernel runs before each spawn, to scale set-up times
RUN_LIMIT_S = 170.0       # the whole run, all interpreters included
SMOKE_OPS = 4


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    # single-threaded numerics: one client on a small machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("POINTSCATTER_SEED", None)
    return env


def _spawn(worker_args, deadline, meter=None):
    """Start a worker, wait for its ``ready`` line, return (process, setup seconds)."""
    if meter is not None:
        meter.sample(CALIBRATION_RUNS)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *worker_args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line != "ready\n":
        _finish(proc, deadline)
        raise BenchError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline):
    """Collect the rest of a worker's output; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run time limit") from None
    return out


def run(workload, seed, seconds, trace, probes=SETUP_PROBES, max_ops=None):
    """One benchmark run; returns (result line dict, details dict)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    meter = Meter()
    setups = []
    for _ in range(probes):
        proc, setup = _spawn(["--probe"], deadline, meter)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        setups.append(setup)

    work_dir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--work-dir", str(work_dir),
                "--deadline-s", str(max(1.0, deadline - time.monotonic() - 10.0))]
        if max_ops is not None:
            args += ["--max-ops", str(max_ops)]
        proc, setup = _spawn(args, deadline, meter)
        setups.append(setup)
        out = _finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = report["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups) * meter.scale(), "unit": "s"}
    info = report["info"]
    info["samples"].update(setup=len(setups), raw_setup_s=statistics.median(setups),
                           setup_kernel_rate=meter.rate())
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return result, info


def smoke():
    """A handful of ops per workload, untraced and traced; every metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, info = run(workload, 1, 1, trace, probes=0, max_ops=SMOKE_OPS)
            missing = [name for name in wanted[trace] if name not in result["metrics"]]
            label = f"{workload} trace={trace}"
            if missing:
                problems.append(f"{label}: missing {missing}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed: {info['failures']}")
            if trace and result["metrics"]["failed_ratio"]["value"] != 0:
                problems.append(f"{label}: failed_ratio is not 0")
            print(f"{label}: {result['attempted']} ops, {len(result['metrics'])} metrics")
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="pointscatter benchmark")
    parser.add_argument("--workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.write_golden:
            work_dir = BENCH / ".work" / f"golden-{os.getpid()}"
            work_dir.mkdir(parents=True, exist_ok=True)
            try:
                proc, _ = _spawn(["--write-golden", "--work-dir", str(work_dir)],
                                 time.monotonic() + RUN_LIMIT_S)
                print(_finish(proc, time.monotonic() + RUN_LIMIT_S), end="")
                return proc.returncode
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
        if args.workload is None:
            parser.error("--workload is required")
        result, info = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
