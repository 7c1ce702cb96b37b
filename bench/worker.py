"""One benchmark process: imports the program, then drives one workload in-process.

Started by ``run.py``, once per run, in a fresh interpreter.  The first thing
it does is import ``pointscatter.cli`` from the checkout's ``src`` and print
``ready``; ``run.py`` times spawn-to-ready as the set-up time.  With
``--probe`` it stops there.  Otherwise it runs a single-client closed loop:
each operation is one ``pointscatter.cli.main(argv)`` call, timed alone; its
output is checked afterwards, outside the timed interval.  The last line of
standard output is a JSON object with the counts, metrics and run details.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import pointscatter.cli  # noqa: E402  (this import is the measured set-up)

print("ready", flush=True)
if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from calibrate import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402

GOLDEN_PATH = BENCH / "golden.json"
SPANS_DIR = BENCH / "out"


class Tally:
    """Counts, latencies and machine-speed samples of one closed-loop pass."""

    def __init__(self):
        self.meter = Meter()
        self.meter.sample(3)
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.cells = 0
        self.bytes_out = 0
        self.off_far_point_calls = 0  # field_values_at calls from ops without --far-field
        self.failures = []

    @property
    def busy_s(self):
        return sum(self.latencies)

    def ops_per_s(self):
        """Throughput at the reference machine speed."""
        return len(self.latencies) / (self.busy_s * self.meter.scale())


def run_op(op):
    """Run one operation; return (seconds, outcome)."""
    if op.env_seed is not None:
        os.environ[workloads.SEED_ENV_VAR] = str(op.env_seed)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = pointscatter.cli.main(op.argv)
            except Exception:  # a raw traceback is a defect: record it, go on
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
    outcome = workloads.check(op, rc, out.getvalue(), err.getvalue(), len(caught))
    if op.out is not None:
        for path in op.out.parent.glob(op.out.name + "*"):
            path.unlink()
    return elapsed, outcome


def closed_loop(workload, seed, budget_s, work_dir, deadline, max_ops=None, tracer=None):
    """Run whole cycles until the timed work reaches the budget.

    Stops early, mid-cycle, only at ``max_ops`` or the wall-clock deadline.
    """
    tally = Tally()
    for cycle in workloads.cycles(workload, seed, work_dir):
        for op in cycle:
            if tracer is not None:
                tracer.op = tally.attempted
                before = tracer.counters["fields.point_calls"]
            elapsed, outcome = run_op(op)
            tally.meter.after(elapsed)
            tally.latencies.append(elapsed)
            tally.attempted += 1
            tally.cells += outcome.cells
            tally.bytes_out += outcome.bytes_out
            tally.rejected += outcome.rejected
            if not outcome.ok:
                tally.failed += 1
                tally.failures.append(f"{op.kind} {op.argv}: {outcome.reason}")
            if tracer is not None and op.workload == "field_grid" and op.params["extra"] != "far":
                tally.off_far_point_calls += tracer.counters["fields.point_calls"] - before
            if (max_ops is not None and tally.attempted >= max_ops) or time.monotonic() > deadline:
                return tally
        if tally.busy_s >= budget_s:
            return tally
    return tally


def golden_hashes(workload, work_dir):
    """SHA-256 of each default-argument output of the workload's commands."""
    os.environ.pop(workloads.SEED_ENV_VAR, None)
    hashes = {}
    for name, argv, path in workloads.golden_cases(workload, work_dir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = pointscatter.cli.main(argv)
        if rc != 0:
            hashes[name] = f"exit {rc}"
            continue
        payload = out.getvalue().encode("utf-8") if path is None else path.read_bytes()
        hashes[name] = hashlib.sha256(payload).hexdigest()
    for path in Path(work_dir).glob("golden*"):
        path.unlink()
    return hashes


def environment(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def latency_metrics(tally):
    """End-to-end timings, scaled to the reference machine speed."""
    scale = tally.meter.scale()
    ms = [1000.0 * t * scale for t in tally.latencies]
    p75 = statistics.quantiles(ms, n=4)[2] if len(ms) > 1 else ms[0]
    busy = tally.busy_s * scale
    return {
        "ops_per_s": (len(ms) / busy, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p75": (p75, "ms"),
        "cells_per_s": (tally.cells / busy, "1/s"),
    }, {"ops": len(ms), "beyond_p75": sum(m > p75 for m in ms),
        "raw_ops_per_s": len(ms) / tally.busy_s, "kernel_rate": tally.meter.rate()}


def layer_metrics(tracer, tally, untraced, mismatches):
    n = len(tally.latencies)
    scale = tally.meter.scale()
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls / n, "count/op")
        metrics[f"{layer}.self_ms"] = (1000.0 * self_s * scale / n, "ms/op")
    c = tracer.counters
    metrics.update({
        "specfun.array_points": (c["specfun.array_points"] / n, "count/op"),
        "kernel.quad_calls": (tracer.function_calls("kernel.green_cutoff_quadrature") / n,
                              "count/op"),
        "kernel.quad_error_max": (tracer.quad_error_max, "abs"),
        "fields.cells": (c["fields.cells"] / n, "count/op"),
        "fields.point_calls": (c["fields.point_calls"] / n, "count/op"),
        "fields.masked_cells": (c["fields.masked_cells"] / n, "count/op"),
        "transfer.solve_calls": (tracer.function_calls("transfer.solve_fundamental") / n,
                                 "count/op"),
        "cli.bytes_out": (tally.bytes_out / n, "B/op"),
        "cli.rejected": (tally.rejected / n, "count/op"),
        "cli.golden_mismatch": (mismatches, "count"),
        "trace.overhead_ratio": (tally.ops_per_s() / untraced.ops_per_s(), "ratio"),
    })
    return metrics


def top_functions(tracer, n_ops, scale, count=12):
    rows = sorted(zip(tracer.self_s, tracer.calls, tracer.names), reverse=True)[:count]
    return [{"function": name, "calls_per_op": calls / n_ops,
             "self_ms_per_op": 1000.0 * self_s * scale / n_ops}
            for self_s, calls, name in rows if calls]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--deadline-s", type=float, default=150.0,
                        help="wall-clock limit for the whole process")
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop each pass after this many operations (smoke mode)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the golden hashes of the current program and exit")
    args = parser.parse_args()
    deadline = time.monotonic() + args.deadline_s

    if args.write_golden:
        hashes = {}
        for workload in workloads.WORKLOADS:
            hashes.update(golden_hashes(workload, args.work_dir))
        GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
        print(json.dumps({"golden": hashes}))
        return 0

    # warm-up: one checked operation, left out of the timings, so that lazy
    # set-up inside the program is done before anything is timed
    warm = closed_loop(args.workload, args.seed, 0.0, args.work_dir, deadline, max_ops=1)
    info = {"environment": environment(args)}
    budget = args.seconds if not args.trace else args.seconds / 2.0
    untraced = closed_loop(args.workload, args.seed, budget, args.work_dir, deadline,
                           args.max_ops)
    if not args.trace:
        metrics, samples = latency_metrics(untraced)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        info["samples"] = samples
        tallies = [warm, untraced]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(args.workload, args.seed, budget, args.work_dir,
                                 deadline, args.max_ops, tracer=tracer)
        finally:
            tracer.uninstall()
        expected = json.loads(GOLDEN_PATH.read_text())
        hashes = golden_hashes(args.workload, args.work_dir)
        mismatched = sorted(name for name, h in hashes.items() if expected.get(name) != h)
        metrics = layer_metrics(tracer, traced, untraced, len(mismatched))
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        n = len(traced.latencies)
        info.update({
            "samples": {"untraced_ops": len(untraced.latencies), "traced_ops": n,
                        "kernel_rate": traced.meter.rate()},
            "golden_mismatched": mismatched,
            "point_calls_outside_far_field": traced.off_far_point_calls,
            "spans_file": str(spans_path.relative_to(BENCH.parent)),
            "spans_dropped": tracer.spans_dropped,
            "top_functions": top_functions(tracer, n, traced.meter.scale()),
        })
        tallies = [warm, untraced, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    info["failures"] = [f for t in tallies for f in t.failures][:20]
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
