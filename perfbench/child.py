"""Timed child process: calls `gatss.cli.main(argv)` in-process, many times.

Run as `python child.py JOB.json`.  The job names the source tree to import
`gatss` from, the workload and seed, the first call index, and where to put
stdout, stderr and the result.  The child builds each call's argv from
(workload, seed, index) with `workloads.py` just before the call, outside
the timed span, so it holds no list of calls.  Stdout and stderr go to
files, as a user would redirect them, and each call appends a line to a
records file: its time, its exit code or exception, and the byte range it
wrote to stdout.  After every CHUNK_EVERY_S seconds of calls it times one
host-speed sample (`yardstick`), by which the parent scales the call
times.  The parent checks every output after the child ends; the child
parses none, and its own memory does not grow with the number of calls.
The result holds the peak resident memory before the first call and at
the end, so the share of the interpreter and the harness shows apart from
the program's.

The child never checks outputs and never imports the reference: it only
runs and times.  With `"trace": true` it installs the wrappers from
`tracer.py` before the first call; otherwise no wrapper exists.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import numpy as np
from workloads import make_plan

# The fixed loop timed before and after the calls, for the report.
CALIBRATION_N = 300_000
# Host-speed samples: one run of `yardstick` after every CHUNK_EVERY_S
# seconds of calls; run.py scales call times by them.
CHUNK_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows host-speed drift in the
    report and scales nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return time.perf_counter() - t0


_SIGNS = [[1.0 if (i ^ j) % 3 else -1.0 for j in range(8)] for i in range(8)]
_MATRIX = np.arange(64, dtype=float).reshape(8, 8) / 64.0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def yardstick() -> float:
    """Seconds for a fixed mix of the kinds of work gatss does, written
    without gatss: 8-coefficient products through a sign table, small
    objects, 8-vectors in numpy, float formatting and parsing.  A mix of
    code paths follows the host's speed the way the program does better
    than one tight loop."""
    t0 = time.perf_counter()
    x = [0.5 + 0.01 * k for k in range(8)]
    v = np.ones(8)
    parts = []
    for n in range(100):
        y = [0.0] * 8
        for i in range(8):
            xi, row = x[i], _SIGNS[i]
            for j in range(8):
                y[i ^ j] += row[j] * xi * x[j]
        norm = math.sqrt(sum(c * c for c in y))
        x = [c / norm for c in y]
        p = _Pair(x[0], x[7])
        v = _MATRIX @ v
        v = v / np.sqrt(v @ v)
        parts.append(",".join(format(c, ".17g") for c in (p.a, p.b, float(v[n % 8]))))
    sum(float(f) for line in parts for f in line.split(","))
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    `VmHWM` belongs to this process's own address space.  `ru_maxrss`
    is kept across fork and exec on Linux, so in a child it can report
    the parent's size instead; it is used only where `VmHWM` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_one(main, argv, out, err):
    """One call; returns (exit code or None, exception text or None, seconds)."""
    t0 = time.perf_counter()
    try:
        code, exc = main(argv), None
    except Exception as e:  # the program's own failure: record, keep going
        code, exc = None, f"{type(e).__name__}: {e}"
    out.flush()
    err.flush()
    return code, exc, time.perf_counter() - t0


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import gatss.cli  # noqa: F401  (import before timing; set-up is measured apart)

    import gatss

    if not os.path.realpath(gatss.__file__).startswith(os.path.realpath(job["src"])):
        raise SystemExit(f"gatss imported from {gatss.__file__}, not from {job['src']}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    plan = make_plan(job["workload"], job["seed"])
    real_out, real_err = sys.stdout, sys.stderr
    rss_before_mb = _peak_rss_mb()
    calib_before = calibrate()
    with open(job["out"], "w", encoding="utf-8") as out, \
            open(job["err"], "w", encoding="utf-8") as err, \
            open(job["records"], "w", encoding="utf-8") as records, \
            open(os.devnull, "w", encoding="utf-8") as null:
        sys.stdout, sys.stderr = null, null
        try:
            main = gatss.cli.main
            # negative indices: warm-up calls share no argv with timed ones
            for i in range(1, job["warmup"] + 1):
                _run_one(main, plan.call(-i).argv, null, null)
                yardstick()
            if tracer is not None:
                tracer.reset()
            sys.stdout, sys.stderr = out, err

            # [calls made before it, seconds] per host-speed sample
            chunks = []
            since = CHUNK_EVERY_S

            def step(kind, index, argv):
                nonlocal since
                if kind == "call" and since >= CHUNK_EVERY_S:
                    chunks.append([index, yardstick()])
                    since = 0.0
                o0 = out.buffer.tell()
                code, exc, dt = _run_one(main, argv, out, err)
                since += dt
                records.write(json.dumps([kind, index, code, exc, dt, o0, out.buffer.tell()]))
                records.write("\n")

            if job["probes"]:
                for i, call in enumerate(plan.probes):
                    step("probe", i, call.argv)
            trace_probes = tracer.snapshot() if tracer is not None else None
            if job["seconds"] is None:
                for i in range(job["first"], job["first"] + job["count"]):
                    step("call", i, plan.call(i).argv)
            else:
                # at least one call, however short the time
                deadline = time.perf_counter() + job["seconds"]
                i = job["first"]
                while True:
                    step("call", i, plan.call(i).argv)
                    i += 1
                    if time.perf_counter() >= deadline:
                        break
        finally:
            sys.stdout, sys.stderr = real_out, real_err
    calib_after = calibrate()

    import gatss.algebra

    return {
        "calibration_s": [calib_before, calib_after],
        "chunks": chunks,
        "rss_before_mb": rss_before_mb,
        "peak_rss_mb": _peak_rss_mb(),
        "wrapped": hasattr(gatss.algebra.gp, "__perfbench_key__"),
        "trace": tracer.snapshot() if tracer is not None else None,
        "trace_probes": trace_probes,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
