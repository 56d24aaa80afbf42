"""gatss benchmark: drive `gatss.cli.main(argv)` and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` of the
same tree; without it the benchmark exits 2 and prints no result.

One parent process (this file) makes the workload's argv from the seed,
starts one child at a time (`child.py`) that calls `gatss.cli.main` in a
loop with stdout and stderr redirected to files, then checks every output
against `reference.py`, which never imports `gatss`.

`--trace 0` measures for `--seconds` seconds untraced, split over
TIMED_CHILDREN children, and reports the end-to-end metrics, with every
time scaled to a reference host speed by the host-speed samples the
children take between calls.  `--trace 1` runs a fixed batch twice,
untraced and then with the wrappers of `tracer.py`, and reports the
per-function counts and self times plus the tracing overhead.  Either way
the last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the line before it is a JSON report of the
environment, the raw times, the failure classes, the probe outcomes and
the sample counts.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import reference  # noqa: E402
from workloads import DIAG_PROBE_KINDS, NAMES, make_plan  # noqa: E402

# An untimed run is split over this many timed children, one after the
# other, so that no one process's memory layout decides a run's figures.
TIMED_CHILDREN = 6
# Fresh children timed for `setup_s` before each timed child; the median of
# all of them is reported.
SETUP_CHILDREN = 2
SETUP_CHUNKS = 5
# Host speed on a shared machine switches between states up to about 1.9x
# apart, for seconds to many minutes, so every timing is scaled to a fixed
# reference speed: seconds x REF_CHUNK_S / (time of `child.yardstick`
# measured alongside).  REF_CHUNK_S only sets the scale: it is about the
# yardstick's time on the 2-vCPU Intel Xeon VM the benchmark was tuned on.
REF_CHUNK_S = 2.0e-3
# Each call is scaled by the median of this many host-speed samples on
# either side of it.
CHUNK_NEIGHBOURS = 2
# Untimed calls before the clock starts (imports, caches, first-use costs).
WARMUP_CALLS = 2
# Traced runs use a fixed batch so call counts repeat exactly: this many
# calls per requested second (about a third of the untraced rate).
TRACED_CALLS_PER_SECOND = {
    "evolve_trajectory": 7.5,
    "conformance_sweep": 3.5,
    "diag_mix": 150.0,
}
# Every child is stopped by this many seconds after the benchmark started.
RUN_BUDGET_S = 170.0
DEADLINE = time.monotonic() + RUN_BUDGET_S
# Functions whose counts and self times the traced run reports.
TRACED_FUNCTIONS = (
    "algebra.Multivector", "algebra.gp", "algebra.reverse", "algebra.sandwich",
    "algebra.exp_bivector", "algebra.Rotor", "algebra.rotor_axis_angle",
    "spinor.left_mul", "spinor.inner",
    "twostate.evolution_rotor", "twostate.evolve", "twostate.expectation",
    "twostate.probability", "twostate.rabi_probability",
    "twostate.u_vector_closed_form", "twostate.eigensystem",
    "matrixqm.mat_exp", "matrixqm.evolve_matrix", "matrixqm.expectation_matrix",
    "matrixqm.probability_matrix", "matrixqm.rep", "matrixqm.eigen_hermitian",
    "conformance.suite_homomorphism", "conformance.suite_associativity",
    "conformance.suite_commutators", "conformance.suite_rabi_triangle",
    "cli.main",
)
# Waste ratios: calls per output item (row, draw or diag call) of the
# timed calls; probes are left out.
PER_ITEM = ("algebra.Multivector", "algebra.gp", "algebra.Rotor", "spinor.inner")


def _remaining() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import time of `gatss.cli` in fresh interpreters, one at a time.

    After the import each child times SETUP_CHUNKS host-speed samples
    (`child.yardstick`).  Returns the raw import times and the same times
    scaled to the reference host speed.
    """
    code = ("import sys, time\n"
            "sys.path.insert(0, sys.argv[1]); t = time.perf_counter()\n"
            "import gatss.cli\n"
            "dt = time.perf_counter() - t\n"
            "sys.path.insert(0, sys.argv[2]); from child import yardstick\n"
            f"print(repr([dt] + [yardstick() for _ in range({SETUP_CHUNKS})]))\n")
    raw, scaled = [], []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], env=child_env(),
                              capture_output=True, text=True, timeout=_remaining(),
                              check=True)
        dt, *chunks = json.loads(proc.stdout)
        raw.append(dt)
        scaled.append(dt * REF_CHUNK_S / statistics.median(chunks))
    return raw, scaled


def run_child(tag: str, plan, *, seconds, count, trace: bool, first: int = 0,
              probes: bool = True) -> dict:
    """Start one child, wait for it, and return its result with its output."""
    paths = {k: os.path.join(WORK, f"{tag}.{k}")
             for k in ("job", "out", "err", "records", "result")}
    job = {
        "src": SRC,
        "workload": plan.workload,
        "seed": plan.seed,
        "seconds": seconds,
        "count": count,
        "first": first,
        "probes": probes,
        "warmup": WARMUP_CALLS,
        "trace": trace,
        "out": paths["out"], "err": paths["err"], "records": paths["records"],
        "result": paths["result"],
    }
    with open(paths["job"], "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), paths["job"]],
                   env=child_env(), timeout=_remaining(), check=True)
    with open(paths["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    with open(paths["records"], encoding="utf-8") as fh:
        result["records"] = [json.loads(line) for line in fh]
    with open(paths["out"], "rb") as fh:
        result["stdout"] = fh.read()
    return result


def verify(plan, result) -> dict:
    """Check every call's output; return counts, outcome classes and error.

    The diag probes (`wide`, `offset`) are diagnostics of known defects of
    the program: their outcomes are counted by class in `probe_outcomes`
    and are not operations of the result line.  Every other call is.
    """
    out = result["stdout"]
    attempted = failed = items = 0
    classes: dict[str, int] = {}
    probe_outcomes: dict[str, int] = {}
    max_abs_err = 0.0
    for kind, index, code, exc, _dt, o0, o1 in result["records"]:
        call = plan.probes[index] if kind == "probe" else plan.call(index)
        text = out[o0:o1].decode("utf-8")
        if call.kind == "evolve":
            v = reference.check_evolve(call.params, code, exc, text)
        elif call.kind == "conformance":
            v = reference.check_conformance(call.params, code, exc, text)
        else:
            v = reference.check_diag(call.params, code, exc, text, probe=kind == "probe")
        max_abs_err = max(max_abs_err, v.max_abs_err)
        if call.kind in DIAG_PROBE_KINDS:
            for f in v.failures or ["ok"]:
                label = f"{call.kind}:{f}"
                probe_outcomes[label] = probe_outcomes.get(label, 0) + 1
            continue
        attempted += v.attempted
        failed += len(v.failures)
        if kind != "probe":
            items += v.items
        for f in v.failures:
            label = f"{call.kind}:{f}"
            classes[label] = classes.get(label, 0) + 1
    return {"attempted": attempted, "failed": failed, "items": items,
            "failure_classes": classes, "probe_outcomes": probe_outcomes,
            "max_abs_err": max_abs_err}


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by the inclusive method of `statistics`."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def call_times(result) -> tuple[list[float], list[float]]:
    """Raw times of the timed calls, and the same scaled to the reference
    host speed by the host-speed samples taken around each call."""
    calls = [(r[1], r[4]) for r in result["records"] if r[0] == "call"]
    raw = [dt for _, dt in calls]
    starts = [c[0] for c in result["chunks"]]
    chunk_s = [c[1] for c in result["chunks"]]
    scaled = []
    for index, dt in calls:
        j = bisect.bisect_right(starts, index) - 1
        near = chunk_s[max(0, j - CHUNK_NEIGHBOURS):j + CHUNK_NEIGHBOURS + 1]
        scaled.append(dt * REF_CHUNK_S / statistics.median(near))
    return raw, scaled


def end_to_end(plan, results, setup: list[float], setup_raw: list[float]
               ) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and extra figures for the report.

    The calls of all timed children are pooled.  Every timing is scaled to
    the reference host speed (REF_CHUNK_S); the report line gives the raw
    figures beside them.  See README.md.
    """
    raw, times = [], []
    for result in results:
        r, t = call_times(result)
        raw += r
        times += t
    chunk_s = [c[1] for result in results for c in result["chunks"]]
    main_s = sum(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (plan.items_per_call * len(times) / main_s, "1/s"),
        "call_p50_ms": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    extra = {
        "calls": len(times), "main_s": main_s,
        "call_p90_ms": 1e3 * percentile(times, 90),
        "call_p98_ms": 1e3 * percentile(times, 98),
        "call_p99_ms": 1e3 * percentile(times, 99),
        "calls_beyond_p98": len(times) // 50,
        "calls_beyond_p99": len(times) // 100,
        "raw_main_s": sum(raw),
        "raw_items_per_s": plan.items_per_call * len(raw) / sum(raw),
        "raw_call_p50_ms": 1e3 * statistics.median(raw),
        "raw_call_p90_ms": 1e3 * percentile(raw, 90),
        "raw_setup_s": statistics.median(setup_raw),
        "host_samples": len(chunk_s),
        "host_sample_ms": [1e3 * min(chunk_s), 1e3 * statistics.median(chunk_s),
                           1e3 * max(chunk_s)],
        "rss_before_mb": max(r["rss_before_mb"] for r in results),
    }
    return metrics, extra


def per_layer(traced, plain, items: int) -> dict:
    """Per-function metrics of a traced run; `items` counts the timed calls'.

    Self times are scaled to the reference host speed by the traced run's
    host-speed samples, and `trace.overhead` compares the scaled times of
    the traced and the untraced run.
    """
    calls = traced["trace"]["calls"]
    scale = REF_CHUNK_S / statistics.median(c[1] for c in traced["chunks"])
    self_s = traced["trace"]["self_s"]
    probe_calls = traced["trace_probes"]["calls"]
    metrics = {}
    for key in TRACED_FUNCTIONS:
        metrics[f"{key}.calls"] = (calls[key], "count")
        metrics[f"{key}.self_s"] = (self_s[key] * scale, "s")
    metrics["cli.main.out_bytes"] = (
        sum(r[6] - r[5] for r in traced["records"]), "bytes")
    for key in PER_ITEM:
        metrics[f"{key}.per_item"] = ((calls[key] - probe_calls[key]) / items, "1/item")
    metrics["trace.overhead"] = (sum(call_times(traced)[1]) / sum(call_times(plain)[1]),
                                 "ratio")
    return metrics


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gatss", "cli.py")):
        print(f"perfbench: no gatss sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        report = {"workload": args.workload, "trace": args.trace, **environment(args.seed)}
        if args.trace == 0:
            setup_raw, setup, results = [], [], []
            first = 0
            for k in range(TIMED_CHILDREN):
                raw, scaled = setup_seconds()
                setup_raw += raw
                setup += scaled
                result = run_child(f"timed{k}", plan, seconds=args.seconds / TIMED_CHILDREN,
                                   count=None, trace=False, first=first, probes=k == 0)
                first += sum(r[0] == "call" for r in result["records"])
                results.append(result)
            checks = [verify(plan, r) for r in results]
            metrics, extra = end_to_end(plan, results, setup, setup_raw)
            report.update(extra, setup_s_samples=setup,
                          wrapped=any(r["wrapped"] for r in results),
                          calibration_s=[r["calibration_s"] for r in results])
        else:
            count = max(1, round(args.seconds * TRACED_CALLS_PER_SECOND[args.workload]))
            plain = run_child("plain", plan, seconds=None, count=count, trace=False)
            traced = run_child("traced", plan, seconds=None, count=count, trace=True)
            checks = [verify(plan, plain), verify(plan, traced)]
            metrics = per_layer(traced, plain, checks[1]["items"])
            metrics["reference.max_abs_err"] = (
                max(c["max_abs_err"] for c in checks), "1")
            report.update(calls=count, wrapped=[plain["wrapped"], traced["wrapped"]],
                          calibration_s=[plain["calibration_s"], traced["calibration_s"]])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    classes: dict[str, int] = {}
    probe_outcomes: dict[str, int] = {}
    for c in checks:
        for k, n in c["failure_classes"].items():
            classes[k] = classes.get(k, 0) + n
        for k, n in c["probe_outcomes"].items():
            probe_outcomes[k] = probe_outcomes.get(k, 0) + n
    report.update(
        error_rate=failed / attempted,
        max_abs_err=max(c["max_abs_err"] for c in checks),
        failure_classes=classes,
        probe_outcomes=probe_outcomes,
    )
    correct = failed == 0
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
