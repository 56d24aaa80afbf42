"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench -q

Each case runs `perfbench/run.py` the way the benchmark is run, with a
fraction of a second per run, and checks the harness rather than the
program's speed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run as run_module  # noqa: E402
from workloads import EVOLVE_ROWS, NAMES, make_plan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

TINY_SECONDS = "0.3"


def _bench(workload: str, trace: int, seed: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """(report, result) of one tiny run; the result is the last line."""
    proc = _bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(NAMES)


def test_predictions_cite_declared_metrics_and_workloads():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        pred = json.load(fh)
    layer = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert set(pred["workloads"]) == set(NAMES)
    for entry in pred["predictions"]:
        for name in entry["per_layer"]:
            assert name in layer or {f"{name}.calls", f"{name}.self_s"} <= layer, name
        for move in entry["moves"] + entry.get("unchanged", []):
            assert move["metric"] in e2e and move["workload"] in NAMES


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    _, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_call_counts_repeat_exactly(workload):
    first = run(workload, 1)[1]["metrics"]
    second = _bench(workload, 1, 3)
    second = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
    counts = {k: v["value"] for k, v in first.items() if k.endswith(".calls")}
    assert counts == {k: second[k]["value"] for k in counts}


@pytest.mark.parametrize("workload", ["evolve_trajectory", "diag_mix"])
def test_no_oracle_exponential_without_check(workload):
    assert run(workload, 1)[1]["metrics"]["matrixqm.mat_exp.calls"]["value"] == 0


def test_oracle_runs_on_conformance():
    metrics = run("conformance_sweep", 1)[1]["metrics"]
    # the checked-evolve probes are the only callers of these two
    for name in ("matrixqm.mat_exp", "matrixqm.expectation_matrix",
                 "twostate.u_vector_closed_form"):
        assert metrics[f"{name}.calls"]["value"] > 0, name


def test_evolve_per_row_ratios():
    metrics = run("evolve_trajectory", 1)[1]["metrics"]
    ratios = {k: round(metrics[f"{k}.per_item"]["value"], 2)
              for k in ("algebra.Multivector", "algebra.gp", "algebra.Rotor", "spinor.inner")}
    # 47 Multivector per row, plus 3 per call
    assert ratios == {"algebra.Multivector": round(47 + 3 / EVOLVE_ROWS, 2), "algebra.gp": 25.0,
                      "algebra.Rotor": 1.0, "spinor.inner": 8.0}


def test_calls_are_distinct_and_rebuilt_alike():
    for workload in NAMES:
        plan = make_plan(workload, 5)
        argvs = [tuple(plan.call(i).argv) for i in range(-2, 400)]
        assert len(set(argvs)) == len(argvs), workload
        assert argvs == [tuple(make_plan(workload, 5).call(i).argv) for i in range(-2, 400)]


@pytest.mark.parametrize("workload", NAMES)
def test_wrappers_only_in_the_traced_child(workload):
    assert run(workload, 0)[0]["wrapped"] is False
    assert run(workload, 1)[0]["wrapped"] == [False, True]


def test_diag_probe_outcomes_are_counted_by_class():
    report, result = run("diag_mix", 0)
    # probes are diagnostics: every one has an outcome class, none is an
    # operation of the result line
    assert result["failed"] == 0
    assert sum(report["probe_outcomes"].values()) == len(make_plan("diag_mix", 3).probes)
    assert all(k.split(":")[0] in ("wide", "offset") for k in report["probe_outcomes"])
    assert report["failure_classes"] == {}


def test_call_times_are_scaled_by_the_nearest_host_samples():
    ref = run_module.REF_CHUNK_S
    # a child that continues the sequence at call 1000; the host is twice
    # as slow as the reference for its first 4 calls, as fast for the rest
    records = [["call", 1000 + i, 0, None, 0.01, 0, 0] for i in range(8)]
    chunks = [[1000, 2 * ref], [1004, ref]]
    raw, scaled = run_module.call_times({"records": records, "chunks": chunks})
    assert raw == [0.01] * 8
    # neighbours on either side: calls see both samples, median of two
    assert scaled == pytest.approx([0.01 / 1.5] * 8)
    run_module.CHUNK_NEIGHBOURS, saved = 0, run_module.CHUNK_NEIGHBOURS
    try:
        _, scaled = run_module.call_times({"records": records, "chunks": chunks})
    finally:
        run_module.CHUNK_NEIGHBOURS = saved
    assert scaled == pytest.approx([0.005] * 4 + [0.01] * 4)


def test_peak_rss_is_the_childs_own():
    # ru_maxrss would report this process's size in a child it starts
    ballast = bytearray(128 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    code = "import child; print(child._peak_rss_mb())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, check=True)
    assert float(proc.stdout) < 100
    del ballast


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("diag_mix", 0, 1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_closed_forms():
    # B along e1: the axis turns e3 -> e2 -> -e3 and p_minus reaches 1 at |B| t = pi.
    t = np.array([0.0, math.pi / 2, math.pi])
    ref = reference.evolve_closed_form((1.0, 0.0, 0.0), t)
    assert np.allclose(ref["u2"], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(ref["u3"], [1.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(ref["p_minus"], [0.0, 0.5, 1.0], atol=1e-15)
    assert reference.diag_closed_form((1.0, 0.0, 3.0, 4.0)) == (6.0, -4.0, False)
    assert reference.diag_closed_form((2.0, 0.0, 0.0, 0.0)) == (2.0, 2.0, True)


def test_reference_rejects_a_wrong_answer():
    params = {"h": (0.0, 0.0, 3.0, 4.0), "format": "csv"}
    good = "e_plus = 5\ne_minus = -5\ndegenerate = false\n"
    assert not reference.check_diag(params, 0, None, good, probe=False).failures
    bad = good.replace("= 5", "= 5.000001")
    assert reference.check_diag(params, 0, None, bad, probe=False).failures
    assert reference.check_diag(params, 2, None, good, probe=False).failures
    evolve = {"B": (1.0, 0.0, 0.0), "t_start": 0.0, "t_end": math.pi, "steps": 2,
              "format": "csv"}
    header = "t,p_plus,p_minus,s1,s2,s3,u1,u2,u3\n"
    row0 = "0,1,0,0,0,0.5,0,0,1\n"
    assert not reference.check_evolve(evolve, 0, None,
                                      header + row0 + f"{math.pi!r},0,1,0,0,-0.5,0,0,-1\n"
                                      ).failures
    assert reference.check_evolve(evolve, 0, None,
                                  header + row0 + f"{math.pi!r},0,1,0,0,0.5,0,0,-1\n"
                                  ).failures


def test_reference_checks_evolve_json_with_deviations():
    evolve = {"B": (1.0, 0.0, 0.0), "t_start": 0.0, "t_end": math.pi, "steps": 2,
              "format": "json"}
    table = {"t": [0.0, math.pi], "p_plus": [1.0, 0.0], "p_minus": [0.0, 1.0],
             "s1": [0.0, 0.0], "s2": [0.0, 0.0], "s3": [0.5, -0.5],
             "u1": [0.0, 0.0], "u2": [0.0, 0.0], "u3": [1.0, -1.0],
             "dev_p": [0.0, 1e-15], "dev_s": [0.0, 0.0], "dev_u": [0.0, 0.0]}
    assert not reference.check_evolve(evolve, 0, None, json.dumps(table)).failures
    table["dev_s"] = [0.0, 1e-6]
    assert reference.check_evolve(evolve, 0, None, json.dumps(table)).failures
    del table["dev_s"]
    assert reference.check_evolve(evolve, 0, None, json.dumps(table)).failures
