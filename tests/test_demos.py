"""Every demo script runs to completion with its default arguments, in
development mode with every warning an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_demo(demo, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_rabi_demo_in_a_zero_field():
    # the flip probability is 0 by all three routes, with no peak
    result = run_demo(ROOT / "demos" / "rabi_oscillations.py", "--B", "0", "0", "0")
    assert result.returncode == 0, result.stderr
    assert "peak flip = 0.000000" in result.stdout
    assert result.stdout.rstrip().endswith("largest pairwise disagreement: 0.000e+00")
