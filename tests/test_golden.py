"""Byte-for-byte golden outputs of the command line.

Each case runs `gatss.cli.main(argv)` in process and compares its exit
code, stdout and stderr with `golden_cli.json`, which holds the output
captured from the released code.  A `{config}` placeholder in argv is
replaced by the path of a JSON file written from the case's config.

The goldens pin behaviour across refactors; never regenerate them in the
same change as a refactor.  A change that alters output on purpose
regenerates them in a commit of its own:

    PYTHONPATH=src python tests/test_golden.py --write

The module needs no pytest: `--check` replays the cases on their own and
compares them with the goldens, say on an interpreter without numpy, where
the cases that need it are listed and not run:

    PYTHONPATH=src python tests/test_golden.py --check
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gatss.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

# argparse wraps help text to the terminal width
COLUMNS = "80"

CASES = {
    # diag
    "diag_csv": (["diag", "--h", "0,1,0,1"], None),
    "diag_json": (["diag", "--h", "0.3,1.2,-0.7,0.4", "--format", "json"], None),
    "diag_degenerate": (["diag", "--h", "2,0,0,0"], None),
    "diag_negative_value": (["diag", "--h=-0.5,1.5,-2,0.25"], None),
    "diag_tol_exceeded": (["diag", "--h", "0.3,1.2,-0.7,0.4", "--tol", "1e-30"], None),
    "diag_config": (
        ["diag", "--config", "{config}"],
        {"h": [1.5, -0.25, 2.0, -3.0], "format": "json", "tol": 1e-8},
    ),
    # theta = pi, so r_minus turns by 2 pi
    "diag_theta_pi": (["diag", "--h=0.5,0,0,-2"], None),
    # atan2(-0.0, -1) = -pi, which is mapped to pi
    "diag_phi_seam_json": (["diag", "--h=0,-1,-0.0,0", "--format=json"], None),
    "diag_tiny": (["diag", "--h=0,1e-300,-2e-300,3e-300"], None),
    "diag_large_offset_json": (["diag", "--h=1e8,0.3,-0.5,0.8", "--format=json"], None),
    # evolve
    "evolve_csv": (["evolve", "--B", "1,0,1", "--t-end", "3", "--steps", "5"], None),
    "evolve_json": (
        ["evolve", "--B", "0.4,-1.1,2.2", "--t-end", "2", "--steps", "4", "--format", "json"],
        None,
    ),
    "evolve_check": (
        ["evolve", "--B", "1,2,3", "--t-end", "10", "--steps", "6", "--check"],
        None,
    ),
    "evolve_check_rabi": (
        ["evolve", "--B", "1,0,1", "--t-end", "10", "--steps", "6", "--check-rabi"],
        None,
    ),
    "evolve_both_checks_json": (
        [
            "evolve", "--B", "0.5,-1,2", "--q", "2", "--m", "3", "--hbar", "0.5",
            "--t-start", "1", "--t-end", "4", "--steps", "4",
            "--check", "--check-rabi", "--format", "json",
        ],
        None,
    ),
    "evolve_theta0": (
        ["evolve", "--B", "0,0,2", "--theta0", "0.7", "--t-end", "3", "--steps", "5"],
        None,
    ),
    "evolve_zero_field_check": (
        ["evolve", "--B", "0,0,0", "--t-end", "1", "--steps", "3", "--check"],
        None,
    ),
    "evolve_config_flag_override": (
        ["evolve", "--config", "{config}", "--steps", "4", "--format", "json"],
        {"B": [1.0, 0.0, 1.0], "t_end": 10.0, "steps": 101, "check": True},
    ),
    "evolve_config_state": (
        ["evolve", "--config", "{config}"],
        {
            "B": [0.0, 1.0, 0.5],
            "t_end": 2.0,
            "steps": 3,
            "state": {"c_plus": [0.6, 0.0], "c_minus": [0.0, 0.8]},
        },
    ),
    # exit 1
    "evolve_missing_steps": (["evolve", "--B", "1,0,1", "--t-end", "1"], None),
    "evolve_zero_steps": (["evolve", "--B", "1,0,1", "--t-end", "1", "--steps", "0"], None),
    "evolve_reversed_grid": (
        ["evolve", "--B", "1,0,1", "--t-start", "2", "--t-end", "1", "--steps", "3"],
        None,
    ),
    "evolve_config_short_field": (
        ["evolve", "--config", "{config}"],
        {"B": [1.0, 0.0], "t_end": 1.0, "steps": 2},
    ),
    "evolve_bad_float_flag": (
        ["evolve", "--B", "1,0,1", "--q", "x", "--t-end", "1", "--steps", "2"],
        None,
    ),
    "evolve_check_rabi_zero_field": (
        ["evolve", "--B", "0,0,0", "--t-end", "1", "--steps", "2", "--check-rabi"],
        None,
    ),
    # conformance
    "conformance_seed": (["conformance", "--seed", "7", "--count", "20"], None),
    "conformance_config": (["conformance", "--config", "{config}"], {"seed": 3, "count": 10}),
    "conformance_zero_count": (["conformance", "--count", "0"], None),
    # parsing
    "no_subcommand": ([], None),
    "help": (["--help"], None),
    "diag_help": (["diag", "--help"], None),
    "evolve_help": (["evolve", "--help"], None),
    "conformance_help": (["conformance", "--help"], None),
    # parsing at the edge of the command dispatch: the top-level usage for
    # leftovers, a command's own errors and help, and argv with no command
    "evolve_unknown_flag": (
        ["evolve", "--B=1,0,1", "--t-end=1", "--steps=2", "--bogus", "1"], None,
    ),
    "diag_stray_positional": (["diag", "--h=0,1,0,1", "extra"], None),
    "diag_double_dash": (["diag", "--", "--h=0,1,0,1"], None),
    "conformance_missing_value": (["conformance", "--count"], None),
    "diag_help_after_flag": (["diag", "--h=0,1,0,1", "-h"], None),
    "help_before_command": (["-h", "diag"], None),
    "unknown_command": (["nope"], None),
}


def invoke(argv: list[str], config: dict | None, workdir: str) -> dict:
    if config is not None:
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [path if a == "{config}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def replay(workdir: str) -> dict:
    """Every case's outcome by name, None for a case that stops on a
    missing numpy."""
    captured = {}
    for name in sorted(CASES):
        try:
            captured[name] = invoke(*CASES[name], workdir)
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            captured[name] = None
    return captured


def pytest_generate_tests(metafunc):
    # one test_golden per case; a hook rather than a marker, so that this
    # module imports without pytest and `--check` runs anywhere
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_every_case_has_a_golden():
    assert sorted(golden()) == sorted(CASES)


def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    argv, config = CASES[name]
    assert invoke(argv, config, str(tmp_path)) == golden()[name]


# the cases that compute a trajectory or run the suites; every other case
# needs neither numpy nor pytest
NEED_NUMPY = {
    "conformance_config", "conformance_seed", "evolve_both_checks_json", "evolve_check",
    "evolve_check_rabi", "evolve_check_rabi_zero_field", "evolve_config_flag_override",
    "evolve_config_state", "evolve_csv", "evolve_json", "evolve_theta0",
    "evolve_zero_field_check",
}


def test_check_runs_without_pytest_or_numpy():
    block = "import runpy, sys; sys.modules['pytest'] = sys.modules['numpy'] = None; "
    done = subprocess.run(
        [sys.executable, "-c", block + "runpy.run_path(sys.argv.pop(1), run_name='__main__')",
         __file__, "--check"], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    head, _, missing = done.stdout.rstrip("\n").partition(" need numpy: ")
    assert head == f"{len(CASES) - len(NEED_NUMPY)} identical; differ: none;"
    assert set(missing.split(", ")) == NEED_NUMPY


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        raise SystemExit(__doc__)
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as workdir:
        captured = replay(workdir)
    missing = [name for name, got in captured.items() if got is None]
    if sys.argv[1] == "--check":
        differ = [name for name, got in captured.items() if got not in (None, golden()[name])]
        print(f"{len(captured) - len(missing) - len(differ)} identical;",
              f"differ: {', '.join(differ) or 'none'};",
              f"need numpy: {', '.join(missing) or 'none'}")
        raise SystemExit(1 if differ else 0)
    if missing:
        raise SystemExit(f"the goldens need numpy: {', '.join(missing)}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")
