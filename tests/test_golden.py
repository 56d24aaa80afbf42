"""Byte-for-byte golden outputs of the command line.

Each case runs `gatss.cli.main(argv)` in process and compares its exit
code, stdout and stderr with `golden_cli.json`, which holds the output
captured from the released code.  A `{config}` placeholder in argv is
replaced by the path of a JSON file written from the case's config.

The goldens pin behaviour across refactors; never regenerate them in the
same change as a refactor.  A change that alters output on purpose
regenerates them in a commit of its own:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_has_a_golden(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    argv, config = CASES[name]
    assert invoke(argv, config, str(tmp_path)) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as workdir:
        captured = {name: invoke(*CASES[name], workdir) for name in sorted(CASES)}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")
