import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gatss
from gatss.cli import _SETTINGS, _json, main
from gatss import algebra, cli, conformance, twostate
from gatss.algebra import E1, _norm3, rotor_axis_angle
from gatss.spinor import left_mul
from gatss.twostate import (
    FieldConfig,
    hamiltonian_from_field,
    polar_state,
    time_grid,
    trajectory,
)

CSV_HEADER = "t,p_plus,p_minus,s1,s2,s3,u1,u2,u3"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """run_cli without a fixture, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDiag:
    def test_worked_example(self, capsys):
        code, out, err = run_cli(capsys, ["diag", "--h", "0,1,0,1"])
        assert code == 0
        lines = dict(
            line.split(" = ", 1) for line in out.splitlines() if " = " in line
        )
        assert abs(float(lines["e_plus"]) - math.sqrt(2.0)) <= 1e-15
        assert abs(float(lines["e_minus"]) + math.sqrt(2.0)) <= 1e-15
        assert lines["degenerate"] == "false"
        assert abs(float(lines["theta"]) - math.pi / 4) <= 1e-15
        assert float(lines["phi"]) == 0.0
        assert lines["status"] == "ok"
        assert "psi_plus: c_plus = [" in out

    def test_json_format(self, capsys):
        code, out, err = run_cli(capsys, ["diag", "--h", "0,1,0,1", "--format", "json"])
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["e_plus"] - math.sqrt(2.0)) <= 1e-15
        assert blob["status"] == "ok"
        assert abs(blob["psi_plus"]["c_plus"][0] - math.cos(math.pi / 8)) <= 1e-15
        assert blob["psi_plus"]["c_plus"][1] == 0.0
        assert len(blob["rotor"]) == 8

    def test_degenerate(self, capsys):
        code, out, err = run_cli(capsys, ["diag", "--h", "5,0,0,0"])
        assert code == 0
        assert "degenerate = true" in out
        assert "e_plus = 5" in out

    @pytest.mark.parametrize("h", ["0,0,0,-0.0", "0,-0.0,0,0", "0,-0.0,-0.0,-0.0",
                                   "0,-0.0,0,1", "0,0.0,-0.0,2", "-0.0,0,0,0"])
    def test_degenerate_angles_ignore_signed_zeros(self, capsys, h):
        code, out, err = run_cli(capsys, ["diag", f"--h={h}"])
        assert code == 0 and err == ""
        degenerate = "true" if not any(map(float, h.split(",")[1:])) else "false"
        assert f"degenerate = {degenerate}\ntheta = 0\nphi = 0\n" in out
        assert out == run_cli(capsys, ["diag", "--h=" + h.replace("-0.0", "0")])[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(
        allow_nan=False, allow_infinity=False)), min_size=4, max_size=4),
        st.sampled_from(["csv", "json"]))
    @example([0.0, -0.0, 0.0, 1.0], "csv")
    @example([-0.0, 0.0, 0.0, 0.0], "json")
    def test_output_ignores_signed_zeros(self, h, fmt):
        # diag reads no sign of a zero: every output, the error ones
        # included, is that of the same h with every zero +0.0
        def run(values):
            return run_captured(["diag", "--h=" + ",".join(map(repr, values)), f"--format={fmt}"])

        assert run(h) == run([x + 0.0 for x in h])

    def test_tolerance_failure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["diag", "--h", "0.3,1.2,-0.7,0.4", "--tol", "0"])
        assert code == 2
        assert "status = tolerance-exceeded" in out

    @pytest.mark.parametrize("h, e_plus", [
        ("0,1e200,1e200,0", "1.414213562373095e+200"),
        ("1e300,1e300,0,0", "2.0000000000000001e+300"),
        ("0,1e-200,0,1e-200", "1.414213562373095e-200"),
    ])
    def test_norm_over_the_whole_range(self, capsys, h, e_plus):
        # the absolute residual_eigen_relation still fails the check at
        # 1e200 (exit 2), but the norm no longer raises
        code, out, err = run_cli(capsys, ["diag", f"--h={h}"])
        assert code in (0, 2) and err == ""
        assert out.splitlines()[0] == f"e_plus = {e_plus}"
        assert "degenerate = false" in out

    @pytest.mark.parametrize("h, code", [("0,1e-200,0,1e-200", 0), ("0,1e200,1e200,0", 2)])
    def test_oracle_scales_h(self, capsys, h, code):
        # the oracle's eigensolver scales H by a power of two, so its
        # residuals are at roundoff; the second input still exits 2 on the
        # absolute residual_eigen_relation, about 8.5e183
        got, out, err = run_cli(capsys, ["diag", f"--h={h}"])
        lines = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        assert (got, err) == (code, "")
        e_plus = float(lines["e_plus"])
        assert float(lines["residual_oracle_eigenvalues"]) <= 1e-15 * e_plus
        assert float(lines["residual_oracle_overlap"]) <= 1e-15

    @pytest.mark.parametrize("h", ["1e308,0,0,-1e308", "1e308,1e308,0,0"])
    def test_eigenvalue_overflow_exit_1(self, capsys, h):
        # an input error, as in evolve's phase overflow; the oracle's H,
        # whose entries lie between the eigenvalues, never overflows
        code, out, err = run_cli(capsys, ["diag", f"--h={h}"])
        assert (code, out) == (1, "")
        assert err == "gatss diag: error: eigenvalues h0 +/- |h| overflow\n"

    def test_missing_h(self, capsys):
        code, out, err = run_cli(capsys, ["diag"])
        assert code == 1
        assert "error" in err

    def test_rejects_field_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"B": [0, 0, 1], "h": [0, 1, 0, 1]}))
        code, out, err = run_cli(capsys, ["diag", "--config", str(cfg)])
        assert code == 1
        assert "drop B" in err

    def test_config_supplies_h(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"h": [0, 1, 0, 1], "format": "json"}))
        code, out, err = run_cli(capsys, ["diag", "--config", str(cfg)])
        assert code == 0
        assert abs(json.loads(out)["e_plus"] - math.sqrt(2.0)) <= 1e-15

    def test_bad_h_text(self, capsys):
        # without the count check, three numbers would be refused as a
        # vector part of 3 components
        assert run_cli(capsys, ["diag", "--h", "1,2,3"]) == (
            1, "", "gatss diag: error: --h needs 4 comma-separated numbers, got 3\n")
        assert run_cli(capsys, ["diag", "--h", "a,b,c,d"]) == (
            1, "", "gatss diag: error: --h: could not convert string to float: 'a'\n")


class TestEvolve:
    BASE = ["evolve", "--B", "1,2,3", "--t-end", "2", "--steps", "5"]

    def test_csv_header_and_shape(self, capsys):
        code, out, err = run_cli(capsys, self.BASE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        for line in lines[1:]:
            assert len(line.split(",")) == 9

    def test_reruns_identical(self, capsys):
        _, out1, _ = run_cli(capsys, self.BASE)
        _, out2, _ = run_cli(capsys, self.BASE)
        assert out1 == out2

    @pytest.mark.parametrize("steps", [2, 5])
    def test_span_that_overflows(self, capsys, steps):
        # t-end - t-start overflows a double, but every time is finite and
        # so is the phase, about 7.5e7
        code, out, err = run_cli(capsys, ["evolve", "--B=1e-300,0,0", "--t-start=-1.5e308",
                                          "--t-end=1.5e308", f"--steps={steps}"])
        assert (code, err) == (0, "")
        t = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert t == time_grid(-1.5e308, 1.5e308, steps).tolist()
        assert (t[0], t[-1]) == (-1.5e308, 1.5e308)

    def test_numbers_round_trip_17g(self, capsys):
        code, out, err = run_cli(capsys, self.BASE)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        t_vals = [float(r[0]) for r in rows]
        assert t_vals == [0.0, 0.5, 1.0, 1.5, 2.0]
        # probabilities on each row sum to 1
        for r in rows:
            assert abs(float(r[1]) + float(r[2]) - 1.0) <= 1e-12

    def test_precession_columns(self, capsys):
        theta0 = math.pi / 2
        code, out, err = run_cli(
            capsys,
            [
                "evolve",
                "--B",
                "0,0,1",
                "--theta0",
                str(theta0),
                "--t-end",
                "6",
                "--steps",
                "25",
            ],
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            vals = [float(x) for x in line.split(",")]
            t = vals[0]
            assert abs(vals[3] - 0.5 * math.cos(t)) <= 1e-12
            assert abs(vals[4] + 0.5 * math.sin(t)) <= 1e-12
            assert abs(vals[5]) <= 1e-12
            # axial field never flips eps components of u
            assert abs(vals[8] - 1.0) <= 1e-12

    def test_json_mirrors_csv(self, capsys):
        code, csv_out, _ = run_cli(capsys, self.BASE)
        code, json_out, _ = run_cli(capsys, self.BASE + ["--format", "json"])
        assert code == 0
        table = json.loads(json_out)
        assert list(table.keys()) == CSV_HEADER.split(",")
        rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        for j, name in enumerate(CSV_HEADER.split(",")):
            assert [float(r[j]) for r in rows] == table[name]

    def test_check_columns_and_stderr(self, capsys):
        code, out, err = run_cli(capsys, self.BASE + ["--check"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER + ",dev_p,dev_s,dev_u"
        assert len(lines[1].split(",")) == 12
        assert err.startswith("check: max_deviation = ")

    def test_check_tolerance_failure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, self.BASE + ["--check", "--tol", "0"])
        assert code == 2

    def test_check_nan_deviation_exit_2(self, capsys):
        # the oracle's delta^2 overflows from |h| t / hbar ~ 1.3e154, where
        # the rotor route still holds
        argv = ["evolve", "--B=1e200,0,0", "--t-end=1", "--steps=2", "--check"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out.splitlines()[-1].endswith(",nan,nan,0")
        assert err.endswith("check: max_deviation = nan\n")

    @pytest.mark.parametrize(
        "argv, nans",
        [
            (["--B=1e160,0,0", "--t-end=2", "--steps=4"], ["nan", "nan"]),
            (["--B=1e308,0,0", "--t-end=1.9", "--steps=2"], ["nan", "nan", "nan"]),
        ],
        ids=["overflow", "closed_form_angle"],
    )
    def test_check_oracle_breakdown_exit_2(self, capsys, argv, nans):
        # the oracle's state overflows to NaN; past a phase of about 9e307
        # the closed form's angle (twice the phase) is not finite either, so
        # dev_u is NaN too; either way those rows cannot be checked
        code, out, err = run_cli(capsys, ["evolve", *argv, "--check"])
        assert code == 2
        assert out.splitlines()[1].split(",")[9:] == ["0", "0", "0"]
        assert out.splitlines()[-1].split(",")[9:9 + len(nans)] == nans
        assert err == "check: max_deviation = nan\n"

    def test_check_rabi_past_the_closed_form_exit_2(self, capsys):
        argv = ["evolve", "--B=1e308,0,0", "--t-end=1.9", "--steps=2"]
        plain = run_cli(capsys, argv)
        code, out, err = run_cli(capsys, argv + ["--check-rabi"])
        assert (plain[0], code) == (0, 2)
        assert out == plain[1]
        assert err == "check-rabi: max_deviation = nan\n"

    @pytest.mark.parametrize("grid", [["--t-end=1e7"], ["--t-start=1e9", "--t-end=1e9"]],
                             ids=["1e7", "1e9"])
    def test_check_at_large_phase(self, capsys, grid):
        # the oracle's closed-form exponential stays unitary at large
        # |h| t / hbar, where scaling and squaring lost it (NaN from 1e7)
        code, out, err = run_cli(capsys, ["evolve", "--B=1,2,3", *grid, "--steps=2", "--check"])
        assert code == 0
        dev_p, dev_s, _ = map(float, out.splitlines()[-1].split(",")[9:])
        assert max(dev_p, dev_s) <= 1e-15

    def test_check_large_hbar(self, capsys):
        # spin expectations of order hbar = 1e6 keep an imaginary residue
        # and a deviation of about 6e-11, relative 6e-17, within tol
        argv = ["evolve", "--B=1,2,3", "--hbar=1e6", "--theta0=0.7",
                "--t-end=10", "--steps=3", "--check"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert float(err[len("check: max_deviation = "):]) <= 1e-10

    @pytest.mark.parametrize("hbar", ["1e10"])
    def test_check_large_hbar_exit_2(self, capsys, hbar):
        # spin expectations of order hbar carry an imaginary residue far
        # above 1e-13 (5.2e-8 here), which the oracle accepts relative to
        # the operator; the check then fails on a finite worst (4.8e-7)
        argv = ["evolve", "--B=1,2,3", f"--hbar={hbar}", "--theta0=0.7",
                "--t-end=10", "--steps=3", "--check"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("check: max_deviation = ")
        worst = float(err[len("check: max_deviation = "):])
        assert math.isfinite(worst) and worst > 1e-10

    @pytest.mark.parametrize("b", ["0,0,1e-162", "1e-200,0,1e-200", "1e-170,1e-170,0"])
    def test_check_tiny_field(self, capsys, b):
        # the closed form of u(t) squares the field; its direction suffices
        code, out, err = run_cli(capsys, ["evolve", f"--B={b}", "--t-end=1", "--steps=3",
                                          "--check"])
        assert code == 0
        assert float(err[len("check: max_deviation = "):]) <= 1e-15

    def test_check_rabi(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "1,0,1", "--t-end", "5", "--steps", "11", "--check-rabi"],
        )
        assert code == 0
        assert "check-rabi: max_deviation = " in err
        assert "check-rabi" not in out

    @pytest.mark.parametrize("flag", ["--check", "--check-rabi"])
    def test_checks_where_q_b_overflows(self, capsys, flag):
        # q |B| = 1e310 overflows, though the angle q |B| t / m is at most 10
        argv = ["evolve", "--B=1e10,0,0", "--q=1e300", "--m=1e300", "--t-end=1e-9",
                "--steps=3"]
        plain = run_cli(capsys, argv)
        code, out, err = run_cli(capsys, argv + [flag])
        assert (plain[0], code) == (0, 0)
        assert err.startswith(flag[2:] + ": max_deviation = ")
        if flag == "--check-rabi":
            assert out == plain[1]

    def test_csv_rows_written_in_blocks(self, capsys):
        # three blocks of csv rows, the last one partial
        steps = 2 * twostate._BLOCK_ROWS + 76
        cfg = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9)
        table = trajectory(cfg, polar_state(0.7), np.linspace(-3.0, 40.0, steps))
        code, out, err = run_cli(capsys, [
            "evolve", "--B=0.4,-1.1,2.2", "--q=1.5", "--m=0.7", "--hbar=0.9", "--theta0=0.7",
            "--t-start=-3", "--t-end=40", f"--steps={steps}"])
        expected = CSV_HEADER + "\n" + "".join(
            ",".join("%.17g" % value for value in row) + "\n" for row in zip(*table.values()))
        assert (code, err) == (0, "")
        assert out == expected

    def test_check_rabi_zero_field(self, capsys):
        # the Rabi formula is 0 in a zero field, as p_minus is
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,0", "--t-end", "1", "--steps", "3", "--check-rabi"],
        )
        assert (code, err) == (0, "check-rabi: max_deviation = 0\n")

    def test_check_rabi_needs_plus_state(self, capsys, tmp_path):
        # any state with an eps_minus amplitude, however small, is refused
        cfg = tmp_path / "c.json"
        argv = ["evolve", "--B=1,0,1", "--t-end=1", "--steps=2", "--check-rabi"]
        for extra, state in [(["--theta0=0.5"], None), (["--theta0=0.1"], None),
                             ([], "minus"), ([], {"c_plus": [1, 0], "c_minus": [0, 1e-300]})]:
            cfg.write_text(json.dumps({"state": state}))
            code, out, err = run_cli(capsys, argv + extra + ["--config", str(cfg)])
            assert (code, out) == (1, "")
            assert err == "gatss evolve: error: check-rabi assumes the initial state eps_plus\n"

    def test_missing_required(self, capsys):
        assert run_cli(capsys, ["evolve", "--B", "1,2,3", "--steps", "5"])[0] == 1
        assert run_cli(capsys, ["evolve", "--B", "1,2,3", "--t-end", "2"])[0] == 1
        assert run_cli(capsys, ["evolve", "--t-end", "2", "--steps", "5"])[0] == 1

    def test_bad_grid(self, capsys):
        code, out, err = run_cli(
            capsys, ["evolve", "--B", "1,2,3", "--t-end", "2", "--steps", "0"]
        )
        assert code == 1
        code, out, err = run_cli(
            capsys,
            [
                "evolve",
                "--B",
                "1,2,3",
                "--t-start",
                "3",
                "--t-end",
                "2",
                "--steps",
                "4",
            ],
        )
        assert code == 1

    # a grid of 2**59 doubles is 4 EiB, past every 64-bit address space, so
    # numpy fails before it allocates; never test a grid that could be held
    @pytest.mark.parametrize("steps, message", [
        (2 ** 59, "Unable to allocate"),
        (2 ** 63, "steps must be at most 9223372036854775807"),
    ], ids=["past_memory", "past_ssize"])
    def test_grid_too_large_exit_1(self, capsys, steps, message):
        code, out, err = run_cli(capsys, ["evolve", "--B=0,0,1", "--t-end=1", f"--steps={steps}"])
        assert (code, out) == (1, "")
        assert err.startswith(f"gatss evolve: error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, t",
        [
            # two components of the exponent reach 1.5e308 at t = 3, each a
            # finite double, but its length |h| t / hbar (about 2.1e308) is not
            (["evolve", "--B=1e308,1e308,0", "--t-end=3", "--steps=3"], "3.0"),
            # the field alone takes the length past the largest double, and
            # the run stops before the check
            (
                ["evolve", "--B=1.5e308,1.5e308,1.5e308", "--t-end=1.5", "--steps=2", "--check"],
                "1.5",
            ),
        ],
        ids=["t_end", "large_field"],
    )
    def test_phase_overflow_exit_1(self, capsys, argv, t):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            f"gatss evolve: error: phase |h| t / hbar overflows at t = {t}: "
            "the rotor exponential needs it below about 1.8e308\n"
        )

    def test_tilt_overflow_exit_1(self, capsys):
        # the tilt's rotor has |B| = |theta0| / 2, so every finite theta0
        # evolves; only one that overflows as it is read exits 1
        code, out, err = run_cli(capsys, ["evolve", "--B=0,0,1", "--theta0=1e309", "--t-end=1", "--steps=3"])
        assert (code, out, err) == (1, "", "gatss evolve: error: theta0 must be finite\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--B=0,0,1", "--theta0=1e300", "--t-end=1", "--steps=3"],
            ["evolve", "--B=0,0,1", "--theta0=-1.7976931348623157e308", "--t-end=1", "--steps=3"],
            ["evolve", "--B=1e200,0,0", "--t-end=1", "--steps=3"],
        ],
        ids=["theta0", "largest_theta0", "field"],
    )
    def test_squares_of_the_exponent_overflow(self, capsys, argv):
        # |B|^2 of the tilt's or the evolution's rotor overflows, |B| does not
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert all(abs(p_plus + p_minus - 1.0) <= 1e-15 for _, p_plus, p_minus, *_ in rows)

    def test_rejects_hamiltonian_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"h": [0, 1, 0, 1]}))
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "1,2,3", "--t-end", "2", "--steps", "5", "--config", str(cfg)],
        )
        assert code == 1
        assert "drop h" in err

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"B": [0, 0, 1], "t_end": 5.0, "steps": 3, "format": "json", "q": 2.0}
            )
        )
        code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
        assert code == 0
        assert len(json.loads(out)["t"]) == 3
        code, out, err = run_cli(
            capsys, ["evolve", "--config", str(cfg), "--steps", "4", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == 5

    def test_state_minus_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"state": "minus"}))
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,1", "--t-end", "1", "--steps", "2", "--config", str(cfg)],
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 1.0

    def test_state_dict_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"state": {"c_plus": [0.6, 0.0], "c_minus": [0.0, 0.8]}})
        )
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,1", "--t-end", "1", "--steps", "2", "--config", str(cfg)],
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert abs(float(first[1]) - 0.36) <= 1e-12
        assert abs(float(first[2]) - 0.64) <= 1e-12

    def test_bad_state(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"state": "sideways"}))
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,1", "--t-end", "1", "--steps", "2", "--config", str(cfg)],
        )
        assert code == 1
        cfg.write_text(json.dumps({"state": {"c_plus": [2.0, 0.0], "c_minus": [0.0, 0.0]}}))
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,1", "--t-end", "1", "--steps", "2", "--config", str(cfg)],
        )
        assert code == 1
        assert "normalized" in err

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"c_plus": [math.nan, 0.0], "c_minus": [0.0, 0.0]},
             "bad state: amplitudes must be finite, got (nan+0j)"),
            ({"c_plus": [1e154, 0.0], "c_minus": [1e154, 0.0]}, "state must be normalized"),
            ({"c_plus": [1, None], "c_minus": [0, 0]},
             "bad state: c_plus must be [re, ps], two numbers; got [1, None]"),
            ({"c_plus": 1, "c_minus": [0, 0]},
             "bad state: c_plus must be [re, ps], two numbers; got 1"),
            ({"c_plus": [1, 0], "c_minus": {"a": 1, "b": 2}},
             "bad state: c_minus must be [re, ps], two numbers; got {'a': 1, 'b': 2}"),
            ({"c_plus": [True, 0], "c_minus": [0, 0]},
             "bad state: c_plus must be [re, ps], two numbers; got [True, 0]"),
            ({"c_plus": "10", "c_minus": "00"},
             "bad state: c_plus must be [re, ps], two numbers; got '10'"),
            ({"c_plus": {"1": 0, "0": 1}, "c_minus": [0, 0]},
             "bad state: c_plus must be [re, ps], two numbers; got {'1': 0, '0': 1}"),
            # a JSON integer past the double range is +-inf, as 1e400 is
            ({"c_plus": [10 ** 400, 0], "c_minus": [0, 0]},
             "bad state: amplitudes must be finite, got (inf+0j)"),
        ],
        ids=["nan", "norm_overflows", "null_part", "number", "object", "boolean", "text",
             "object_of_numbers", "huge_integer"],
    )
    def test_state_out_of_range(self, capsys, tmp_path, state, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"state": state}))
        code, out, err = run_cli(
            capsys,
            ["evolve", "--B", "0,0,1", "--t-end", "1", "--steps", "2", "--config", str(cfg)],
        )
        assert code == 1
        assert err == f"gatss evolve: error: {message}\n"

    def test_theta0_conflicts_with_state(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"state": "minus"}))
        code, out, err = run_cli(
            capsys,
            [
                "evolve",
                "--B",
                "0,0,1",
                "--theta0",
                "0.5",
                "--t-end",
                "1",
                "--steps",
                "2",
                "--config",
                str(cfg),
            ],
        )
        assert code == 1
        assert "not both" in err


class TestConformance:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(capsys, ["conformance", "--seed", "42", "--count", "50"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for name in ("homomorphism", "associativity", "commutators", "rabi_triangle"):
            assert any(line.startswith(name) and "PASS" in line for line in lines)
        assert lines[-1] == "overall: PASS (seed=42)"

    def test_count_validation(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        for argv, config, err in [
            (["--count=0"], {}, "count must be at least 1"),
            (["--count=9223372036854775808"], {}, "count must be at most 9223372036854775807"),
            ([], {"count": 1e300}, "count must be at most 9223372036854775807"),
            (["--seed=-1"], {}, "seed must be at least 0"),
            ([], {"seed": -1}, "seed must be at least 0"),
            (["--count=0", "--seed=-1"], {}, "count must be at least 1"),
        ]:
            path.write_text(json.dumps(config))
            result = run_cli(capsys, ["conformance", *argv, "--config", str(path)])
            assert result == (1, "", f"gatss conformance: error: {err}\n"), (argv, config)

    def test_config_seed(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 9, "count": 25}))
        code, out, err = run_cli(capsys, ["conformance", "--config", str(cfg)])
        assert code == 0
        assert "overall: PASS (seed=9)" in out

    def test_one_failing_suite_fails_the_run(self, capsys, monkeypatch):
        # the overall line and the exit code read one verdict: a tolerance
        # of 0 fails the associativity suite alone
        monkeypatch.setattr(conformance, "ASSOCIATIVITY_TOL", 0.0)
        code, out, err = run_cli(capsys, ["conformance", "--seed", "5", "--count", "50"])
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:4]] == [
            ["homomorphism", "PASS"], ["associativity", "FAIL"],
            ["commutators", "PASS"], ["rabi_triangle", "PASS"]]
        assert lines[4:] == ["overall: FAIL (seed=5)"]
        assert (code, err) == (2, "")


def test_rotor_at_the_full_angle_fails_both_checks(capsys, monkeypatch):
    # the tamper check: the rotor exponential given the full angle instead
    # of the half angle, exp(-2 (t / hbar) e123 h); the matrix oracle does
    # not share it, so the Rabi triangle and evolve --check both fail
    conformance_argv = ["conformance", "--seed", "3", "--count", "50"]
    evolve_argv = ["evolve", "--B=1,2,3", "--t-end=10", "--steps=11", "--check"]
    assert run_cli(capsys, conformance_argv)[0] == 0
    assert run_cli(capsys, evolve_argv)[0] == 0
    half_angle = twostate._exp_bivector_rows
    monkeypatch.setattr(twostate, "_exp_bivector_rows", lambda c: half_angle(2.0 * c))
    code, out, _ = run_cli(capsys, conformance_argv)
    assert code == 2
    assert any(line.startswith("rabi_triangle") and "FAIL" in line for line in out.splitlines())
    code, _, err = run_cli(capsys, evolve_argv)
    assert code == 2
    assert float(err[len("check: max_deviation = "):]) > 0.1


def test_rotor_angle_off_by_1e_8_fails_every_check(capsys, monkeypatch):
    # a unit-scale tamper cell: the rotor exponential given a relative 1e-8
    # too much angle; its rotors stay unit, so the row kernel flags no row
    # and only the gaps against the matrix oracle and the closed form see it
    argvs = [["conformance", "--seed=3", "--count=75"],
             ["evolve", "--B=1,2,3", "--t-end=10", "--steps=50", "--check"],
             ["evolve", "--B=1,2,3", "--t-end=10", "--steps=50", "--check-rabi"]]
    assert [run_cli(capsys, argv)[0] for argv in argvs] == [0, 0, 0]
    exp_rows, evolution_rows, flagged = twostate._exp_bivector_rows, twostate._evolution_rows, []

    def spied(*args):
        rows = evolution_rows(*args)
        flagged.append(bool(rows[2].any()))
        return rows

    monkeypatch.setattr(twostate, "_exp_bivector_rows", lambda c: exp_rows(c * (1.0 + 1e-8)))
    monkeypatch.setattr(twostate, "_evolution_rows", spied)
    monkeypatch.setattr(conformance, "_evolution_rows", spied)
    results = [run_cli(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in results] == [2, 2, 2]
    assert "rabi_triangle  FAIL  worst=2.107e-07" in results[0][1]
    assert [err.split(" = ")[0] for _, _, err in results[1:]] == [
        "check: max_deviation", "check-rabi: max_deviation"]
    assert len(flagged) == 3 and not any(flagged)


def test_a_flipped_scalar_term_fails_evolve_and_the_rabi_triangle(capsys, monkeypatch):
    # the products that compute only some blades read the one term list:
    # e23 e23 = +1 in algebra._row_arrays.  Every scalar term is a diagonal
    # a[i] b[i], so the flip first reaches each state's norm, blades 0 and
    # 7 of reverse(psi) psi; the row kernel marks those rows, and the object
    # API, whose product does not read the arrays, accepts them.  So evolve
    # stops with the row kernel's error, a failed internal check that exits
    # 2, before its check runs, and the Rabi triangle reads the marked rows
    # as NaN
    argvs = [["evolve", "--B=1,2,3", "--t-end=10", "--steps=50", "--check"],
             ["conformance", "--seed=3", "--count=75"]]
    assert [run_cli(capsys, argv)[0] for argv in argvs] == [0, 0]
    left, right, sign, reversion = algebra._row_arrays()
    term = 8 * 4 + 0  # the term of blade 1 whose left factor is e23
    assert right[term] == 4 and sign[term] == -1.0
    flipped = sign.copy()
    flipped[term] = 1.0
    monkeypatch.setattr(algebra, "_row_arrays", lambda: (left, right, flipped, reversion))
    assert run_cli(capsys, argvs[0]) == (2, "", (
        "gatss evolve: error: the row kernel rejected t = 0.20408163265306123, "
        "which the object API accepts\n"))
    code, out, _ = run_cli(capsys, argvs[1])
    assert code == 2 and "rabi_triangle  FAIL  worst=nan" in out


@pytest.mark.parametrize("defect", ["eigenvectors tilted 1e-7 rad", "e_plus off by 1e-8"])
def test_diag_sees_a_unit_scale_eigensystem_defect(capsys, monkeypatch, defect):
    # unit-scale tamper cells for diag: both eigenspinors turned 1e-7 rad
    # about e1, or e_plus off by a relative 1e-8
    argv = ["diag", "--h=0.3,1,-2,0.5"]
    assert "status = ok" in run_cli(capsys, argv)[1]
    exact, tilt = cli.eigensystem, rotor_axis_angle(E1, 1e-7).mv

    def tampered(h):
        es = exact(h)
        if defect.startswith("eigenvectors"):
            return es._replace(psi_plus=left_mul(tilt, es.psi_plus),
                               psi_minus=left_mul(tilt, es.psi_minus))
        return es._replace(e_plus=es.e_plus * (1.0 + 1e-8))

    monkeypatch.setattr(cli, "eigensystem", tampered)
    code, out, _ = run_cli(capsys, argv)
    assert code == 2 and "status = tolerance-exceeded" in out


# argv from a command name (or none, or an unknown one) and then known,
# unknown and abbreviated flags, as --flag=value and as --flag value,
# negative numbers, -h, --, - and stray positionals
_FLAGS = ["--" + name.replace("_", "-") for name, (flag, _, _) in _SETTINGS.items() if flag]
_VALUES = st.sampled_from(["1", "-1", "-.5", "-0.5,1,2,3", "0,1,0,1", "1e-3", "json", "x"])
_TOKENS = st.one_of(
    st.tuples(st.sampled_from(_FLAGS)),
    st.builds(lambda flag, value: (f"{flag}={value}",), st.sampled_from(_FLAGS), _VALUES),
    st.tuples(st.sampled_from(_FLAGS), _VALUES),
    st.tuples(st.sampled_from(
        ["-h", "--help", "--", "-", "--bogus", "-x", "extra", "-1", "", "--form", "--t-e=1"])),
)
ARGV = st.builds(
    lambda head, tokens: head + [arg for token in tokens for arg in token],
    st.sampled_from([["diag"], ["evolve"], ["conformance"], [], ["nope"]]),
    st.lists(_TOKENS, max_size=6),
)


def parsed(parse, argv):
    """The settings namespace, or the exit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParsing:
    @pytest.mark.parametrize("argv, config, code, err", [
        (["evolve", "--steps=2"], {"q": "abc"}, 1, "q must be a number, got 'abc'"),
        (["evolve", "--steps=2"], {"q": "inf"}, 1, "q must be finite"),
        (["evolve"], {"steps": True}, 1, "steps must be an integer"),
        (["evolve"], {"steps": 2.5}, 1, "steps must be an integer, got 2.5"),
        (["evolve"], {"steps": "3"}, 1, "steps must be an integer, got '3'"),
        (["evolve", "--steps=2"], {"format": "xml"}, 1, 'format must be "csv" or "json"'),
        (["evolve", "--steps=2", "--B=1,nan,0"], {}, 1, "--B must be finite"),
        (["diag", "--h=0,1,inf,0"], {}, 1, "--h must be finite"),
        (["evolve"], {"steps": 3.0}, 0, None),
        (["evolve", "--steps=2"], {"check": "false"}, 1,
         "check must be true or false, got 'false'"),
        (["evolve", "--steps=2"], {"check_rabi": 1}, 1, "check-rabi must be true or false, got 1"),
        (["evolve", "--steps=2"], {"q": True}, 1, "q must be a number, got True"),
        (["evolve", "--steps=2"], {"q": 10 ** 400}, 1, "q must be finite"),
        (["diag"], {"h": [True, 1, 0, 0]}, 1, "h must be a number, got True"),
        (["evolve"], {"steps": 3, "check": False, "check_rabi": False}, 0, None),
        (["diag", "--h=0,0,0,0", "--tol=-1"], {}, 1, "tol must be at least 0"),
        (["evolve", "--steps=2", "--check"], {"tol": -5e-324}, 1, "tol must be at least 0"),
        (["evolve", "--steps=3", "--tol=-0.0"], {}, 0, None),
        (["evolve", "--steps=3"], {"tol": 0}, 0, None),
    ])
    def test_config_and_flag_casts(self, capsys, tmp_path, argv, config, code, err):
        path = tmp_path / "c.json"
        base = {"B": [0, 0, 1], "t_end": 1} if argv[0] == "evolve" else {}
        path.write_text(json.dumps(base | config))
        result = run_cli(capsys, argv + ["--config", str(path)])
        if err is None:
            assert result[0] == code and result[2] == "" and len(result[1].splitlines()) == 4
        else:
            assert result == (code, "", f"gatss {argv[0]}: error: {err}\n")

    @pytest.mark.parametrize("value, expected", [
        (True, "t-end must be a number, got True"),
        ("2", 2.0),
        ("abc", "t-end must be a number, got 'abc'"),
        (None, "t-end must be a number, got None"),
        ([1], "t-end must be a number, got [1]"),
        (10 ** 400, "t-end must be finite"),
        (-10 ** 400, "t-end must be finite"),
        (1e400, "t-end must be finite"),
        (math.nan, "t-end must be finite"),
        (-0.0, -0.0),
    ], ids=["bool", "text", "not-a-number", "none", "list", "huge", "minus-huge", "inf", "nan",
            "minus-zero"])
    def test_number_cast(self, value, expected):
        # the library's number cast, algebra._real, then the finite and low checks
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                cli._number(value, "t_end", low=0.0)
        else:
            assert cli._number(value, "t_end", low=0.0).hex() == expected.hex()

    @pytest.mark.parametrize("argv", [
        ["diag", "--h", "-0.5,1,2,3"],
        ["diag", "--h", "-.5,1,2,3", "--format", "json"],
        ["evolve", "--B", "-1,0,1", "--t-end", "1", "--steps", "3"],
    ])
    def test_negative_first_value_after_a_space(self, capsys, argv):
        # the same run as with --flag=value
        result = run_cli(capsys, argv)
        assert result[0] == 0
        assert result == run_cli(capsys, [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]])

    def test_option_as_value_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["diag", "--h", "-x"])
        assert (code, out) == (1, "")
        assert err.endswith("gatss diag: error: argument --h: expected one argument\n")

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, [])[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, ["evolve", "--bogus", "1"])[0] == 1

    @pytest.mark.parametrize("argv, extras", [
        (["evolve", "--B=1,2,3", "--t-e=1", "--ste=2"], "--t-e=1 --ste=2"),
        (["diag", "--h=1,2,3,4", "--form=json"], "--form=json"),
        (["diag", "--h=1,2,3,4", "--form", "json"], "--form json"),
        (["conformance", "--co", "5"], "--co 5"),
    ])
    def test_flags_must_be_spelled_in_full(self, capsys, argv, extras):
        assert run_cli(capsys, argv) == (
            1, "", "usage: gatss [-h] {diag,evolve,conformance} ...\n"
            f"gatss: error: unrecognized arguments: {extras}\n")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    @settings(max_examples=300, deadline=None)
    @given(argv=ARGV)
    def test_dispatch_matches_the_nested_pass(self, argv):
        # the top-level parser's nested pass still reads every argv that
        # starts with no command, so it is the reference for the rest
        assert parsed(cli._parse, argv) == parsed(cli._parser()[0].parse_args, argv)

    @pytest.mark.parametrize("argv, command", [
        (["diag", "--h=0,1,0,1"], "diag"),
        (["evolve", "--bogus", "1"], "evolve"),
        (["conformance", "--help"], "conformance"),
        ([], None),
        (["--help"], None),
        (["nope"], None),
    ])
    def test_one_parse_per_call(self, capsys, monkeypatch, argv, command):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        main(argv)
        assert len(calls) == 1
        top, commands = cli._parser()
        assert calls[0] is (top if command is None else commands[command])

    def test_bad_config_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli(capsys, ["diag", "--h", "0,1,0,1", "--config", str(missing)])[0] == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(capsys, ["diag", "--h", "0,1,0,1", "--config", str(bad)])[0] == 1
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        assert run_cli(capsys, ["diag", "--h", "0,1,0,1", "--config", str(arr)])[0] == 1
        # past the digit limit of int(), nested past the recursion limit, not UTF-8
        for name, data in [
            ("digits.json", b'{"seed": ' + b"1" * 5000 + b"}"),
            ("nested.json", b"[" * 1000 + b"]" * 1000),
            ("bytes.json", b"\xff\xfe{}"),
        ]:
            path = tmp_path / name
            path.write_bytes(data)
            code, out, err = run_cli(capsys, ["diag", "--h", "0,1,0,1", "--config", str(path)])
            assert (code, out, len(err.splitlines())) == (1, "", 1), name
            assert err.startswith("gatss diag: error: config file is not valid JSON: "), name


class TestSubprocess:
    def test_module_entry_point_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "gatss.cli",
            "evolve",
            "--B",
            "0.4,-1.1,2.2",
            "--t-end",
            "3",
            "--steps",
            "7",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode().splitlines()[0] == CSV_HEADER

    def test_closed_stdout_pipe_exits_1_quietly(self):
        # the reader takes one line and closes the pipe, as `| head -1` does
        argv = ["evolve", "--B=1,0,1", "--t-end=1", "--steps=5000"]
        proc = subprocess.Popen([sys.executable, "-m", "gatss", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == (CSV_HEADER + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["diag", "--h=1e160,0,0,0"], 0, ""),
            (
                ["evolve", "--B=1e160,0,0", "--t-end=2", "--steps=4", "--check"],
                2,
                "check: max_deviation = nan\n",
            ),
        ],
        ids=["diag", "evolve"],
    )
    def test_no_numpy_warnings_on_stderr(self, argv, code, err):
        # the oracle overflows on these inputs; numpy's warnings would name
        # the installed source file
        done = subprocess.run([sys.executable, "-m", "gatss.cli", *argv], capture_output=True)
        assert done.returncode == code
        assert done.stderr.decode() == err


# Run in a fresh interpreter: import gatss and gatss.cli, call main on the
# argv given ("-": import only), and print the exit code, whether numpy is
# loaded, and whether cli holds a numpy module.
FRESH_MAIN = """
import json, sys, types
import gatss, gatss.cli
code = None if sys.argv[1] == "-" else gatss.cli.main(sys.argv[1:])
modules = {v.__name__.split(".")[0] for v in vars(gatss.cli).values()
           if isinstance(v, types.ModuleType)}
print(json.dumps([code, "numpy" in sys.modules, "numpy" in modules]))
"""


class TestNumpyOnFirstUse:
    """numpy loads only with the row kernels and the stacked oracle:
    importing gatss and every diag run, whatever its exit code, load none."""

    @pytest.mark.parametrize("argv, code, loaded", [
        (["-"], None, False),
        (["diag", "--h=0.3,1,-2,0.5"], 0, False),
        (["diag", "--h=0.3,1.2,-0.7,0.4", "--format=json"], 0, False),
        (["diag", "--h=2,0,0,0"], 0, False),
        (["diag", "--config", "{config}"], 0, False),
        (["diag", "--h=1e308,1e308,0,0"], 1, False),
        (["diag", "--h=0.3,1.2,-0.7,0.4", "--tol=1e-30"], 2, False),
        (["evolve", "--B=1,2,3", "--t-end=1", "--steps=3"], 0, True),
    ], ids=["import", "diag_csv", "diag_json", "diag_degenerate", "diag_config",
            "diag_exit_1", "diag_exit_2", "evolve"])
    def test_numpy_loads_on_first_use(self, tmp_path, argv, code, loaded):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"h": [1.5, -0.25, 2.0, -3.0], "format": "json"}))
        argv = [str(config) if a == "{config}" else a for a in argv]
        done = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv],
                              capture_output=True, text=True)
        result = json.loads(done.stdout.splitlines()[-1])
        # cli itself never holds numpy, whatever the subcommand loads
        assert result == [code, loaded, False], done.stderr

    def test_object_api_without_numpy(self):
        # the script that CI's goldens-without-numpy job runs, here with
        # numpy blocked: any import of it raises ImportError
        script = os.path.join(os.path.dirname(__file__), "object_api_without_numpy.py")
        block = ("import runpy, sys; sys.modules['numpy'] = None; "
                 "runpy.run_path(sys.argv[1], run_name='__main__')")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gatss.__file__)))
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", block, script],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        assert len(done.stdout.split()) == 12


# Run in a fresh `python -S` interpreter, which has neither site-packages
# nor what a .pth file there would load: put gatss first on the path and
# numpy's directory last, then either import numpy alone (argv "numpy") or
# import gatss.cli and call main on the argv given ("-": import only).
# Print the exit code and which of the modules that no computation needs
# are loaded, read before anything is imported to print them.
LEAN_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
code = None
if sys.argv[3] == "numpy":
    import numpy
else:
    import gatss.cli
    if sys.argv[3] != "-":
        code = gatss.cli.main(sys.argv[3:])
print(code, *(m for m in ("dataclasses", "inspect", "json", "typing") if m in sys.modules))
"""


def lean_run(*argv):
    """LEAN_MAIN's last line, split into the exit code and the loaded modules."""
    paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (gatss, np)]
    done = subprocess.run([sys.executable, "-S", "-c", LEAN_MAIN, *paths, *argv],
                          capture_output=True, text=True)
    assert done.stdout, done.stderr
    return done.stdout.splitlines()[-1].split()


class TestLeanImport:
    """`import gatss.cli` and every diag run load none of dataclasses,
    inspect, json and typing; evolve loads only those that numpy loads
    itself, and a config file is the one input that loads json."""

    @pytest.mark.parametrize("argv, loaded", [
        (["-"], []),
        (["diag", "--h=0.3,1,-2,0.5"], []),
        (["diag", "--h=0.3,1.2,-0.7,0.4", "--format=json"], []),
        (["diag", "--config", "{config}"], ["json"]),
        (["evolve", "--B=1,2,3", "--t-end=1", "--steps=3"], None),
    ], ids=["import", "diag_csv", "diag_json", "diag_config", "evolve_csv"])
    def test_unneeded_modules_stay_unloaded(self, tmp_path, argv, loaded):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"h": [1.5, -0.25, 2.0, -3.0], "format": "json"}))
        argv = [str(config) if a == "{config}" else a for a in argv]
        if loaded is None:
            loaded = lean_run("numpy")[1:]
            assert "dataclasses" not in loaded and "json" not in loaded
        assert lean_run(*argv) == ["None" if argv == ["-"] else "0", *loaded]


# floats over the double range, with the values where repr changes
# notation (1e16 and 1e-5), signed zeros, subnormals and the non-finite
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e16, 9999999999999998.0,
                     1e-5, 9.999999999999999e-06, -1.7976931348623157e308,
                     math.nan, math.inf, -math.inf]),
)
json_leaves = st.one_of(json_floats, st.lists(json_floats, max_size=4), st.booleans(),
                        st.sampled_from(["ok", "tolerance-exceeded"]))
json_keys = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", max_size=12)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.recursive(json_leaves, lambda values: st.dictionaries(json_keys, values, max_size=4),
                        max_leaves=12))
    @example([])
    @example({})
    @example({"t": [], "p": [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5]})
    def test_writes_json_dumps_layout(self, value):
        assert _json(value) == json.dumps(value, indent=2)


def magnitudes(lo, hi):
    """Floats in [lo, hi]: hypothesis' own choice, or log-uniform."""
    log_uniform = st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(hi, max(lo, 10.0 ** e))
    )
    return st.one_of(st.floats(lo, hi), log_uniform)


signed_field = st.tuples(magnitudes(1e-8, 1e150), st.booleans()).map(
    lambda m: -m[0] if m[1] else m[0]
)
# tilts over the whole finite range, with signed zeros and subnormals
signed_tilt = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.tuples(magnitudes(1e-300, 1e308), st.booleans()).map(lambda m: -m[0] if m[1] else m[0]),
)


class TestCheckProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(signed_field, signed_field, signed_field),
        magnitudes(1e-6, 1e10),
        magnitudes(1e-8, 1e30),
        signed_tilt,
    )
    def test_check_never_raises(self, b, hbar, t_end, theta0):
        # exit 1 is left only where |h| t / hbar overflows a double, with
        # the message of test_phase_overflow_exit_1
        argv = ["evolve", "--B=" + ",".join(map(repr, b)), f"--hbar={hbar!r}",
                f"--theta0={theta0!r}", f"--t-end={t_end!r}", "--steps=3", "--check"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h = hamiltonian_from_field(FieldConfig(B=b, hbar=hbar)).h
        assert code in ((0, 2) if _norm3(*h) * (t_end / hbar) < 1e308 else (0, 1, 2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(signed_field, signed_field, signed_field)),
        st.one_of(
            st.sampled_from([(-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]),
            st.floats(-math.pi, math.pi).map(lambda phi: (math.cos(phi), math.sin(phi))),
        ),
    )
    def test_check_rabi_sees_no_phase(self, b, c_plus):
        # the Rabi formula holds out of eps_plus times any unit phase, in any
        # field; a phase of -1 flips every sign exactly, so its whole run is
        # eps_plus's, while other phases can move the last bits of a gap.
        # The grid ends at an angle omega t of 10, where the absolute tol
        # holds at every field scale (the angle's roundoff grows with it).
        t_end = 10.0 / (_norm3(*b) or 1.0)
        argv = ["evolve", "--B=" + ",".join(map(repr, b)), f"--t-end={t_end!r}", "--steps=5",
                "--check-rabi"]
        with tempfile.TemporaryDirectory() as workdir:
            cfg = os.path.join(workdir, "c.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"state": {"c_plus": c_plus, "c_minus": [0.0, 0.0]}}, fh)
            phased = run_captured(argv + ["--config", cfg])
        plus = run_captured(argv)
        assert (phased[0], plus[0]) == (0, 0)
        assert phased[2].startswith("check-rabi: max_deviation = ")
        if c_plus in ((1.0, 0.0), (-1.0, 0.0)):
            assert phased == plus


# any finite double: signed zeros, subnormals, hypothesis' own choice, and
# magnitudes log-uniform from 1e-320, half of them near the largest double
finite_double = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.one_of(magnitudes(1e-320, 1e308), st.floats(1e300, sys.float_info.max)),
              st.booleans()).map(lambda m: -m[0] if m[1] else m[0]),
)


def strict_exit_code(argv):
    """main(argv) with every warning an error, its output discarded."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        return main(argv)


class TestNoWarningReachesTheCli:
    """cli.main sets no floating-point state of its own: each library
    function it reaches owns its own, so no numpy warning escapes it."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_double, min_size=4, max_size=4), st.sampled_from(["csv", "json"]))
    @example([1e308, 1e308, 0.0, 0.0], "csv")  # an eigenvalue overflows
    @example([1e308, 0.0, 0.0, -1e308], "json")
    def test_diag(self, h, fmt):
        argv = ["diag", "--h=" + ",".join(map(repr, h)), f"--format={fmt}"]
        assert strict_exit_code(argv) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite_double, min_size=3, max_size=3),
        st.lists(finite_double, min_size=5, max_size=5),
        st.one_of(st.none(), finite_double),
        st.integers(1, 4),
        st.lists(st.sampled_from(["--check", "--check-rabi", "--format=json"]), unique=True),
    )
    # a last step past the top, a span that overflows, an oracle that does,
    # a |B| that does under the Rabi formula
    @example([1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, sys.float_info.max], None, 4, [])
    @example([1e-300, 0.0, 0.0], [1.0, 1.0, 1.0, -1.5e308, 1.5e308], None, 5,
             ["--check", "--check-rabi", "--format=json"])
    @example([1e160, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 2.0], None, 4, ["--check"])
    @example([1.3e308, 1.3e308, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0], None, 1, ["--check-rabi"])
    def test_evolve(self, b, values, theta0, steps, flags):
        q, m, hbar, t_start, t_end = values
        t_start, t_end = sorted((t_start, t_end))
        argv = ["evolve", "--B=" + ",".join(map(repr, b)), f"--q={q!r}", f"--m={abs(m)!r}",
                f"--hbar={abs(hbar)!r}", f"--t-start={t_start!r}", f"--t-end={t_end!r}",
                f"--steps={steps}", *flags]
        if theta0 is not None:
            argv.append(f"--theta0={theta0!r}")
        assert strict_exit_code(argv) in (0, 1, 2)

    # Whole runs where the batched kernels meet their limits: long grids and
    # suites, a span t-end - t-start that overflows a double, a 1e300
    # angle, entries whose squares underflow (1e-200, 1e-300) or overflow
    # (1e200, 1e308), a value after a space; and the exit codes at
    # breakdown: an eigenvalue that overflows is an input error, 1, and
    # past a phase of about 9e307 the closed forms fail their check, 2.
    AT_SCALE = [
        ("conformance --count 20000", 0),
        ("evolve --B=1,2,3 --t-end=50 --steps=10000 --check", 0),
        ("evolve --B=0,0,0 --t-end=50 --steps=10000 --check", 0),
        ("evolve --B=1,0,1 --t-end=50 --steps=10000 --check-rabi", 0),
        ("evolve --B=1,2,3 --t-end=1e5 --steps=2001 --check", 0),
        ("diag --h=6429.006900440708,-0.5114275108942732,-0.8446029215658675,-0.15839130652560873",
         0),
        ("diag --h=1,1e-9,0,0", 0),
        ("evolve --B=0,0,1 --theta0=1e300 --t-end=1 --steps=3", 0),
        ("evolve --B=1e200,0,0 --t-end=1 --steps=3", 0),
        ("diag --h=0.3,1,-2,0.5", 0),
        ("diag --h=0.3,1,-2,0.5 --format=json", 0),
        ("diag --h=0,1e-200,0,1e-200", 0),
        ("diag --h -0.5,1,2,3", 0),
        ("evolve --B -1,0,1 --t-end=1 --steps=3", 0),
        ("evolve --B=1e-300,0,0 --t-start=-1.5e308 --t-end=1.5e308 --steps=5", 0),
        ("diag --h=1e308,1e308,0,0", 1),
        ("evolve --B=1e308,0,0 --t-end=1.9 --steps=2 --check", 2),
    ]

    @pytest.mark.parametrize("argv, code", AT_SCALE, ids=[argv for argv, _ in AT_SCALE])
    def test_at_scale(self, argv, code):
        assert strict_exit_code(argv.split()) == code


# any JSON value, as json.load gives it back
any_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
# a size is small, or too large to hold, or no integer at all: never a size
# the process could really allocate or run through
non_integer = any_json.filter(
    lambda v: not (type(v) is int or isinstance(v, float) and v.is_integer())
)
huge = [2 ** 63, 2 ** 70, 1e300]
amplitude = st.one_of(st.lists(finite_double, min_size=2, max_size=2), any_json)
# each setting's valid values (a grid never runs backwards), then its
# arbitrary ones
CONFIG_VALUES = {
    "h": (st.lists(finite_double, min_size=4, max_size=4), any_json),
    "B": (st.lists(finite_double, min_size=3, max_size=3), any_json),
    "q": (finite_double, any_json),
    "m": (magnitudes(1e-300, 1e300), any_json),
    "hbar": (magnitudes(1e-300, 1e300), any_json),
    "theta0": (finite_double, any_json),
    "t_start": (finite_double.map(lambda t: -abs(t)), any_json),
    "t_end": (finite_double.map(abs), any_json),
    "steps": (st.integers(1, 8), st.one_of(st.sampled_from([2 ** 59, *huge]), non_integer)),
    "seed": (st.integers(min_value=0), any_json),
    "count": (st.integers(1, 8), st.one_of(st.sampled_from(huge), non_integer)),
    "format": (st.sampled_from(["csv", "json"]), any_json),
    "check": (st.booleans(), any_json),
    "check_rabi": (st.booleans(), any_json),
    "config": (st.none(), any_json),
    "tol": (finite_double.map(abs), any_json),
    "state": (st.one_of(st.sampled_from(["plus", "minus"]),
                        st.fixed_dictionaries({"c_plus": amplitude, "c_minus": amplitude})),
              any_json),
}


REQUIRED = {"diag": ("h",), "evolve": ("B", "t_end", "steps"), "conformance": ()}


@st.composite
def config_files(draw):
    """A subcommand and its config: each setting it takes absent or valid,
    the required ones valid, then up to three of any settings arbitrary."""
    command = draw(st.sampled_from(list(REQUIRED)))
    config = {key: draw(valid) for key, (valid, _) in CONFIG_VALUES.items()
              if key in REQUIRED[command] or command in _SETTINGS[key][2] and draw(st.booleans())}
    for key in draw(st.lists(st.sampled_from(list(CONFIG_VALUES)), max_size=3, unique=True)):
        config[key] = draw(CONFIG_VALUES[key][1])
    return command, config


class TestConfigValuesReachNoTraceback:
    """Whatever a config file holds, a run exits 0, 1 or 2: a bad value is
    an input error, never a traceback or a warning."""

    def test_every_setting_is_drawn(self):
        assert CONFIG_VALUES.keys() == _SETTINGS.keys()

    @settings(max_examples=300, deadline=None)
    @given(config_files())
    @example(("evolve", {"B": [0, 0, 1], "t_end": 1, "steps": 2,
                         "state": {"c_plus": 1, "c_minus": [0, 0]}}))
    @example(("evolve", {"B": [0, 0, 1], "t_end": 1, "steps": 2 ** 59}))
    @example(("conformance", {"count": 1e300}))
    def test_config(self, run):
        command, config = run
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            assert strict_exit_code([command, "--config", path]) in (0, 1, 2)
