"""Acceptance gate: one test per numbered criterion, each printing a single
PASS/FAIL line (run with -s to see them on success).  Tolerances are pinned
here on purpose; loosening them is a behavior change, not a test fix.
"""

import math
import subprocess
import sys
import time

import numpy as np

from gatss import conformance, matrixqm
from gatss.algebra import (
    E1,
    E2,
    E3,
    E123,
    Multivector,
    gp,
    norm,
    sandwich,
    vector,
    wedge,
)
from gatss.spinor import inner, to_amplitudes
from gatss.twostate import (
    FieldConfig,
    Hamiltonian,
    eigensystem,
    evolution_rotor,
    evolve,
    hamiltonian_from_field,
    polar_state,
    trajectory,
    u_vector_closed_form,
)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d} {'PASS' if ok else 'FAIL'} {label} ({detail})")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def test_criterion_01_worked_eigensystem():
    tol = 1e-12
    es = eigensystem(Hamiltonian(0.0, (1.0, 0.0, 1.0)))
    root2 = math.sqrt(2.0)
    a = math.sqrt(2.0 + root2) / 2.0
    b = math.sqrt(2.0 - root2) / 2.0
    cp_p, cm_p = to_amplitudes(es.psi_plus)
    cp_m, cm_m = to_amplitudes(es.psi_minus)
    worst = max(
        abs(es.e_plus - root2),
        abs(es.e_minus + root2),
        abs(cp_p.real - a),
        abs(cm_p.real - b),
        abs(cp_m.real + b),
        abs(cm_m.real - a),
        abs(cp_p.imag),
        abs(cm_p.imag),
        abs(cp_m.imag),
        abs(cm_m.imag),
    )
    _report(1, "worked eigensystem", worst <= tol, f"worst={worst:.3e} tol={tol:.1e}")


def test_criterion_02_rabi_triangle():
    tol = 1e-10
    limit = 10.0
    t0 = time.perf_counter()
    result = conformance.suite_rabi_triangle(np.random.default_rng(20260814), 1000)
    elapsed = time.perf_counter() - t0
    ok = result.worst <= tol and elapsed < limit
    _report(
        2,
        "transition probability triangle",
        ok,
        f"worst={result.worst:.3e} tol={tol:.1e} elapsed={elapsed:.2f}s limit={limit:.0f}s",
    )


def test_criterion_03_precession_grid():
    tol = 1e-12
    limit = 5.0
    grid = np.linspace(0.0, 10.0, 1000)
    worst = 0.0
    t0 = time.perf_counter()
    for b3 in (0.5, 1.0, 3.0):
        cfg = FieldConfig(B=(0.0, 0.0, b3))
        w = cfg.omega_axial
        for theta0 in (0.0, math.pi / 6, math.pi / 2):
            table = trajectory(cfg, polar_state(theta0), grid)
            for t, s1, s2, s3 in zip(table["t"], table["s1"], table["s2"], table["s3"]):
                worst = max(
                    worst,
                    abs(s1 - 0.5 * math.sin(theta0) * math.cos(w * t)),
                    abs(s2 + 0.5 * math.sin(theta0) * math.sin(w * t)),
                    abs(s3 - 0.5 * math.cos(theta0)),
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < limit
    _report(
        3,
        "axial precession closed form",
        ok,
        f"worst={worst:.3e} tol={tol:.1e} elapsed={elapsed:.2f}s limit={limit:.0f}s",
    )


def test_criterion_04_representation():
    hom_tol = 1e-11
    inv_tol = 1e-13
    limit = 5.0
    worst_inv = 0.0
    t0 = time.perf_counter()
    worst_hom = conformance.suite_homomorphism(np.random.default_rng(20260815), 10_000).worst
    # the suite's stream again: the first factor of each pair round-trips
    pairs = np.random.default_rng(20260815).uniform(-10.0, 10.0, (10_000, 2, 8))
    for coeffs in pairs[:, 0]:
        a = Multivector(coeffs)
        back = matrixqm.unrep(matrixqm.rep(a))
        worst_inv = max(worst_inv, float(np.max(np.abs(back.coeffs - a.coeffs))))
    elapsed = time.perf_counter() - t0
    ok = worst_hom < hom_tol and worst_inv <= inv_tol and elapsed < limit
    _report(
        4,
        "matrix representation",
        ok,
        f"hom={worst_hom:.3e}/{hom_tol:.1e} inv={worst_inv:.3e}/{inv_tol:.1e} "
        f"elapsed={elapsed:.2f}s limit={limit:.0f}s",
    )


def test_criterion_05_spin_commutators():
    result = conformance.suite_commutators()
    ok = result.passed and result.worst == 0.0 and result.count == 9
    _report(5, "spin commutators exact", ok, f"worst={result.worst:.1e} pairs={result.count}")


def test_criterion_06_plane_factorizations():
    tol = 1e-15
    e = (E1, E2, E3)
    scale_factor = 1.0 / math.sqrt(3.0)
    planes = []
    for k in range(3):
        a = Multivector(e[(k + 1) % 3].coeffs - e[k].coeffs)
        b = Multivector(e[(k + 2) % 3].coeffs - e[k].coeffs)
        planes.append(wedge(a, b) * scale_factor)
    n_hat = vector(*(1.0 / math.sqrt(3.0),) * 3)
    dual_plane = gp(E123, n_hat)
    worst = max(
        float(np.max(np.abs(p.coeffs - dual_plane.coeffs))) for p in planes
    )
    worst = max(
        worst,
        float(np.max(np.abs(planes[0].coeffs - planes[1].coeffs))),
        float(np.max(np.abs(planes[1].coeffs - planes[2].coeffs))),
    )
    _report(6, "plane factorizations", worst <= tol, f"worst={worst:.3e} tol={tol:.1e}")


def test_criterion_07_schrodinger_flow():
    norm_tol = 1e-12
    residual_tol = 1e-8
    delta = 1e-5
    rng = np.random.default_rng(20260816)
    worst_norm = 0.0
    worst_residual = 0.0
    for _ in range(100):
        b = rng.uniform(-5.0, 5.0, 3)
        while np.linalg.norm(b) == 0.0:
            b = rng.uniform(-5.0, 5.0, 3)
        cfg = FieldConfig(B=tuple(b))
        h = hamiltonian_from_field(cfg)
        hm = h.as_multivector()
        psi0 = polar_state(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(0.0, 10.0)
        psi_t = evolve(psi0, evolution_rotor(h, t, cfg.hbar))
        worst_norm = max(worst_norm, abs(inner(psi_t, psi_t) - 1.0))
        psi_p = evolve(psi0, evolution_rotor(h, t + delta, cfg.hbar))
        psi_m = evolve(psi0, evolution_rotor(h, t - delta, cfg.hbar))
        deriv = (psi_p.mv.coeffs - psi_m.mv.coeffs) / (2.0 * delta)
        drift = gp(E123, gp(hm, psi_t.mv)).coeffs / cfg.hbar
        worst_residual = max(worst_residual, float(np.max(np.abs(deriv + drift))))
    ok = worst_norm <= norm_tol and worst_residual < residual_tol
    _report(
        7,
        "Schrodinger flow",
        ok,
        f"norm={worst_norm:.3e}/{norm_tol:.1e} residual={worst_residual:.3e}/{residual_tol:.1e}",
    )


def test_criterion_08_rotor_vs_matrix_exponential():
    tol = 1e-9
    limit = 10.0
    rng = np.random.default_rng(20260817)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        h = Hamiltonian(0.0, tuple(rng.uniform(-5.0, 5.0, 3)))
        t = rng.uniform(0.0, 10.0)
        u_mat = matrixqm.rep(evolution_rotor(h, t).mv)
        expected = matrixqm.mat_exp(matrixqm.rep(h.as_multivector()) * (-1j * t))
        worst = max(worst, float(np.max(np.abs(u_mat - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < limit
    _report(
        8,
        "rotor vs matrix exponential",
        ok,
        f"worst={worst:.3e} tol={tol:.1e} elapsed={elapsed:.2f}s limit={limit:.0f}s",
    )


def test_criterion_09_completeness_and_axis():
    tol = 1e-12
    rng = np.random.default_rng(20260818)
    worst_prob = 0.0
    worst_axis = 0.0
    for _ in range(500):
        b = rng.uniform(-5.0, 5.0, 3)
        while np.linalg.norm(b) == 0.0:
            b = rng.uniform(-5.0, 5.0, 3)
        cfg = FieldConfig(B=tuple(b))
        t = rng.uniform(0.0, 10.0)
        psi0 = polar_state(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        row = trajectory(cfg, psi0, [t])
        total = row["p_plus"][0] + row["p_minus"][0]
        worst_prob = max(worst_prob, abs(total - 1.0))
        u_s = (row["u1"][0], row["u2"][0], row["u3"][0])
        u_c = u_vector_closed_form(cfg, t)
        worst_axis = max(worst_axis, max(abs(x - y) for x, y in zip(u_s, u_c)))
    ok = worst_prob <= tol and worst_axis <= tol
    _report(
        9,
        "completeness and precessing axis",
        ok,
        f"prob={worst_prob:.3e} axis={worst_axis:.3e} tol={tol:.1e}",
    )


def test_criterion_10_cli_contract():
    evolve_cmd = [
        sys.executable,
        "-m",
        "gatss.cli",
        "evolve",
        "--B",
        "1.5,-0.5,2.0",
        "--t-end",
        "10",
        "--steps",
        "101",
    ]
    first = subprocess.run(evolve_cmd, capture_output=True)
    second = subprocess.run(evolve_cmd, capture_output=True)
    identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.decode().splitlines()[0]
        == "t,p_plus,p_minus,s1,s2,s3,u1,u2,u3"
    )
    conf = subprocess.run(
        [sys.executable, "-m", "gatss.cli", "conformance", "--seed", "42", "--count", "1000"],
        capture_output=True,
    )
    ok = identical and conf.returncode == 0
    _report(
        10,
        "command line contract",
        ok,
        f"identical_csv={identical} conformance_exit={conf.returncode}",
    )
