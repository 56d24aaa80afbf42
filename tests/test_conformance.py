import dataclasses

import numpy as np
import pytest

from gatss.conformance import (
    SuiteResult,
    eigensystem_residuals,
    rabi_deviation,
    run_all,
    suite_commutators,
    suite_homomorphism,
    trajectory_deviations,
    worst_deviation,
)
from gatss.spinor import basis_eps
from gatss.twostate import FieldConfig, Hamiltonian, eigensystem, polar_state, trajectory

EPS_PLUS = basis_eps()[0]
TILTED = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9)


class TestRunAll:
    def test_all_suites_pass(self):
        results = run_all(seed=42, count=100)
        assert [r.name for r in results] == [
            "homomorphism",
            "associativity",
            "commutators",
            "rabi_triangle",
        ]
        for r in results:
            assert isinstance(r, SuiteResult)
            assert r.passed, f"{r.name} failed with worst={r.worst:.3e}"
            assert r.worst <= r.tol

    def test_deterministic_per_seed(self):
        a = run_all(seed=7, count=50)
        b = run_all(seed=7, count=50)
        assert a == b

    def test_seed_changes_stream(self):
        a = run_all(seed=1, count=50)
        b = run_all(seed=2, count=50)
        assert [r.worst for r in a] != [r.worst for r in b]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_all(seed=0, count=0)


class TestIndividualSuites:
    def test_commutators_exact(self):
        r = suite_commutators()
        assert r.passed and r.worst == 0.0 and r.count == 9

    def test_homomorphism_counts(self):
        r = suite_homomorphism(np.random.default_rng(0), 25)
        assert r.count == 25 and r.passed


class TestOracleChecks:
    @pytest.mark.parametrize("cfg", [TILTED, FieldConfig(B=(0.0, 0.0, 0.0))])
    @pytest.mark.parametrize("psi0", [EPS_PLUS, polar_state(0.7, -1.2)])
    def test_trajectory_deviations(self, cfg, psi0):
        table = trajectory(cfg, psi0, np.linspace(0.0, 12.0, 41))
        devs = trajectory_deviations(cfg, psi0, table)
        assert list(devs) == ["dev_p", "dev_s", "dev_u"]
        for column in devs.values():
            assert len(column) == 41 and max(column) <= 1e-10

    def test_trajectory_deviations_see_a_wrong_row(self):
        table = trajectory(TILTED, EPS_PLUS, np.linspace(0.0, 3.0, 7))
        table["s2"][4] += 1e-6
        devs = trajectory_deviations(TILTED, EPS_PLUS, table)
        assert abs(devs["dev_s"][4] - 1e-6) <= 1e-9
        assert max(devs["dev_s"][:4] + devs["dev_s"][5:]) <= 1e-10

    def test_rabi_deviation(self):
        table = trajectory(TILTED, EPS_PLUS, np.linspace(0.0, 12.0, 41))
        assert rabi_deviation(TILTED, table) <= 1e-12
        table["p_minus"][7] -= 1e-6
        assert abs(rabi_deviation(TILTED, table) - 1e-6) <= 1e-9

    @pytest.mark.parametrize(
        "h",
        [
            Hamiltonian(0.3, (1.2, -0.7, 0.4)),
            Hamiltonian(-2.0, (0.0, 0.0, -1.5)),
            Hamiltonian(5.0, (0.0, 0.0, 0.0)),
        ],
        ids=["generic", "axial", "degenerate"],
    )
    def test_eigensystem_residuals(self, h):
        residuals = eigensystem_residuals(h, eigensystem(h))
        assert list(residuals) == [
            "residual_eigen_relation",
            "residual_oracle_eigenvalues",
            "residual_oracle_overlap",
        ]
        assert max(residuals.values()) <= 1e-9

    def test_eigensystem_residuals_see_a_wrong_eigenvalue(self):
        h = Hamiltonian(0.3, (1.2, -0.7, 0.4))
        es = eigensystem(h)
        residuals = eigensystem_residuals(h, dataclasses.replace(es, e_plus=es.e_plus + 1e-3))
        assert residuals["residual_oracle_eigenvalues"] >= 1e-3 - 1e-12
        assert residuals["residual_eigen_relation"] >= 1e-4


class TestPassRule:
    @pytest.mark.parametrize("position", range(4))
    def test_nan_anywhere_fails(self, position):
        devs = [1e-16, 0.0, 3e-15, 2e-16]
        devs[position] = float("nan")
        worst = worst_deviation(devs)
        assert np.isnan(worst)
        assert not SuiteResult("check", worst, 1e-10, len(devs)).passed

    def test_nan_in_a_column_fails(self):
        columns = [[0.0, 1e-16], [2e-16, float("nan")], [0.0, 0.0]]
        assert not SuiteResult("check", worst_deviation(columns), 1e-10, 2).passed

    def test_empty_is_zero(self):
        assert worst_deviation([]) == 0.0
        assert SuiteResult("check", worst_deviation([]), 0.0, 0).passed

    def test_worst_at_tol_passes(self):
        assert worst_deviation([1e-12, 3e-12, 2e-12]) == 3e-12
        assert SuiteResult("check", 3e-12, 3e-12, 3).passed
        assert not SuiteResult("check", float("inf"), 1e-10, 1).passed
