"""Checks of the algebra against the matrix oracle and the closed forms.

This is the one module where the algebra meets `matrixqm`.  Four randomized
suites back the command line `conformance` subcommand: the matrix
representation being multiplicative, associativity of the geometric
product, exactness of the spin commutators, and the three-way agreement of
the transition probability (closed form, rotor dynamics, matrix dynamics).
The residual and deviation functions back the checks of `diag` and
`evolve --check/--check-rabi`.

They double as a tamper check for modified builds: flipping any single
sign in the blade product table makes the homomorphism suite fail, which
is a handy manual sanity procedure after touching the table construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixqm
from .algebra import Multivector, commutator, gp, hodge_dual, norm
from .spinor import AlgebraicSpinor, basis_eps, left_mul
from .twostate import (
    EigenSystem,
    FieldConfig,
    Hamiltonian,
    evolution_rotor,
    evolve,
    hamiltonian_from_field,
    probability,
    rabi_probability,
    spin_vectors,
    u_vector_closed_form,
)

__all__ = [
    "SuiteResult",
    "suite_homomorphism",
    "suite_associativity",
    "suite_commutators",
    "suite_rabi_triangle",
    "run_all",
    "eigensystem_residuals",
    "trajectory_deviations",
    "rabi_deviation",
    "HOMOMORPHISM_TOL",
    "ASSOCIATIVITY_TOL",
    "RABI_TRIANGLE_TOL",
]

HOMOMORPHISM_TOL = 1e-11
ASSOCIATIVITY_TOL = 1e-12
RABI_TRIANGLE_TOL = 1e-10

_COEFF_SPAN = 10.0


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tol: float
    count: int


def _random_mv(rng: np.random.Generator) -> Multivector:
    return Multivector(rng.uniform(-_COEFF_SPAN, _COEFF_SPAN, 8))


def suite_homomorphism(rng: np.random.Generator, count: int) -> SuiteResult:
    """rep(a b) == rep(a) rep(b), entrywise, over random pairs."""
    worst = 0.0
    for _ in range(count):
        a, b = _random_mv(rng), _random_mv(rng)
        dev = np.max(
            np.abs(matrixqm.rep(gp(a, b)) - matrixqm.rep(a) @ matrixqm.rep(b))
        )
        worst = max(worst, float(dev))
    return SuiteResult("homomorphism", worst <= HOMOMORPHISM_TOL, worst, HOMOMORPHISM_TOL, count)


def suite_associativity(rng: np.random.Generator, count: int) -> SuiteResult:
    """(a b) c == a (b c), scaled by the product of coefficient norms."""
    worst = 0.0
    for _ in range(count):
        a, b, c = _random_mv(rng), _random_mv(rng), _random_mv(rng)
        lhs = gp(gp(a, b), c)
        rhs = gp(a, gp(b, c))
        scale_factor = max(1.0, norm(a) * norm(b) * norm(c))
        dev = float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale_factor
        worst = max(worst, dev)
    return SuiteResult("associativity", worst <= ASSOCIATIVITY_TOL, worst, ASSOCIATIVITY_TOL, count)


def suite_commutators() -> SuiteResult:
    """[S_i, S_j] = hbar e123 eps_ijk S_k, exact (tolerance zero)."""
    s_ops = spin_vectors(1.0)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    worst = 0.0
    for i in range(3):
        for j in range(3):
            lhs = commutator(s_ops[i], s_ops[j])
            rhs = Multivector(
                sum(eps[i, j, k] * hodge_dual(s_ops[k]).coeffs for k in range(3))
            )
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    return SuiteResult("commutators", worst == 0.0, worst, 0.0, 9)


def suite_rabi_triangle(rng: np.random.Generator, count: int) -> SuiteResult:
    """Transition probability out of eps_plus agrees pairwise between the
    closed form, the rotor dynamics and the matrix dynamics."""
    eps_plus, eps_minus = basis_eps()
    psi0_col = matrixqm.spinor_rep(eps_plus)
    minus_col = matrixqm.spinor_rep(eps_minus)
    worst = 0.0
    done = 0
    while done < count:
        b = rng.uniform(-5.0, 5.0, 3)
        if b[0] == 0.0 and b[1] == 0.0 and b[2] == 0.0:
            continue
        t = rng.uniform(0.0, 10.0)
        cfg = FieldConfig(B=tuple(b))
        h = hamiltonian_from_field(cfg)
        p_closed = rabi_probability(cfg, t)
        psi_t = evolve(eps_plus, evolution_rotor(h, t, cfg.hbar))
        p_rotor = probability(eps_minus, psi_t)
        col_t = matrixqm.evolve_matrix(
            psi0_col, matrixqm.rep(h.as_multivector()), t, cfg.hbar
        )
        p_matrix = matrixqm.probability_matrix(minus_col, col_t)
        worst = max(
            worst,
            abs(p_closed - p_rotor),
            abs(p_rotor - p_matrix),
            abs(p_closed - p_matrix),
        )
        done += 1
    return SuiteResult("rabi_triangle", worst <= RABI_TRIANGLE_TOL, worst, RABI_TRIANGLE_TOL, count)


def run_all(seed: int, count: int) -> list[SuiteResult]:
    """Run every suite with a deterministic stream derived from the seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return [
        suite_homomorphism(rng, count),
        suite_associativity(rng, count),
        suite_commutators(),
        suite_rabi_triangle(rng, count),
    ]


def eigensystem_residuals(h: Hamiltonian, es: EigenSystem) -> dict[str, float]:
    """How far an eigensystem of h is from exact: the eigen relation
    H psi = e psi in the algebra, and the eigenvalues and eigenvector
    overlaps against the matrix eigensolver."""
    h_mv = h.as_multivector()

    def relation_residual(psi: AlgebraicSpinor, e: float) -> float:
        diff = left_mul(h_mv, psi).mv.coeffs - e * psi.mv.coeffs
        return float(np.max(np.abs(diff)))

    values, vectors = matrixqm.eigen_hermitian(matrixqm.rep(h_mv))
    return {
        "residual_eigen_relation": max(
            relation_residual(es.psi_plus, es.e_plus),
            relation_residual(es.psi_minus, es.e_minus),
        ),
        "residual_oracle_eigenvalues": float(
            max(abs(es.e_plus - values[0]), abs(es.e_minus - values[1]))
        ),
        "residual_oracle_overlap": float(
            max(
                abs(1.0 - abs(np.vdot(vectors[0], matrixqm.spinor_rep(es.psi_plus)))),
                abs(1.0 - abs(np.vdot(vectors[1], matrixqm.spinor_rep(es.psi_minus)))),
            )
        ),
    }


def trajectory_deviations(
    cfg: FieldConfig, psi0: AlgebraicSpinor, table: dict[str, list[float]]
) -> dict[str, list[float]]:
    """Per-row deviations of a `twostate.trajectory` table of psi0 in cfg.

    dev_p and dev_s compare the probabilities and spin expectations with the
    matrix dynamics; dev_u compares the axis with its closed form (e3 in
    zero field).
    """
    h_mat = matrixqm.rep(hamiltonian_from_field(cfg).as_multivector())
    psi0_col = matrixqm.spinor_rep(psi0)
    s_mats = [0.5 * cfg.hbar * matrixqm.pauli(k) for k in (1, 2, 3)]
    devs: dict[str, list[float]] = {"dev_p": [], "dev_s": [], "dev_u": []}
    for i, t in enumerate(table["t"]):
        col_t = matrixqm.evolve_matrix(psi0_col, h_mat, t, cfg.hbar)
        refs = (
            ("dev_p", ("p_plus", "p_minus"), (abs(col_t[0]) ** 2, abs(col_t[1]) ** 2)),
            ("dev_s", ("s1", "s2", "s3"),
             [matrixqm.expectation_matrix(s, col_t) for s in s_mats]),
            ("dev_u", ("u1", "u2", "u3"),
             u_vector_closed_form(cfg, t) if cfg.b_norm > 0.0 else (0.0, 0.0, 1.0)),
        )
        for dev, columns, ref in refs:
            devs[dev].append(float(max(abs(table[c][i] - r) for c, r in zip(columns, ref))))
    return devs


def rabi_deviation(cfg: FieldConfig, table: dict[str, list[float]]) -> float:
    """Largest gap between the p_minus column of a trajectory out of
    eps_plus and the closed Rabi formula."""
    worst = 0.0
    for t, p_minus in zip(table["t"], table["p_minus"]):
        worst = max(worst, abs(p_minus - rabi_probability(cfg, t)))
    return worst
