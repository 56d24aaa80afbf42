"""Checks of the algebra against the matrix oracle and the closed forms.

This is the one module where the algebra meets `matrixqm`.  Four randomized
suites back the command line `conformance` subcommand: the matrix
representation being multiplicative, associativity of the geometric
product, exactness of the spin commutators, and the three-way agreement of
the transition probability (closed form, rotor dynamics, matrix dynamics).
The residual and deviation functions back the checks of `diag` and
`evolve --check/--check-rabi`.  Every check reduces its deviations with
`worst_deviation` and decides with `SuiteResult.passed`, so a NaN
deviation fails it.

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
    "worst_deviation",
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
    """Outcome of one check: the worst deviation over `count` cases."""

    name: str
    worst: float
    tol: float
    count: int

    @property
    def passed(self) -> bool:
        """The one pass rule: worst <= tol, which is false for NaN."""
        return self.worst <= self.tol


def worst_deviation(deviations) -> float:
    """Largest entry of an array-like of deviations, 0.0 when it is empty.

    Unlike the builtin max, a NaN anywhere makes the result NaN.
    """
    return float(np.max(np.asarray(deviations, dtype=float), initial=0.0))


def _random_mv(rng: np.random.Generator) -> Multivector:
    return Multivector(rng.uniform(-_COEFF_SPAN, _COEFF_SPAN, 8))


def suite_homomorphism(rng: np.random.Generator, count: int) -> SuiteResult:
    """rep(a b) == rep(a) rep(b), entrywise, over random pairs."""
    devs = []
    for _ in range(count):
        a, b = _random_mv(rng), _random_mv(rng)
        devs.append(np.abs(matrixqm.rep(gp(a, b)) - matrixqm.rep(a) @ matrixqm.rep(b)))
    return SuiteResult("homomorphism", worst_deviation(devs), HOMOMORPHISM_TOL, count)


def suite_associativity(rng: np.random.Generator, count: int) -> SuiteResult:
    """(a b) c == a (b c), scaled by the product of coefficient norms."""
    devs = []
    for _ in range(count):
        a, b, c = _random_mv(rng), _random_mv(rng), _random_mv(rng)
        lhs = gp(gp(a, b), c)
        rhs = gp(a, gp(b, c))
        scale_factor = max(1.0, norm(a) * norm(b) * norm(c))
        devs.append(np.abs(lhs.coeffs - rhs.coeffs) / scale_factor)
    return SuiteResult("associativity", worst_deviation(devs), ASSOCIATIVITY_TOL, count)


def suite_commutators() -> SuiteResult:
    """[S_i, S_j] = hbar e123 eps_ijk S_k, exact (tolerance zero)."""
    s_ops = spin_vectors(1.0)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    devs = []
    for i in range(3):
        for j in range(3):
            lhs = commutator(s_ops[i], s_ops[j])
            rhs = Multivector(
                sum(eps[i, j, k] * hodge_dual(s_ops[k]).coeffs for k in range(3))
            )
            devs.append(np.abs(lhs.coeffs - rhs.coeffs))
    return SuiteResult("commutators", worst_deviation(devs), 0.0, 9)


def suite_rabi_triangle(rng: np.random.Generator, count: int) -> SuiteResult:
    """Transition probability out of eps_plus agrees pairwise between the
    closed form, the rotor dynamics and the matrix dynamics."""
    eps_plus, eps_minus = basis_eps()
    psi0_col = matrixqm.spinor_rep(eps_plus)
    minus_col = matrixqm.spinor_rep(eps_minus)
    devs = []
    while len(devs) < count:
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
        devs.append(
            (abs(p_closed - p_rotor), abs(p_rotor - p_matrix), abs(p_closed - p_matrix))
        )
    return SuiteResult("rabi_triangle", worst_deviation(devs), RABI_TRIANGLE_TOL, count)


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

    def relation_residual(psi: AlgebraicSpinor, e: float) -> np.ndarray:
        return np.abs(left_mul(h_mv, psi).mv.coeffs - e * psi.mv.coeffs)

    values, vectors = matrixqm.eigen_hermitian(matrixqm.rep(h_mv))
    return {
        "residual_eigen_relation": worst_deviation([
            relation_residual(es.psi_plus, es.e_plus),
            relation_residual(es.psi_minus, es.e_minus),
        ]),
        "residual_oracle_eigenvalues": worst_deviation([
            abs(es.e_plus - values[0]), abs(es.e_minus - values[1])
        ]),
        "residual_oracle_overlap": worst_deviation([
            abs(1.0 - abs(np.vdot(vectors[0], matrixqm.spinor_rep(es.psi_plus)))),
            abs(1.0 - abs(np.vdot(vectors[1], matrixqm.spinor_rep(es.psi_minus)))),
        ]),
    }


def trajectory_deviations(
    cfg: FieldConfig, psi0: AlgebraicSpinor, table: dict[str, list[float]]
) -> dict[str, list[float]]:
    """Per-row deviations of a `twostate.trajectory` table of psi0 in cfg.

    dev_p and dev_s compare the probabilities and spin expectations with the
    matrix dynamics; dev_u compares the axis with its closed form (e3 in
    zero field).  Where the oracle breaks down (its state is non-finite or
    off unit norm), dev_p and dev_s are NaN, which fails every check.
    """
    h_mat = matrixqm.rep(hamiltonian_from_field(cfg).as_multivector())
    psi0_col = matrixqm.spinor_rep(psi0)
    s_mats = [0.5 * cfg.hbar * matrixqm.pauli(k) for k in (1, 2, 3)]
    devs: dict[str, list[float]] = {"dev_p": [], "dev_s": [], "dev_u": []}
    for i, t in enumerate(table["t"]):
        col_t = matrixqm.evolve_matrix(psi0_col, h_mat, t, cfg.hbar)
        if abs(np.linalg.norm(col_t) - 1.0) <= matrixqm.STATE_NORM_TOL:
            p_ref = (abs(col_t[0]) ** 2, abs(col_t[1]) ** 2)
            s_ref = [matrixqm.expectation_matrix(s, col_t) for s in s_mats]
        else:
            p_ref, s_ref = (np.nan,) * 2, (np.nan,) * 3
        refs = (
            ("dev_p", ("p_plus", "p_minus"), p_ref),
            ("dev_s", ("s1", "s2", "s3"), s_ref),
            ("dev_u", ("u1", "u2", "u3"),
             u_vector_closed_form(cfg, t) if cfg.b_norm > 0.0 else (0.0, 0.0, 1.0)),
        )
        for dev, columns, ref in refs:
            devs[dev].append(worst_deviation([abs(table[c][i] - r) for c, r in zip(columns, ref)]))
    return devs


def rabi_deviation(cfg: FieldConfig, table: dict[str, list[float]]) -> float:
    """Largest gap between the p_minus column of a trajectory out of
    eps_plus and the closed Rabi formula."""
    return worst_deviation([
        abs(p_minus - rabi_probability(cfg, t))
        for t, p_minus in zip(table["t"], table["p_minus"])
    ])
