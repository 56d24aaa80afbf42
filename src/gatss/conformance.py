"""Checks of the algebra against the matrix oracle and the closed forms.

This is the one module where the algebra meets `matrixqm`.  Four suites
back the command line `conformance` subcommand: the matrix representation
being multiplicative, associativity of the geometric product, exactness of
the spin commutators, and the three-way agreement of the transition
probability (closed form, rotor dynamics, matrix dynamics).  The residual
and deviation functions back the checks of `diag` and
`evolve --check/--check-rabi`.  Every verdict, the suites' and the
command line's alike, is `check` of its deviations: one reduction that
counts the cases, keeps a NaN as the worst value, and decides with
`SuiteResult.passed`, so a NaN deviation fails it.

The three randomized suites draw their values through one generator,
`_draws`, a block of rows at a time, the same stream of numbers that
drawing them one at a time gives, so memory stays flat at any count.  All
four suites run on blocks of coefficient rows (`algebra._gp_rows`,
`_exp_bivector_rows`; the commutator suite's block is its nine pairs)
and stacked matrices (the oracle's (N, 2, 2) forms); so does the oracle
side of `trajectory_deviations`.  A draw or row that the per-draw objects
accept has, bit for bit, the deviations they give.  One that they would
reject fails its check, while the other rows keep their values: a draw's
product gaps carry its non-finite values themselves (a product
coefficient that is not finite makes its row's gaps NaN or inf), the
oracle's checks (a Hermitian H, its state norm) give NaN, the rotor
route marks its rows with the three checks of `twostate._evolution_rows`
(a rotor off unit norm, an initial state or a state not normalized) and
reads them as NaN, and a closed-form angle that is not finite (from a
phase of about 9e307) is NaN.

The homomorphism suite doubles as a tamper check: flipping any one of the
64 term signs that `algebra._row_arrays` holds makes it fail, as
`test_homomorphism_sees_every_sign_flip` in tests/test_conformance.py pins;
the commutator suite fails where e1 e2 = e12 is flipped.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

from . import matrixqm
from .algebra import _gp_rows, _LazyNumpy
from .spinor import AlgebraicSpinor, basis_eps, left_mul, to_amplitudes
from .twostate import (
    EigenSystem,
    FieldConfig,
    Hamiltonian,
    _block_rows,
    _coupling_rows,
    _evolution_rows,
    _probability_rows,
    _rabi_rows,
    _Record,
    _row_blocks,
    hamiltonian_from_field,
    spin_vectors,
    u_vector_closed_form,
)

np = _LazyNumpy(globals())

__all__ = [
    "SuiteResult",
    "check",
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


class SuiteResult(_Record, namedtuple("SuiteResult", "name worst tol count")):
    """Outcome of one check: the worst deviation over the `count` cases
    that `check` read."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """The one pass rule: worst <= tol, which is false for NaN."""
        return self.worst <= self.tol


def _nan_max(values) -> float:
    """Largest entry of values, floored at 0.0: an array, reduced by its own
    max, or a list of numbers, reduced by Python's builtins, which loop in
    C, so that `diag`'s checks need no numpy.  Unlike the builtin max, a
    NaN anywhere makes the result NaN."""
    if hasattr(values, "max"):
        worst = float(values.max(initial=0.0))
    else:
        worst = math.nan if any(map(math.isnan, values)) else float(max(values, default=0.0))
    return worst if not worst <= 0.0 else 0.0  # NaN stays; -0.0 floors to 0.0


def check(name: str, blocks, tol: float) -> SuiteResult:
    """The verdict of a check on its deviations, read one block at a time:
    each block an array with the cases on its first axis, or a list of
    numbers, one case each.  The worst value is the largest deviation,
    0.0 when there are none, and NaN if any deviation is NaN; blocks may
    be a generator, so a suite holds one block at a time however many
    cases it checks."""
    worst, count = 0.0, 0
    for block in blocks:
        count += len(block)
        worst = _nan_max([worst, _nan_max(block)])
    return SuiteResult(name, worst, tol, count)


def _draws(rng: np.random.Generator, count: int, low, high, shape: tuple[int, ...]):
    """count draws of rng.uniform(low, high, shape), as blocks of rows of
    the row kernels' size (`twostate._row_blocks`): the same stream of
    numbers that drawing them one at a time gives."""
    for rows in _row_blocks(range(count)):
        yield rng.uniform(low, high, (len(rows), *shape))


def suite_homomorphism(rng: np.random.Generator, count: int) -> SuiteResult:
    """rep(a b) == rep(a) rep(b), entrywise, over random pairs."""
    pairs = _draws(rng, count, -_COEFF_SPAN, _COEFF_SPAN, (2, 8))
    return check("homomorphism", map(_homomorphism_devs, pairs), HOMOMORPHISM_TOL)


def _homomorphism_devs(pairs: np.ndarray) -> np.ndarray:
    """|rep(a b) - rep(a) rep(b)| for coefficient pairs (a, b) of shape
    (N, 2, 8), shape (N, 2, 2), as computed: a coefficient of a b that is
    not finite reaches at least two entries of rep(a b), so the row's
    gaps hold a NaN or an inf."""
    a, b = pairs[:, 0], pairs[:, 1]
    with np.errstate(all="ignore"):
        return np.abs(matrixqm.rep(_gp_rows(a, b)) - matrixqm.rep(a) @ matrixqm.rep(b))


def suite_associativity(rng: np.random.Generator, count: int) -> SuiteResult:
    """(a b) c == a (b c), scaled by the product of coefficient norms."""
    triples = _draws(rng, count, -_COEFF_SPAN, _COEFF_SPAN, (3, 8))
    return check("associativity", map(_associativity_devs, triples), ASSOCIATIVITY_TOL)


def _associativity_devs(triples: np.ndarray) -> np.ndarray:
    """|(a b) c - a (b c)| / max(1, |a| |b| |c|) for coefficient triples
    (a, b, c) of shape (N, 3, 8), shape (N, 8), as computed: a coefficient
    of a b or b c that is not finite reaches every blade of its side's
    triple product, so the row's gaps hold a NaN or an inf."""
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    with np.errstate(all="ignore"):
        lhs, rhs = _gp_rows(_gp_rows(a, b), c), _gp_rows(a, _gp_rows(b, c))
        # algebra.norm of each row, summed as np.dot sums it
        product = np.sqrt(np.vecdot(a, a)) * np.sqrt(np.vecdot(b, b)) * np.sqrt(np.vecdot(c, c))
        return np.abs(lhs - rhs) / np.where(product > 1.0, product, 1.0)[:, None]


def suite_commutators() -> SuiteResult:
    """[S_i, S_j] = hbar e123 eps_ijk S_k, exact (tolerance zero), for the
    nine pairs (i, j) as one block of rows: each gap row equals
    |commutator(S_i, S_j) - hodge_dual(S_k) eps_ijk| bit for bit."""
    a, b, c, eps = _commutator_rows()
    gap = _gp_rows(a, b) - _gp_rows(b, a) - _gp_rows(_block_rows()[3], c) * eps
    return check("commutators", [np.abs(gap)], 0.0)


@functools.cache
def _commutator_rows():
    """The commutator suite's rows, made on first use: S_i, S_j and S_k at
    hbar = 1 for the nine pairs (i, j) in row-major order, and eps_ijk as a
    column."""
    i, j = np.divmod(np.arange(9), 3)
    k, eps = (3 - i - j) % 3, (j - i + 1) % 3 - 1.0  # eps_ijk; 0 where i = j
    s = np.array([op._c for op in spin_vectors(1.0)])
    return s[i], s[j], s[k], eps[:, None]


def suite_rabi_triangle(rng: np.random.Generator, count: int) -> SuiteResult:
    """Transition probability out of eps_plus agrees pairwise between the
    closed form, the rotor dynamics and the matrix dynamics, over fields
    from uniform(-5, 5) and times from uniform(0, 10)."""
    draws = _draws(rng, count, [-5.0, -5.0, -5.0, 0.0], [5.0, 5.0, 5.0, 10.0], (4,))
    return check("rabi_triangle", map(_rabi_devs, draws), RABI_TRIANGLE_TOL)


def _rabi_devs(draws: np.ndarray) -> np.ndarray:
    """The pairwise gaps |closed - rotor|, |rotor - matrix| and
    |closed - matrix| of the transition probability at each row
    (b1, b2, b3, t) with q = m = hbar = 1, shape (N, 3).  A row that the
    rotor route's object API rejects (the mask of `_evolution_rows`), that
    fails a check of the oracle, or whose closed-form angle |B| t is not
    finite has NaN in its gaps (the suite's draws reach none of them)."""
    eps_plus, eps_minus = basis_eps()
    eps, eps_rev, _, _ = _block_rows()
    t = draws[:, 3]
    p_closed = _rabi_rows(draws[:, :3], 1.0, 1.0, t)
    with np.errstate(all="ignore"):
        # hamiltonian_from_field, evolution_rotor, evolve, then probability
        h, bivector = _coupling_rows(draws[:, :3], 1.0, 1.0, 1.0)
        _, psi, failed, psi_rev = _evolution_rows(eps_plus, bivector, t, 1.0)
        product = _probability_rows(eps[1], eps_rev[1], psi, psi_rev)
        p_rotor = np.where(failed, np.nan, 2.0 * product)
        col_t = matrixqm.evolve_matrix(matrixqm.spinor_rep(eps_plus), matrixqm.rep(h), t, 1.0)
        p_matrix = matrixqm.probability_matrix(matrixqm.spinor_rep(eps_minus), col_t)
    return np.abs(np.transpose([p_closed - p_rotor, p_rotor - p_matrix, p_closed - p_matrix]))


def run_all(seed: int, count: int) -> list[SuiteResult]:
    """Run every suite with a deterministic stream derived from the seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > sys.maxsize:  # numpy's sizes are C ssize_t
        raise ValueError(f"count must be at most {sys.maxsize}")
    if seed < 0:
        raise ValueError("seed must be at least 0")
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

    def relation_residual(psi: AlgebraicSpinor, e: float) -> list[float]:
        return [abs(x - e * y) for x, y in zip(left_mul(h_mv, psi).mv._c, psi.mv._c)]

    def overlap_residual(v: tuple[complex, complex], psi: AlgebraicSpinor) -> float:
        # 1 - |<v, psi>|, the oracle's vector against the state's amplitudes
        p_plus, p_minus = to_amplitudes(psi)
        return abs(1.0 - abs(v[0].conjugate() * p_plus + v[1].conjugate() * p_minus))

    # the oracle on one matrix: matrixqm's Python-complex core, no numpy
    values, vectors = matrixqm._eigen_entries(*matrixqm._rep_entries(h_mv._c))
    return {
        "residual_eigen_relation": _nan_max(
            relation_residual(es.psi_plus, es.e_plus) + relation_residual(es.psi_minus, es.e_minus)
        ),
        "residual_oracle_eigenvalues": _nan_max([
            abs(es.e_plus - values[0]), abs(es.e_minus - values[1])
        ]),
        "residual_oracle_overlap": _nan_max([
            overlap_residual(vectors[0], es.psi_plus), overlap_residual(vectors[1], es.psi_minus),
        ]),
    }


def trajectory_deviations(
    cfg: FieldConfig, psi0: AlgebraicSpinor, table: dict[str, list[float]]
) -> dict[str, list[float]]:
    """Per-row deviations of a `twostate.trajectory` table of psi0 in cfg.

    dev_p and dev_s compare the probabilities and spin expectations with the
    matrix dynamics, run on blocks of rows; dev_u compares the axis with its
    closed form (e3 in zero field).  Where the oracle breaks down (its state
    is non-finite or off unit norm, or an expectation keeps an imaginary
    residue), dev_p and dev_s are NaN, and dev_u where the closed form's
    angle is not finite; NaN fails every check.
    """
    h_mat = matrixqm.rep(hamiltonian_from_field(cfg).as_multivector())
    psi0_col = matrixqm.spinor_rep(psi0)
    basis_cols = [matrixqm.spinor_rep(eps) for eps in basis_eps()]
    s_mats = [0.5 * cfg.hbar * matrixqm.pauli(k) for k in (1, 2, 3)]
    t = np.array(table["t"], dtype=float)
    # rows p_plus, p_minus, s1, s2, s3 of the oracle, one column per time
    blocks = [np.empty((5, 0))]
    for block in _row_blocks(t):
        col_t = matrixqm.evolve_matrix(psi0_col, h_mat, block, cfg.hbar)
        blocks.append([matrixqm.probability_matrix(e, col_t) for e in basis_cols]
                      + [matrixqm.expectation_matrix(s, col_t) for s in s_mats])
    oracle = np.hstack(blocks)
    refs = (
        ("dev_p", ("p_plus", "p_minus"), oracle[:2]),
        ("dev_s", ("s1", "s2", "s3"), oracle[2:]),
        ("dev_u", ("u1", "u2", "u3"), u_vector_closed_form(cfg, t)),
    )
    return {
        dev: np.max(np.abs(np.array([table[c] for c in columns]) - ref), axis=0,
                    initial=0.0).tolist()
        for dev, columns, ref in refs
    }


def rabi_deviation(cfg: FieldConfig, table: dict[str, list[float]]) -> list[float]:
    """Per-row gaps between the p_minus column of a trajectory and the
    closed Rabi formula; NaN where the closed form's angle is not finite.

    The formula holds for an initial state whose eps_minus amplitude is 0,
    eps_plus times any unit phase, which p_minus does not see, and in any
    field, the zero field included, where it is 0."""
    p_closed = _rabi_rows(cfg.B, cfg.q, cfg.m, table["t"])
    return np.abs(np.array(table["p_minus"]) - p_closed).tolist()
