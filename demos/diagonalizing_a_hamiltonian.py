"""Diagonalize a two-state Hamiltonian with a rotor.

Any Hermitian two-state observable is a grade-{0,1} multivector
H = h0 + h1 e1 + h2 e2 + h3 e3.  A rotor built from the polar angles of the
vector part turns it into h0 + |h| e3, so the eigenvalues can be read off
and the eigenstates are the rotor applied to the ideal basis.  The same
problem is solved independently with a 2x2 complex matrix as a check.

Run with no arguments for the worked example H = e1 + e3, or pass your own
coefficients.
"""

import argparse

import numpy as np

from gatss import (
    Hamiltonian,
    eigensystem,
    expectation,
    inner,
    left_mul,
    matrixqm,
    polar_angles,
    to_amplitudes,
)


def describe(h):
    es = eigensystem(h)
    theta, phi = polar_angles(h)
    print(f"H = {h.as_multivector()}")
    print(f"polar angles: theta = {theta:.12f}, phi = {phi:.12f}")
    print(f"eigenvalues: {es.e_plus:.12f} and {es.e_minus:.12f}")
    print(f"degenerate: {es.degenerate}")
    print(f"rotor: {es.rotor.mv}")
    for name, psi in (("psi_plus", es.psi_plus), ("psi_minus", es.psi_minus)):
        cp, cm = to_amplitudes(psi)
        print(f"{name}: amplitudes ({cp}, {cm})")
    print()
    return es


def check_eigen_relation(h, es):
    """H psi = E psi, computed entirely inside the algebra."""
    hm = h.as_multivector()
    for name, psi, e in (
        ("psi_plus", es.psi_plus, es.e_plus),
        ("psi_minus", es.psi_minus, es.e_minus),
    ):
        residual = np.max(np.abs(left_mul(hm, psi).mv.coeffs - e * psi.mv.coeffs))
        print(f"|H {name} - E {name}| = {residual:.3e}")
    ortho = abs(inner(es.psi_plus, es.psi_minus))
    print(f"|<psi_plus, psi_minus>| = {ortho:.3e}")
    print()


def check_against_matrix(h, es):
    """The conventional eigensolver must agree with the rotor route."""
    values, (v_plus, v_minus) = matrixqm.eigen_hermitian(
        matrixqm.rep(h.as_multivector())
    )
    print("matrix eigenvalues:", values)
    print(f"eigenvalue differences: {abs(es.e_plus - values[0]):.3e}, "
          f"{abs(es.e_minus - values[1]):.3e}")
    for name, psi, v in (("psi_plus", es.psi_plus, v_plus), ("psi_minus", es.psi_minus, v_minus)):
        overlap = abs(np.vdot(v, matrixqm.spinor_rep(psi)))
        print(f"|overlap| with matrix {name}: {overlap:.15f}")
    print()


def energy_expectation(h, es):
    for name, psi in (("psi_plus", es.psi_plus), ("psi_minus", es.psi_minus)):
        print(f"<H> in {name} = {expectation(h, psi):.12f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--h",
        nargs=4,
        type=float,
        default=[0.0, 1.0, 0.0, 1.0],
        metavar=("h0", "h1", "h2", "h3"),
        help="Hamiltonian coefficients (default: the worked example e1 + e3)",
    )
    args = parser.parse_args()

    ham = Hamiltonian(args.h[0], tuple(args.h[1:]))
    es = describe(ham)
    check_eigen_relation(ham, es)
    check_against_matrix(ham, es)
    energy_expectation(ham, es)
