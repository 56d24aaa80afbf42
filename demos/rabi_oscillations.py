"""Spin flip probability in a tilted static field.

Starting from the e3-aligned basis state, a static field tilted away from
the axis drives oscillations between the two basis states.  Three
independent computations of the flip probability are tabulated side by
side: the closed form (1/2) sin^2(theta) (1 - cos(omega t)), rotor
dynamics inside the algebra, and conventional matrix dynamics.
"""

import argparse
import math

import numpy as np

from gatss import (
    FieldConfig,
    basis_eps,
    evolution_rotor,
    evolve,
    hamiltonian_from_field,
    matrixqm,
    probability,
    rabi_probability,
)


def run(field, t_end, steps):
    cfg = FieldConfig(B=tuple(field))
    h = hamiltonian_from_field(cfg)
    eps_plus, eps_minus = basis_eps()
    h_mat = matrixqm.rep(h.as_multivector())
    psi0_col = matrixqm.spinor_rep(eps_plus)
    minus_col = matrixqm.spinor_rep(eps_minus)

    # sin(theta) = 0 in a zero field, where the closed form is 0
    sin_theta = math.hypot(cfg.B[0], cfg.B[1]) / (cfg.b_norm or 1.0)
    print(f"B = {field}, omega = {cfg.omega:.6f}, peak flip = {sin_theta ** 2:.6f}")
    print()
    print(f"{'t':>8} {'closed':>12} {'rotor':>12} {'matrix':>12}")

    worst = 0.0
    for t in np.linspace(0.0, t_end, steps):
        p_closed = rabi_probability(cfg, t)
        psi_t = evolve(eps_plus, evolution_rotor(h, t, cfg.hbar))
        p_rotor = probability(eps_minus, psi_t)
        col_t = matrixqm.evolve_matrix(psi0_col, h_mat, t, cfg.hbar)
        p_matrix = matrixqm.probability_matrix(minus_col, col_t)
        worst = max(
            worst,
            abs(p_closed - p_rotor),
            abs(p_rotor - p_matrix),
            abs(p_closed - p_matrix),
        )
        print(f"{t:8.3f} {p_closed:12.8f} {p_rotor:12.8f} {p_matrix:12.8f}")

    print()
    print(f"largest pairwise disagreement: {worst:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--B",
        nargs=3,
        type=float,
        default=[1.0, 0.0, 1.0],
        metavar=("b1", "b2", "b3"),
        help="static field components (default: tilted 45 degrees)",
    )
    parser.add_argument("--t-end", type=float, default=2.0 * math.pi / math.sqrt(2.0))
    parser.add_argument("--steps", type=int, default=17)
    args = parser.parse_args()
    run(args.B, args.t_end, args.steps)
