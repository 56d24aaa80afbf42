"""Two-state quantum systems in the geometric algebra of 3D space.

The `algebra` module carries the eight-blade multivector arithmetic of
Cl(3,0) (rotors, duality); `spinor` puts quantum states inside
the minimal left ideal of the idempotent (1 + e3)/2; `twostate` does
rotor-based diagonalization and exact field dynamics of Hermitian two-state
Hamiltonians; `matrixqm` is an independent conventional 2x2 complex-matrix
formulation used to cross-check everything; `conformance` bundles the
randomized agreement suites; `cli` exposes diag/evolve/conformance commands.
"""

from .algebra import (
    BLADE_NAMES,
    E1,
    E2,
    E3,
    E12,
    E23,
    E31,
    E123,
    ONE,
    ZERO,
    Multivector,
    Rotor,
    commutator,
    exp_bivector,
    gp,
    grade,
    hodge_dual,
    norm,
    reverse,
    rotor_axis_angle,
    sandwich,
    vector,
    wedge,
)
from .spinor import (
    AlgebraicSpinor,
    basis_eps,
    from_amplitudes,
    idempotent_f,
    inner,
    left_mul,
    to_amplitudes,
)
from .twostate import (
    EigenSystem,
    FieldConfig,
    Hamiltonian,
    eigensystem,
    evolution_rotor,
    evolve,
    expectation,
    hamiltonian_from_field,
    polar_angles,
    polar_state,
    probability,
    rabi_probability,
    spin_vectors,
    time_grid,
    trajectory,
    u_vector_closed_form,
)

__version__ = "0.1.0"
