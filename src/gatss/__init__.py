"""Two-state quantum systems in the geometric algebra of 3D space.

The `algebra` module carries the eight-blade multivector arithmetic of
Cl(3,0) (rotors, duality); `spinor` puts quantum states inside
the minimal left ideal of the idempotent (1 + e3)/2; `twostate` does
rotor-based diagonalization and exact field dynamics of Hermitian two-state
Hamiltonians; `matrixqm` is an independent conventional 2x2 complex-matrix
formulation used to cross-check everything; `conformance` bundles the
randomized agreement suites; `cli` exposes diag/evolve/conformance commands.
"""

from .algebra import *
from .spinor import *
from .twostate import *

__version__ = "0.1.0"
