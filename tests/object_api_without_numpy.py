"""The object API on Python floats, without numpy: the paths that build and
act on spinors, each of which must leave numpy unloaded.

Run from the repository root as

    PYTHONPATH=src python -X dev -W error tests/object_api_without_numpy.py

on an interpreter without numpy, or with `sys.modules["numpy"] = None`,
under which any import of numpy raises.  It prints the values and exits
0, or exits non-zero if numpy was imported.
"""

import sys
from gatss.algebra import E3, sandwich
from gatss.spinor import from_amplitudes
from gatss.twostate import (Hamiltonian, eigensystem, evolution_rotor, evolve,
                            expectation, polar_state, probability)
h = Hamiltonian(0.0, (0.3, -0.4, 1.2))
es = eigensystem(h)
u = evolution_rotor(h, 0.7)
psi = evolve(from_amplitudes(0.6, 0.8j), u)
values = (es.e_plus, probability(es.psi_plus, psi), expectation(h, psi),
          probability(polar_state(0.4, -1.1), psi), *sandwich(u, E3).to_json())
print(*values)
if sys.modules.get("numpy") is not None:
    sys.exit("numpy was imported")
