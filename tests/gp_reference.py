"""The geometric product as it ran before it was built from the term list:
numpy's einsum over the 8x8x8 blade product table.

`gatss.algebra.gp` and `_gp_rows` must equal it bit for bit on every row
whose product is finite; the tests compare the three.  The table is read
off the matrix oracle, so it shares nothing with the algebra's term list.
"""

import numpy as np

from gatss import matrixqm


def _blade(i):
    c = np.zeros(8)
    c[i] = 1.0
    return c


# TABLE[i, j, k]: the coefficient of blade k in blade i times blade j, each
# -1.0, +0.0 or +1.0 (adding +0.0 clears any -0.0 the trace projection gives)
TABLE = 0.0 + np.array([
    [matrixqm.unrep(matrixqm.rep(_blade(i)) @ matrixqm.rep(_blade(j))).coeffs for j in range(8)]
    for i in range(8)
])


def reference_gp(a, b):
    """gp of two coefficient rows of shape (8,), unchecked; run under
    np.errstate where a product may overflow."""
    return np.einsum("i,j,ijk->k", a, b, TABLE)
