"""The geometric product as it ran before it was built from the term list:
numpy's einsum over the 8x8x8 blade product table; and the row product as
it ran before it was one reduction per blade: an eight-step add loop.

`gatss.algebra.gp` and `_gp_rows` must equal the einsum bit for bit on
every row whose product is finite, and `_gp_rows` must equal the loop bit
for bit on every row; the tests compare them.  The table is read off the
matrix oracle, so it shares nothing with the algebra's term list.
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


# The term list read off TABLE, term-major: entry 8 i + k is blade k's one
# term whose left factor is blade i.
_LEFT = np.repeat(np.arange(8), 8)
_RIGHT = np.array([np.flatnonzero(TABLE[i, :, k])[0] for i in range(8) for k in range(8)])
_SIGN = TABLE[_LEFT, _RIGHT, np.tile(np.arange(8), 8)]


def reference_gp_rows(a, b):
    """The row product of coefficient blocks (..., 8), either of them
    possibly one row (8,), as an eight-step loop: every blade starts from
    +0.0 and adds its signed terms one at a time in term-major order.
    Unchecked; run under np.errstate."""
    terms = (a[..., _LEFT] * b[..., _RIGHT]) * _SIGN
    terms = terms.reshape(terms.shape[:-1] + (8, 8))
    out = 0.0 + terms[..., 0, :]
    for n in range(1, 8):
        out += terms[..., n, :]
    return out
