"""Geometric algebra of 3D Euclidean space, signature (3,0).

Every element is a multivector with eight real coefficients over the fixed
blade basis

    [1, e1, e2, e3, e23, e31, e12, e123]

(note the canonical fifth blade is e31, not e13).  The geometric product of
two basis blades is always a third blade times +/-1, so full products are
driven by an 8x8x8 sign table built once from the generator relations
e_i^2 = +1 and e_i e_j = -e_j e_i; blade arithmetic therefore stays exact
in floating point.

The pseudoscalar e123 commutes with everything and squares to -1.
Multiplying by it (the Hodge dual) swaps vectors with bivectors and scalars
with pseudoscalars, which is what lets a scalar/pseudoscalar pair play the
role of a complex amplitude elsewhere in the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BLADE_NAMES",
    "Multivector",
    "Rotor",
    "ZERO",
    "ONE",
    "E1",
    "E2",
    "E3",
    "E23",
    "E31",
    "E12",
    "E123",
    "PSEUDOSCALAR",
    "gp",
    "grade",
    "reverse",
    "hodge_dual",
    "norm",
    "commutator",
    "wedge",
    "vector",
    "exp_bivector",
    "rotor_axis_angle",
    "sandwich",
]

BLADE_NAMES = ("1", "e1", "e2", "e3", "e23", "e31", "e12", "e123")

# Generator factors of each basis blade, written in canonical order.
_BLADE_FACTORS = ((), (1,), (2,), (3,), (2, 3), (3, 1), (1, 2), (1, 2, 3))

_GRADE_OF_INDEX = (0, 1, 1, 1, 2, 2, 2, 3)
_GRADE_INDICES = {0: (0,), 1: (1, 2, 3), 2: (4, 5, 6), 3: (7,)}

# Reversion negates grades 2 and 3.
_REVERSION_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])

UNIT_TOL = 1e-9
_EXP_SERIES_CUTOFF = 1e-8


def _reduce_word(factors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Sort a generator word to ascending order, tracking the sign picked up
    from anticommutation and cancelling squared generators."""
    seq = list(factors)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                changed = True
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


def _build_product_table() -> np.ndarray:
    # canonical[word] = (blade index, sign relating the ascending word to
    # that blade's canonical spelling), e.g. e1 e3 = -e31.
    canonical: dict[tuple[int, ...], tuple[int, int]] = {}
    for idx, factors in enumerate(_BLADE_FACTORS):
        s, word = _reduce_word(factors)
        canonical[word] = (idx, s)
    table = np.zeros((8, 8, 8))
    for l in range(8):
        for m in range(8):
            s, word = _reduce_word(_BLADE_FACTORS[l] + _BLADE_FACTORS[m])
            idx, cs = canonical[word]
            table[l, m, idx] = float(s * cs)
    table.setflags(write=False)
    return table


_PRODUCT_TABLE = _build_product_table()

# The 64 nonzero entries of the table as eight signed terms per output
# blade, term-major: entry 8 n + k is blade k's n-th term, a[i] b[j] with
# (i, j) in the order in which gp's einsum visits them.
_TERM_BLADE, _TERM_LEFT, _TERM_RIGHT = (
    idx.reshape(8, 8).T.ravel() for idx in np.nonzero(_PRODUCT_TABLE.transpose(2, 0, 1))
)
_TERM_SIGN = _PRODUCT_TABLE[_TERM_LEFT, _TERM_RIGHT, _TERM_BLADE]


# Error messages shared with the row kernels of twostate.trajectory.
_NOT_FINITE = "multivector coefficients must be finite"
_NOT_UNIT = "rotor must have unit norm, |R~R - 1| = {dev:.3e}"


class Multivector:
    """Immutable element of the eight-dimensional algebra."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[float] | np.ndarray):
        c = np.array(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 blade coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError(_NOT_FINITE)
        c.setflags(write=False)
        self._c = c

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls([float(value), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array in blade order."""
        return self._c

    def to_json(self) -> list[float]:
        return self._c.tolist()

    def __getitem__(self, idx: int) -> float:
        return float(self._c[idx])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def allclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self._c - other._c) <= tol))

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector(self._c + other._c)
        if isinstance(other, (int, float)):
            return Multivector(self._c + np.array([other, 0, 0, 0, 0, 0, 0, 0], dtype=float))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Multivector, int, float)):
            return self + (-other if isinstance(other, Multivector) else -float(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Multivector.scalar(other) - self
        return NotImplemented

    def __neg__(self) -> "Multivector":
        return Multivector(-self._c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self._c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self._c / float(other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Multivector({self._c.tolist()})"

    def __str__(self) -> str:
        parts: list[str] = []
        for c, name in zip(self._c, BLADE_NAMES):
            if c == 0.0:
                continue
            mag = f"{abs(c):.12g}"
            term = mag if name == "1" else f"{mag} {name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


ZERO = Multivector([0, 0, 0, 0, 0, 0, 0, 0])
ONE = Multivector([1, 0, 0, 0, 0, 0, 0, 0])
E1 = Multivector([0, 1, 0, 0, 0, 0, 0, 0])
E2 = Multivector([0, 0, 1, 0, 0, 0, 0, 0])
E3 = Multivector([0, 0, 0, 1, 0, 0, 0, 0])
E23 = Multivector([0, 0, 0, 0, 1, 0, 0, 0])
E31 = Multivector([0, 0, 0, 0, 0, 1, 0, 0])
E12 = Multivector([0, 0, 0, 0, 0, 0, 1, 0])
E123 = Multivector([0, 0, 0, 0, 0, 0, 0, 1])
PSEUDOSCALAR = E123


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product a b."""
    out = np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, _PRODUCT_TABLE)
    return Multivector(out)


def _gp_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product row by row of coefficient blocks of shape (N, 8);
    either may be a single row of shape (8,), used for every row.

    Each blade sums its eight signed terms in the (i, j) order in which
    gp's einsum visits them, starting from +0.0 as the einsum does, so
    every row equals gp of that row bit for bit, signed zeros included.
    NumPy does not specify einsum's summation order: the equality holds
    for the order of the numpy builds this was checked on (2.x), and
    tests/test_algebra.py::TestRowKernels fails on a build that sums in
    another.  Nothing is checked: rows may be inf or NaN.
    """
    terms = (a[..., _TERM_LEFT] * b[..., _TERM_RIGHT]) * _TERM_SIGN
    terms = terms.reshape(terms.shape[:-1] + (8, 8))
    out = 0.0 + terms[..., 0, :]
    for n in range(1, 8):
        out += terms[..., n, :]
    return out


def grade(a: Multivector, k: int) -> Multivector:
    """Projection onto the grade-k part (k in 0..3)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"grade must be 0, 1, 2 or 3, got {k!r}")
    out = np.zeros(8)
    idx = list(_GRADE_INDICES[k])
    out[idx] = a.coeffs[idx]
    return Multivector(out)


def reverse(a: Multivector) -> Multivector:
    """Reversion (order of vector factors flipped): negates grades 2 and 3."""
    return Multivector(a.coeffs * _REVERSION_SIGNS)


def hodge_dual(a: Multivector) -> Multivector:
    """Multiplication by the central pseudoscalar e123."""
    return gp(PSEUDOSCALAR, a)


def norm(a: Multivector) -> float:
    """Euclidean norm of the coefficient vector."""
    return math.sqrt(float(np.dot(a.coeffs, a.coeffs)))


def commutator(a: Multivector, b: Multivector) -> Multivector:
    """a b - b a."""
    return Multivector(gp(a, b).coeffs - gp(b, a).coeffs)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Antisymmetric part (a b - b a)/2; the exterior product for vectors."""
    return Multivector(0.5 * commutator(a, b).coeffs)


def vector(x: float, y: float, z: float) -> Multivector:
    """Grade-1 multivector with components (x, y, z)."""
    return Multivector([0.0, float(x), float(y), float(z), 0.0, 0.0, 0.0, 0.0])


class Rotor:
    """Even-graded multivector with unit norm; rotates via sandwich().

    Construction rejects anything with nonzero vector or pseudoscalar
    coefficients, or with |R reverse(R) - 1| beyond 1e-9.
    """

    __slots__ = ("_mv",)

    def __init__(self, mv: Multivector):
        c = mv.coeffs
        if c[1] != 0.0 or c[2] != 0.0 or c[3] != 0.0 or c[7] != 0.0:
            raise ValueError("rotor must be even-graded (scalar + bivector only)")
        dev = norm(gp(mv, reverse(mv)) - ONE)
        if dev > UNIT_TOL:
            raise ValueError(_NOT_UNIT.format(dev=dev))
        self._mv = mv

    @classmethod
    def identity(cls) -> "Rotor":
        return cls(ONE)

    @property
    def mv(self) -> Multivector:
        return self._mv

    def reverse(self) -> "Rotor":
        return Rotor(reverse(self._mv))

    def __mul__(self, other):
        if isinstance(other, Rotor):
            return Rotor(gp(self._mv, other._mv))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rotor):
            return NotImplemented
        return self._mv == other._mv

    def __repr__(self) -> str:
        return f"Rotor({self._mv.coeffs.tolist()})"


def _bivector_angle(b: Multivector) -> float:
    """|B| of the bivector part, as exp_bivector takes it; inf once the
    sum of squares overflows."""
    c4, c5, c6 = b.coeffs[4:7].tolist()
    return math.sqrt(c4 * c4 + c5 * c5 + c6 * c6)


def exp_bivector(b: Multivector) -> Rotor:
    """Exponential of a bivector: cos|B| + (B/|B|) sin|B|.

    Below |B| = 1e-8 the truncated series 1 + B + B^2/2 + B^3/6 is used to
    avoid the 0/0 in the normalized direction; B^2 = -|B|^2 keeps it cheap.
    Raises ValueError when |B|^2 overflows, from about |B| = 1.3e154.
    """
    c = b.coeffs
    if c[0] != 0.0 or c[1] != 0.0 or c[2] != 0.0 or c[3] != 0.0 or c[7] != 0.0:
        raise ValueError("exp_bivector requires a pure bivector argument")
    theta = _bivector_angle(b)
    if theta == math.inf:
        raise ValueError(
            "bivector magnitude |B| overflows: exp_bivector needs it below about 1.3e154"
        )
    out = np.zeros(8)
    if theta < _EXP_SERIES_CUTOFF:
        out[0] = 1.0 - theta * theta / 2.0
        out[4:7] = c[4:7] * (1.0 - theta * theta / 6.0)
    else:
        out[0] = math.cos(theta)
        out[4:7] = c[4:7] * (math.sin(theta) / theta)
    return Rotor(Multivector(out))


def _exp_bivector_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp_bivector row by row of a block of bivectors of shape (N, 8).

    Returns the rotor rows, their angles theta (_bivector_angle of each
    row, by the same float operations) and their deviations
    |R reverse(R) - 1|, each row equal to exp_bivector's bit for bit.
    Nothing raises: a row whose theta is inf comes back NaN, and the
    caller tests theta and the deviation.  Run under np.errstate.
    """
    b = c[:, 4:7]
    theta = np.sqrt(b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1] + b[:, 2] * b[:, 2])
    finite = theta < math.inf
    # the C library's cos and sin, as in exp_bivector: numpy's own may
    # differ from them in the last bit on some builds
    angles = np.where(finite, theta, 0.0).tolist()
    cos = np.array([math.cos(x) for x in angles])
    sin = np.array([math.sin(x) for x in angles])
    series = theta < _EXP_SERIES_CUTOFF
    theta2 = theta * theta
    out = np.zeros(c.shape)
    out[:, 0] = np.where(series, 1.0 - theta2 / 2.0, cos)
    out[:, 4:7] = b * np.where(series, 1.0 - theta2 / 6.0, sin / theta)[:, None]
    out[~finite] = np.nan
    off = _gp_rows(out, out * _REVERSION_SIGNS)
    off[:, 0] -= 1.0
    return out, theta, np.sqrt(np.sum(off * off, axis=1))


def rotor_axis_angle(n_hat: Multivector, alpha: float) -> Rotor:
    """Rotor exp(-e123 n_hat alpha/2) for a unit axis n_hat.

    Under sandwich() this rotates vectors counterclockwise by alpha in the
    plane dual to n_hat.  The axis is not silently renormalized; anything
    off unit length beyond 1e-9 is rejected.
    """
    c = n_hat.coeffs
    if any(c[i] != 0.0 for i in (0, 4, 5, 6, 7)):
        raise ValueError("axis must be a pure grade-1 multivector")
    if abs(norm(n_hat) - 1.0) > UNIT_TOL:
        raise ValueError(f"axis must be unit length, |n| = {norm(n_hat):.12g}")
    return exp_bivector(hodge_dual(n_hat) * (-0.5 * float(alpha)))


def sandwich(r: Rotor, a: Multivector) -> Multivector:
    """R a reverse(R).  Pass r.reverse() for the opposite orientation."""
    m = r.mv
    return gp(gp(m, a), reverse(m))
