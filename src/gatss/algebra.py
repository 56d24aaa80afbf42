"""Geometric algebra of 3D Euclidean space, signature (3,0).

Every element is a multivector with eight real coefficients over the fixed
blade basis

    [1, e1, e2, e3, e23, e31, e12, e123]

(note the canonical fifth blade is e31, not e13).  The geometric product of
two basis blades is always a third blade times +/-1, so a full product is
64 signed terms, listed once from blade bitmasks (Dorst, Fontijne & Mann,
2007): the product's blade is the XOR of the two generator masks, and its
sign counts the swaps e_i e_j = -e_j e_i that sort the generators; blade
arithmetic therefore stays exact in floating point.  Both products read
that one list: `gp` on the eight Python floats a Multivector holds, and
`_gp_rows` on blocks of coefficient rows, summing the terms in the same
order, so the two agree bit for bit.  The row kernels run on numpy, which
is imported on their first use (`_LazyNumpy`), not with the module.

The pseudoscalar e123 commutes with everything and squares to -1.
Multiplying by it (the Hodge dual) swaps vectors with bivectors and scalars
with pseudoscalars, which is what lets a scalar/pseudoscalar pair play the
role of a complex amplitude elsewhere in the package.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence

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

# Generator bitmask of each blade (e1 = 1, e2 = 2, e3 = 4), and the sign of
# its canonical spelling against ascending generators: e31 = -e1 e3.
_BLADE_BITS = (0, 1, 2, 4, 6, 5, 3, 7)
_SPELLING = (1, 1, 1, 1, 1, -1, 1, 1)

_GRADE_INDICES = {0: (0,), 1: (1, 2, 3), 2: (4, 5, 6), 3: (7,)}

UNIT_TOL = 1e-9
_EXP_SERIES_CUTOFF = 1e-8


class _LazyNumpy:
    """Stands for numpy as a module's global `np` until its first attribute
    access, which imports numpy and binds it in its place.  So numpy loads
    only on the first use of a row kernel or of the stacked oracle: the
    object path and `gatss diag` never load it."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())


def _product_terms() -> tuple[list[int], list[int], list[float]]:
    """The 64 signed terms of the geometric product, term-major: entry
    8 i + k is blade k's term sign * a[i] b[j], the one whose left factor is
    blade i.  Returns the lists of i, j and sign."""
    right = [0] * 64
    sign = [0.0] * 64
    for i, a in enumerate(_BLADE_BITS):
        for j, b in enumerate(_BLADE_BITS):
            # squared generators cancel; each generator of b moves left past
            # every higher one of a, anticommuting once per swap
            k = _BLADE_BITS.index(a ^ b)
            swaps = sum(bin(a >> n & b).count("1") for n in (1, 2))
            right[8 * i + k] = j
            sign[8 * i + k] = float((-1) ** swaps * _SPELLING[i] * _SPELLING[j] * _SPELLING[k])
    return [i for i in range(8) for _ in range(8)], right, sign


_TERMS = _product_terms()


@functools.cache
def _row_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of the row kernels, made on their first call so that
    importing the algebra loads no numpy: the term list's i, j and sign,
    and reversion's signs, which negate grades 2 and 3."""
    left, right, sign = map(np.array, _TERMS)
    return left, right, sign, np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


def _float_product():
    """The product of two tuples of eight floats, compiled once from the
    term list: blade k is 0.0 + t_0 + t_1 + ... + t_7 over its terms in
    term-major order, added left to right as `_gp_rows` adds them (a term
    of sign -1 is subtracted, which rounds as adding its negation)."""
    left, right, sign = _TERMS
    blades = []
    for k in range(8):
        expr = "0.0"
        for e in range(k, 64, 8):
            op = "+" if sign[e] > 0.0 else "-"
            expr += f" {op} a{left[e]} * b{right[e]}"
        blades.append(expr)
    a = ", ".join(f"a{i}" for i in range(8))
    b = ", ".join(f"b{i}" for i in range(8))
    source = f"def product(a, b):\n    {a} = a\n    {b} = b\n    return ({', '.join(blades)})\n"
    namespace: dict = {}
    exec(source, namespace)
    return namespace["product"]


_product = _float_product()


# Error messages of Multivector and Rotor.
_NOT_FINITE = "multivector coefficients must be finite"
_NOT_UNIT = "rotor must have unit norm, |R~R - 1| = {dev:.3e}"


def _finite(c: tuple[float, ...]) -> tuple[float, ...]:
    """c once every coefficient is finite: Multivector's check."""
    if not all(map(math.isfinite, c)):
        raise ValueError(_NOT_FINITE)
    return c


def _real(x, name: str) -> float:
    """float(x), which also takes numeric text, and +-inf for an integer
    past the double range, which float refuses; ValueError for a bool or
    a numpy bool, which float would take as 0 or 1.  The one number cast
    of the package's inputs."""
    numpy = sys.modules.get("numpy")  # no numpy bool exists before numpy loads
    if isinstance(x, bool) or numpy is not None and isinstance(x, numpy.bool_):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # copysign would convert x, and overflow, again
        return math.inf if x > 0 else -math.inf


class Multivector:
    """Immutable element of the eight-dimensional algebra, held as a tuple
    of eight Python floats in blade order."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[float] | np.ndarray):
        # every result of the algebra is a tuple of eight floats; anything
        # else is read by numpy (imported here on first use), which also
        # gives the shape error
        if type(coeffs) is tuple and len(coeffs) == 8 and set(map(type, coeffs)) == {float}:
            c = coeffs
        else:
            arr = np.array(coeffs, dtype=float)
            if arr.shape != (8,):
                raise ValueError(f"expected 8 blade coefficients, got shape {arr.shape}")
            c = tuple(arr.tolist())
        self._c = _finite(c)

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls((float(value), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only float64 coefficient array in blade order, built on each
        access (the first imports numpy)."""
        c = np.array(self._c)
        c.setflags(write=False)
        return c

    def to_json(self) -> list[float]:
        return list(self._c)

    def __getitem__(self, idx: int) -> float:
        return self._c[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._c == other._c

    def allclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return all(abs(x - y) <= tol for x, y in zip(self._c, other._c))

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector(tuple(map(float.__add__, self._c, other._c)))
        if isinstance(other, (int, float)):
            return self + Multivector.scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        # x - y rounds as x + (-y), signed zeros included
        if isinstance(other, Multivector):
            return Multivector(tuple(map(float.__sub__, self._c, other._c)))
        if isinstance(other, (int, float)):
            return self + -float(other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Multivector.scalar(other) - self
        return NotImplemented

    def __neg__(self) -> "Multivector":
        return Multivector(tuple(map(float.__neg__, self._c)))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        if isinstance(other, (int, float)):
            return Multivector(tuple(map(float(other).__mul__, self._c)))
        return NotImplemented

    # reached only when the left operand is not a Multivector: a scalar
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            d = float(other)
            if d == 0.0:
                # x / 0.0 is inf or NaN in every blade
                raise ValueError(_NOT_FINITE)
            return Multivector(tuple(map(d.__rtruediv__, self._c)))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Multivector({list(self._c)})"

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


ZERO = Multivector((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
ONE = Multivector((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
E1 = Multivector((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
E2 = Multivector((0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
E3 = Multivector((0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
E23 = Multivector((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
E31 = Multivector((0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
E12 = Multivector((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
E123 = Multivector((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product a b."""
    return Multivector(_product(a._c, b._c))


_ALL_BLADES = tuple(range(8))


@functools.cache
def _selected_terms(blades: tuple[int, ...]) -> np.ndarray:
    """Where the terms of K blades sit in the term list, term-major:
    entry n K + m is the term of blade blades[m] whose left factor is
    blade n."""
    return np.array([8 * n + k for n in range(8) for k in blades])


def _gp_rows(a: np.ndarray, b: np.ndarray, blades: tuple[int, ...] = _ALL_BLADES) -> np.ndarray:
    """Geometric product row by row of coefficient blocks of shape (N, 8);
    either may be a single row of shape (8,), used for every row, or a
    stack (..., N, 8).  Returns the given blades of each product, shape
    (..., K) for K blades; by default all eight.

    The order contract: each blade is one reduction of its eight terms
    a[i] b[j] in term-major order, starting from +0.0, as gp sums them; a
    term's sign may sit on either factor, since a sign flip is exact.  So
    every row equals gp of that row bit for bit, signed zeros included,
    and a selection equals `_gp_rows(a, b)[..., blades]` bit for bit.
    Every product gathers its 8 K terms into (..., 8, K) and reduces the
    term axis, of stride K: the full product all 64, a selection only
    its own.  numpy adds a reduction along a contiguous axis pairwise,
    which rounds otherwise, so a lone blade is gathered twice (K = 2) and
    its first column returned.  Nothing is checked: rows may be inf or NaN.
    """
    i, j, sign, _ = _row_arrays()
    if blades != _ALL_BLADES:
        e = _selected_terms(blades * 2 if len(blades) == 1 else blades)
        i, j, sign = i[e], j[e], sign[e]
    # each factor gathered once, into a fresh array the products
    # overwrite; the signs go on the smaller one
    left, right = a[..., i], b[..., j]
    small, terms = (left, right) if left.size <= right.size else (right, left)
    small *= sign
    if terms.shape[-small.ndim:] == small.shape:
        terms *= small
    else:
        terms = terms * small
    terms = terms.reshape(terms.shape[:-1] + (8, len(sign) // 8))
    return np.add.reduce(terms, axis=-2, initial=0.0)[..., :len(blades)]


def _reverse_rows(c: np.ndarray) -> np.ndarray:
    """reverse of each coefficient row of a block of shape (N, 8), or of
    one row of shape (8,)."""
    return c * _row_arrays()[3]


def _map(f, *arrays) -> np.ndarray:
    """f of Python floats (the C library's math.cos, not numpy's, which may
    differ in the last bit on some builds) over arrays of one shape."""
    values = map(f, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def grade(a: Multivector, k: int) -> Multivector:
    """Projection onto the grade-k part (k in 0..3)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"grade must be 0, 1, 2 or 3, got {k!r}")
    idx = _GRADE_INDICES[k]
    return Multivector(tuple(x if i in idx else 0.0 for i, x in enumerate(a._c)))


def reverse(a: Multivector) -> Multivector:
    """Reversion (order of vector factors flipped): negates grades 2 and 3."""
    c0, c1, c2, c3, c4, c5, c6, c7 = a._c
    return Multivector((c0, c1, c2, c3, -c4, -c5, -c6, -c7))


def hodge_dual(a: Multivector) -> Multivector:
    """Multiplication by the central pseudoscalar e123."""
    return gp(E123, a)


def _norm3(x: float, y: float, z: float) -> float:
    """sqrt(x^2 + y^2 + z^2) over the whole finite range, squaring with
    x * x (Python's x ** 2 is C pow, not correctly rounded on every libm).

    In-range values take the plain sum of squares, so their bits do not
    depend on the rescaling; only a sum that overflows, or that falls below
    the normal range while a component is nonzero, is recomputed on the
    components divided by the largest magnitude (Blue, ACM TOMS 4, 1978).
    """
    s = x * x + y * y + z * z
    if s == math.inf or (s < sys.float_info.min and (x or y or z)):
        big = max(abs(x), abs(y), abs(z))
        return big * _norm3(x / big, y / big, z / big)  # a sum in [1, 3]
    return math.sqrt(s)


def _norm3_rows(B: np.ndarray) -> np.ndarray:
    """_norm3 of each row of B, shape (3,) or (N, 3), bit for bit: the plain
    sum of squares, and _norm3 itself only on the rows whose sum overflows
    or falls below the normal range while a component is nonzero.  Those
    rows are looked for only when some sum lies outside [min normal, inf)."""
    rows = B.reshape(-1, 3)
    x, y, z = rows.T
    with np.errstate(over="ignore"):
        s = x * x + y * y + z * z
    b = np.sqrt(s)
    if not (s.min(initial=math.inf) >= sys.float_info.min and s.max(initial=0.0) < math.inf):
        redo = (s == math.inf) | ((s < sys.float_info.min) & rows.any(axis=1))
        if redo.any():
            b[redo] = _map(_norm3, *rows[redo].T)
    return b.reshape(B.shape[:-1])


def norm(a: Multivector) -> float:
    """Euclidean norm of the coefficient vector; inf once the sum of squares
    overflows."""
    c = np.array(a._c)
    with np.errstate(over="ignore"):
        return math.sqrt(float(np.dot(c, c)))


def commutator(a: Multivector, b: Multivector) -> Multivector:
    """a b - b a."""
    return Multivector(tuple(map(float.__sub__, gp(a, b)._c, gp(b, a)._c)))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Antisymmetric part (a b - b a)/2; the exterior product for vectors."""
    return commutator(a, b) * 0.5


def vector(x: float, y: float, z: float) -> Multivector:
    """Grade-1 multivector with components (x, y, z)."""
    return Multivector((0.0, float(x), float(y), float(z), 0.0, 0.0, 0.0, 0.0))


def _unit_defect(w, a, b, c, sqrt=math.sqrt):
    """R reverse(R) - 1 and its magnitude for an even R = w + a e23 + b e31 + c e12, on
    floats or on rows (pass np.sqrt): exactly the scalar w^2 + a^2 + b^2 + c^2 - 1."""
    x = 0.0 + w * w + a * a + b * b + c * c - 1.0
    return x, sqrt(x * x)


def _unit_rotor(c: tuple[float, ...]) -> tuple[float, ...]:
    """c, eight finite coefficients, once they pass Rotor's check: even
    grade and |R reverse(R) - 1| within UNIT_TOL."""
    if c[1] != 0.0 or c[2] != 0.0 or c[3] != 0.0 or c[7] != 0.0:
        raise ValueError("rotor must be even-graded (scalar + bivector only)")
    excess, dev = _unit_defect(c[0], c[4], c[5], c[6])
    if dev > UNIT_TOL:
        # gp(R, reverse(R)) overflowed where this sum does: no cross term exceeds half of it
        raise ValueError(_NOT_UNIT.format(dev=dev) if excess < math.inf else _NOT_FINITE)
    return c


class Rotor:
    """Even-graded multivector with unit norm; rotates via sandwich().

    Construction rejects anything with nonzero vector or pseudoscalar
    coefficients, or with |R reverse(R) - 1| beyond 1e-9.
    """

    __slots__ = ("_mv",)

    def __init__(self, mv: Multivector):
        _unit_rotor(mv._c)
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
        return f"Rotor({list(self._mv._c)})"


def exp_bivector(b: Multivector) -> Rotor:
    """Exponential of a bivector: cos|B| + (B/|B|) sin|B|, with |B| by _norm3.

    Below |B| = 1e-8 the truncated series 1 + B + B^2/2 + B^3/6 is used to
    avoid the 0/0 in the normalized direction; B^2 = -|B|^2 keeps it cheap.
    Raises ValueError only when |B| itself overflows, from about 1.8e308.
    """
    c0, c1, c2, c3, c4, c5, c6, c7 = b._c
    if c0 != 0.0 or c1 != 0.0 or c2 != 0.0 or c3 != 0.0 or c7 != 0.0:
        raise ValueError("exp_bivector requires a pure bivector argument")
    return Rotor(Multivector(_exp_coeffs(c4, c5, c6)))


def _exp_coeffs(c4: float, c5: float, c6: float) -> tuple[float, ...]:
    """exp_bivector on the coefficients of B = c4 e23 + c5 e31 + c6 e12:
    the rotor's eight coefficients, before Multivector's and Rotor's
    checks; ValueError where |B| overflows."""
    theta = _norm3(c4, c5, c6)
    if theta == math.inf:
        raise ValueError(
            "bivector magnitude |B| overflows: exp_bivector needs it below about 1.8e308"
        )
    if theta < _EXP_SERIES_CUTOFF:
        w, s = 1.0 - theta * theta / 2.0, 1.0 - theta * theta / 6.0
    else:
        w, s = math.cos(theta), math.sin(theta) / theta
    return (w, 0.0, 0.0, 0.0, c4 * s, c5 * s, c6 * s, 0.0)


def _exp_bivector_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp_bivector row by row of a block of bivectors of shape (N, 8).

    Returns the rotor rows and their deviations |R reverse(R) - 1|, each
    rotor equal to exp_bivector's bit for bit, with the angle theta by
    `_norm3_rows`.  Nothing raises: a row whose theta is not finite comes
    back NaN, and the caller tests the rotors.  Run under np.errstate.
    """
    b = c[:, 4:7]
    theta = _norm3_rows(b)
    finite = theta < math.inf
    angles = np.where(finite, theta, 0.0).tolist()
    w = np.fromiter(map(math.cos, angles), float, len(angles))
    s = np.fromiter(map(math.sin, angles), float, len(angles)) / theta
    series = theta < _EXP_SERIES_CUTOFF
    if series.any():
        theta2 = theta[series] * theta[series]
        w[series], s[series] = 1.0 - theta2 / 2.0, 1.0 - theta2 / 6.0
    out = np.zeros(c.shape)
    out[:, 0] = w
    out[:, 4:7] = b * s[:, None]
    out[~finite] = np.nan
    r = out.T
    return out, _unit_defect(r[0], r[4], r[5], r[6], np.sqrt)[1]


def rotor_axis_angle(n_hat: Multivector, alpha: float) -> Rotor:
    """Rotor exp(-e123 n_hat alpha/2) for a unit axis n_hat.

    Under sandwich() this rotates vectors counterclockwise by alpha in the
    plane dual to n_hat.  The axis is not silently renormalized; anything
    off unit length beyond 1e-9 is rejected.
    """
    c = n_hat._c
    if any(c[i] != 0.0 for i in (0, 4, 5, 6, 7)):
        raise ValueError("axis must be a pure grade-1 multivector")
    length = _norm3(c[1], c[2], c[3])
    if abs(length - 1.0) > UNIT_TOL:
        raise ValueError(f"axis must be unit length, |n| = {length:.12g}")
    return exp_bivector(hodge_dual(n_hat) * (-0.5 * float(alpha)))


def sandwich(r: Rotor, a: Multivector) -> Multivector:
    """R a reverse(R).  Pass r.reverse() for the opposite orientation."""
    m = r.mv
    return gp(gp(m, a), reverse(m))
