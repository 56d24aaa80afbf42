"""States as elements of the minimal left ideal selected by f = (1 + e3)/2.

The idempotent f absorbs e3 from the left (e3 f = f), and the ideal it
generates is spanned over the center (scalar + pseudoscalar combinations,
which behave exactly like complex numbers) by the two basis spinors

    eps_plus  = f,
    eps_minus = e1 f.

A general state is psi = c_plus eps_plus + c_minus eps_minus with
center-valued amplitudes, and membership of a raw multivector in the ideal
is equivalent to four linear coefficient constraints checked at
construction.  left multiplication by any multivector stays inside the
ideal, and does so exactly in floating point because the constraints only
involve sign flips and copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import E1, E3, ONE, Multivector, gp, reverse

__all__ = [
    "CenterScalar",
    "AlgebraicSpinor",
    "IDEAL_TOL",
    "NORM_TOL",
    "idempotent_f",
    "basis_eps",
    "from_amplitudes",
    "to_amplitudes",
    "inner",
    "left_mul",
]

IDEAL_TOL = 1e-12
NORM_TOL = 1e-9


@dataclass(frozen=True)
class CenterScalar:
    """Element re + ps*e123 of the algebra's center.

    Since e123 squares to -1 these compose exactly like complex numbers;
    reverse() flips the pseudoscalar part and plays the role of
    conjugation.
    """

    re: float
    ps: float

    def __post_init__(self):
        re, ps = float(self.re), float(self.ps)
        if not (math.isfinite(re) and math.isfinite(ps)):
            raise ValueError("center scalar components must be finite")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "ps", ps)

    def to_complex(self) -> complex:
        return complex(self.re, self.ps)

    def as_multivector(self) -> Multivector:
        return Multivector([self.re, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, self.ps])

    def reverse(self) -> "CenterScalar":
        return CenterScalar(self.re, -self.ps)

    def abs2(self) -> float:
        return self.re * self.re + self.ps * self.ps

    def __abs__(self) -> float:
        return math.hypot(self.re, self.ps)

    def __add__(self, other: "CenterScalar") -> "CenterScalar":
        return CenterScalar(self.re + other.re, self.ps + other.ps)

    def __sub__(self, other: "CenterScalar") -> "CenterScalar":
        return CenterScalar(self.re - other.re, self.ps - other.ps)

    def __neg__(self) -> "CenterScalar":
        return CenterScalar(-self.re, -self.ps)

    def __mul__(self, other):
        if isinstance(other, CenterScalar):
            return CenterScalar(
                self.re * other.re - self.ps * other.ps,
                self.re * other.ps + self.ps * other.re,
            )
        if isinstance(other, (int, float)):
            return CenterScalar(self.re * other, self.ps * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return CenterScalar(self.re * other, self.ps * other)
        return NotImplemented


def _coerce_center(value) -> CenterScalar:
    if isinstance(value, CenterScalar):
        return value
    if isinstance(value, complex):
        return CenterScalar(value.real, value.imag)
    if isinstance(value, (int, float)):
        return CenterScalar(float(value), 0.0)
    raise TypeError(f"cannot interpret {type(value).__name__} as a center scalar")


_F = Multivector([0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0])


def idempotent_f() -> Multivector:
    """The primitive idempotent (1 + e3)/2."""
    return _F


class AlgebraicSpinor:
    """Multivector constrained to the left ideal generated by f.

    Membership means coeff(e3) = coeff(1), coeff(e12) = coeff(e123),
    coeff(e31) = -coeff(e1) and coeff(e23) = coeff(e2), each within
    IDEAL_TOL.  Constructors from raw multivectors check this;
    left_mul() trusts the exact algebraic closure instead.
    """

    __slots__ = ("_mv",)

    def __init__(self, mv: Multivector, *, check: bool = True):
        if check:
            c = mv.coeffs
            bad = max(
                abs(c[3] - c[0]),
                abs(c[6] - c[7]),
                abs(c[5] + c[1]),
                abs(c[4] - c[2]),
            )
            if bad > IDEAL_TOL:
                raise ValueError(
                    f"multivector is not in the ideal (constraint residual {bad:.3e})"
                )
        self._mv = mv

    @property
    def mv(self) -> Multivector:
        return self._mv

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        n = inner(self, self)
        return abs(n.re - 1.0) <= tol and abs(n.ps) <= tol

    def normalized(self) -> "AlgebraicSpinor":
        n = inner(self, self).re
        if n <= 0.0:
            raise ValueError("cannot normalize a null state")
        return AlgebraicSpinor(
            Multivector(self._mv.coeffs / math.sqrt(n)), check=False
        )

    def to_json_dict(self) -> dict[str, list[float]]:
        cp, cm = to_amplitudes(self)
        return {"c_plus": [cp.re, cp.ps], "c_minus": [cm.re, cm.ps]}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Sequence[float]]) -> "AlgebraicSpinor":
        try:
            cp = data["c_plus"]
            cm = data["c_minus"]
        except (KeyError, TypeError) as exc:
            raise ValueError("expected keys c_plus and c_minus") from exc
        if len(cp) != 2 or len(cm) != 2:
            raise ValueError("amplitudes must each hold [re, ps]")
        return from_amplitudes(
            CenterScalar(float(cp[0]), float(cp[1])),
            CenterScalar(float(cm[0]), float(cm[1])),
        )

    def allclose(self, other: "AlgebraicSpinor", tol: float = 1e-12) -> bool:
        return self._mv.allclose(other._mv, tol)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicSpinor):
            return NotImplemented
        return self._mv == other._mv

    def __repr__(self) -> str:
        cp, cm = to_amplitudes(self)
        return (
            f"AlgebraicSpinor(c_plus=({cp.re:.12g}, {cp.ps:.12g}), "
            f"c_minus=({cm.re:.12g}, {cm.ps:.12g}))"
        )


_EPS_PLUS = AlgebraicSpinor(_F)
_EPS_MINUS = AlgebraicSpinor(gp(E1, _F))


def basis_eps() -> tuple[AlgebraicSpinor, AlgebraicSpinor]:
    """The orthonormal ideal basis (eps_plus, eps_minus) = (f, e1 f)."""
    return _EPS_PLUS, _EPS_MINUS


def from_amplitudes(c_plus, c_minus) -> AlgebraicSpinor:
    """Build c_plus eps_plus + c_minus eps_minus.

    Amplitudes may be CenterScalar, complex, or real numbers.
    """
    cp = _coerce_center(c_plus)
    cm = _coerce_center(c_minus)
    mv = gp(cp.as_multivector(), _EPS_PLUS.mv) + gp(cm.as_multivector(), _EPS_MINUS.mv)
    return AlgebraicSpinor(mv, check=False)


def to_amplitudes(psi: AlgebraicSpinor) -> tuple[CenterScalar, CenterScalar]:
    """Recover (c_plus, c_minus); exact, reading four coefficients."""
    c = psi.mv.coeffs
    return (
        CenterScalar(2.0 * c[0], 2.0 * c[7]),
        CenterScalar(2.0 * c[1], 2.0 * c[2]),
    )


def inner(a: AlgebraicSpinor, b: AlgebraicSpinor) -> CenterScalar:
    """Center-valued inner product 2(<reverse(a) b>_0 + <reverse(a) b>_3 e123).

    Sesquilinear: center factors pass through on the right and reversed on
    the left.  inner(psi, psi) is real and nonnegative, and rotors applied
    on the left leave it unchanged.
    """
    p = gp(reverse(a.mv), b.mv)
    return CenterScalar(2.0 * p[0], 2.0 * p[7])


def left_mul(m: Multivector, psi: AlgebraicSpinor) -> AlgebraicSpinor:
    """Left action m psi; closure in the ideal is exact, so no re-check."""
    return AlgebraicSpinor(gp(m, psi.mv), check=False)
