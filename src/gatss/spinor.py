"""States as elements of the minimal left ideal selected by f = (1 + e3)/2.

The idempotent f absorbs e3 from the left (e3 f = f), and the ideal it
generates is spanned over the center (scalar + pseudoscalar combinations,
which behave exactly like complex numbers) by the two basis spinors

    eps_plus  = f,
    eps_minus = e1 f.

A general state is psi = c_plus eps_plus + c_minus eps_minus with
center-valued amplitudes.  The center is the complex numbers (e123 squares
to -1 and commutes with everything), so the API takes and returns
amplitudes and inner products as Python complex numbers, z standing for
Re z + Im z e123.  Membership of a raw multivector in the ideal is
equivalent to four linear coefficient constraints checked at
construction.  left multiplication by any multivector stays inside the
ideal, and does so exactly in floating point because the constraints only
involve sign flips and copies.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping

from .algebra import E1, Multivector, _gp_rows, _real, gp, reverse

__all__ = [
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


_F = Multivector((0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0))


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
            c = mv._c
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

    def is_normalized(self) -> bool:
        n = inner(self, self)
        return bool(_near_unit(n.real, n.imag))

    def normalized(self) -> "AlgebraicSpinor":
        n = inner(self, self).real
        if not 0.0 < n < math.inf:
            raise ValueError(f"cannot normalize a state of squared norm {n!r}")
        return AlgebraicSpinor(self._mv / math.sqrt(n), check=False)

    def to_json_dict(self) -> dict[str, list[float]]:
        cp, cm = to_amplitudes(self)
        return {"c_plus": [cp.real, cp.imag], "c_minus": [cm.real, cm.imag]}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, list[float]]) -> "AlgebraicSpinor":
        """The state of to_json_dict's form; ValueError for any other shape."""
        try:
            cp = data["c_plus"]
            cm = data["c_minus"]
        except (KeyError, TypeError) as exc:
            raise ValueError("expected keys c_plus and c_minus") from exc
        return from_amplitudes(_amplitude("c_plus", cp), _amplitude("c_minus", cm))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicSpinor):
            return NotImplemented
        return self._mv == other._mv

    def __repr__(self) -> str:
        cp, cm = to_amplitudes(self)
        return (
            f"AlgebraicSpinor(c_plus=({cp.real:.12g}, {cp.imag:.12g}), "
            f"c_minus=({cm.real:.12g}, {cm.imag:.12g}))"
        )


_EPS_PLUS = AlgebraicSpinor(_F)
_EPS_MINUS = AlgebraicSpinor(gp(E1, _F))


def basis_eps() -> tuple[AlgebraicSpinor, AlgebraicSpinor]:
    """The orthonormal ideal basis (eps_plus, eps_minus) = (f, e1 f)."""
    return _EPS_PLUS, _EPS_MINUS


def _amplitude(key: str, pair) -> complex:
    """An amplitude of the JSON form, [re, ps]: a list or tuple of two
    numbers, each cast by the package's number rule (`algebra._real`), so
    a Python or numpy bool is refused and an integer past the double range
    is +-inf, which `_center` refuses as not finite."""
    try:
        if not isinstance(pair, (list, tuple)):
            raise TypeError
        re, ps = pair
        return complex(_real(re, key), _real(ps, key))
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be [re, ps], two numbers; got {pair!r}") from None


def _center(z: numbers.Complex) -> Multivector:
    """The center element Re z + Im z e123 that carries the amplitude z."""
    if not isinstance(z, numbers.Complex):
        raise TypeError(f"cannot interpret {type(z).__name__} as an amplitude")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"amplitudes must be finite, got {z!r}")
    return Multivector((z.real, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, z.imag))


def from_amplitudes(c_plus: numbers.Complex, c_minus: numbers.Complex) -> AlgebraicSpinor:
    """Build c_plus eps_plus + c_minus eps_minus from any finite numbers."""
    mv = gp(_center(c_plus), _EPS_PLUS.mv) + gp(_center(c_minus), _EPS_MINUS.mv)
    return AlgebraicSpinor(mv, check=False)


def to_amplitudes(psi: AlgebraicSpinor) -> tuple[complex, complex]:
    """Recover (c_plus, c_minus); exact, reading four coefficients."""
    c = psi.mv._c
    return complex(2.0 * c[0], 2.0 * c[7]), complex(2.0 * c[1], 2.0 * c[2])


def inner(a: AlgebraicSpinor, b: AlgebraicSpinor) -> complex:
    """Center-valued inner product 2(<reverse(a) b>_0 + <reverse(a) b>_3 e123).

    Sesquilinear: center factors pass through on the right and reversed on
    the left.  inner(psi, psi) is real and nonnegative, and rotors applied
    on the left leave it unchanged.
    """
    p = gp(reverse(a.mv), b.mv)._c
    return complex(2.0 * p[0], 2.0 * p[7])


def _near_unit(re, ps):
    """The normalization rule on the squared norm re + ps e123: both parts
    within NORM_TOL of 1 + 0 e123.  Takes floats or arrays of them."""
    return (abs(re - 1.0) <= NORM_TOL) & (abs(ps) <= NORM_TOL)


def _is_normalized_rows(psi, psi_rev):
    """AlgebraicSpinor.is_normalized row by row of a block of spinor
    coefficient rows psi, an array of shape (N, 8), given their reverses
    psi_rev: a boolean per row, from blades 0 and 7 of reverse(psi) psi."""
    p = _gp_rows(psi_rev, psi, (0, 7))
    return _near_unit(2.0 * p[:, 0], 2.0 * p[:, 1])


def left_mul(m: Multivector, psi: AlgebraicSpinor) -> AlgebraicSpinor:
    """Left action m psi; closure in the ideal is exact, so no re-check."""
    return AlgebraicSpinor(gp(m, psi.mv), check=False)
