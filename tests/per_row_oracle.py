"""The matrix oracle one matrix or state at a time, its checks raising.

The stacked forms in `gatss.matrixqm` must equal these row by row, bit for
bit, and give NaN where these raise; the tests compare the two.
`taylor_mat_exp`, a Taylor series under scaling and squaring, is the
exponential's independent accuracy reference.

Also the closed Rabi formula one draw at a time, in plain Python floats,
for the closed forms' row kernel in `gatss.twostate`, and the rotor unit
check by the full product, for `algebra`'s closed form of it.
"""

import math
import sys

import numpy as np

from gatss.algebra import ONE, Multivector, gp, norm, reverse
from gatss.matrixqm import HERMITIAN_TOL, STATE_NORM_TOL, pauli


def reference_mat_exp(a):
    """exp(A) = e^mu (cosh(delta) I + sinh(delta) / delta (A - mu I)) for
    one 2x2 matrix, NaN in all four entries where A or the result is not
    finite.  Each entry is a one-element array, so every operation runs
    the same numpy loop that a stack's rows run through."""
    a = np.asarray(a, dtype=complex)
    nan = np.full((2, 2), complex(np.nan, np.nan))
    if not np.isfinite(a).all():
        return nan
    a00, a01, a10, a11 = a.reshape(4, 1)
    with np.errstate(all="ignore"):
        g = (a00 - a11) / 2.0
        delta2 = np.array(g.real * g.real - g.imag * g.imag
                          + (a01.real * a10.real - a01.imag * a10.imag), dtype=complex)
        delta2.imag = 2.0 * g.real * g.imag + (a01.real * a10.imag + a01.imag * a10.real)
        delta = np.sqrt(delta2)
        scale = np.exp((a00 + a11) / 2.0)
        cosh = scale * np.cosh(delta)
        ratio = np.ones(1, dtype=complex) if delta[0] == 0.0 else np.sinh(delta) / delta
        sinhc = scale * ratio
        out = np.array([[cosh + sinhc * g, sinhc * a01],
                        [sinhc * a10, cosh - sinhc * g]])[:, :, 0]
    return out if np.isfinite(out).all() else nan


def taylor_mat_exp(a, order=18):
    """exp(A) by a Taylor series of the given order under scaling and
    squaring: A is halved until its 1-norm drops below 0.5."""
    a = np.asarray(a, dtype=complex)
    nrm = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = 0
    while nrm / (2.0 ** squarings) >= 0.5:
        squarings += 1
    a_scaled = a / (2.0 ** squarings)
    out = np.array(pauli(0))
    term = np.array(pauli(0))
    for k in range(1, order + 1):
        term = term @ a_scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def reference_is_hermitian(m):
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


def reference_is_normalized(psi):
    return abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL


def reference_evolve(psi, h, t, hbar):
    psi = np.asarray(psi, dtype=complex)
    if not reference_is_normalized(psi):
        raise ValueError("state must be normalized")
    if not reference_is_hermitian(h):
        raise ValueError("Hamiltonian must be Hermitian")
    return reference_mat_exp(h * (-1j * float(t) / float(hbar))) @ psi


def reference_expectation(h, psi):
    if not reference_is_hermitian(h):
        raise ValueError("observable must be Hermitian")
    if not reference_is_normalized(psi):
        raise ValueError("state must be normalized")
    val = complex(np.vdot(psi, h @ psi))
    if abs(val.imag) > 1e-13 * max(1.0, float(np.max(np.abs(h)))):
        raise ArithmeticError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def reference_probability(u, psi):
    if not (reference_is_normalized(u) and reference_is_normalized(psi)):
        raise ValueError("states must be normalized")
    return float(abs(np.vdot(u, psi)) ** 2)


def reference_norm3(x, y, z):
    """sqrt(x^2 + y^2 + z^2), squaring with x * x; a sum out of the normal
    range is recomputed on the components divided by the largest one."""
    s = x * x + y * y + z * z
    if s == math.inf or (s < sys.float_info.min and (x or y or z)):
        big = max(abs(x), abs(y), abs(z))
        x, y, z = x / big, y / big, z / big
        return big * math.sqrt(x * x + y * y + z * z)
    return math.sqrt(s)


def reference_rabi_probability(B, q, m, t):
    """(1/2) sin^2(theta) (1 - cos alpha) out of eps_plus, one field at a
    time: 0 in a zero field at any t; otherwise alpha = q |B| t / m, or
    (q / m) |B| t where that is not finite, and ValueError where neither is."""
    b = reference_norm3(*B)
    if b == 0.0:
        return 0.0
    sin_theta = math.hypot(B[0], B[1]) / b
    alpha = q * b * t / m
    if not math.isfinite(alpha):
        alpha = q / m * b * t
        if not math.isfinite(alpha):
            raise ValueError(f"precession angle q |B| t / m is not finite at t = {t!r}")
    return 0.5 * sin_theta * sin_theta * (1.0 - math.cos(alpha))


def reference_rotor_deviation(coeffs):
    """|R reverse(R) - 1| of an even R through the full 64-term product, less
    ONE, under the Euclidean norm; ValueError (not finite) where the product
    overflows.  Its e31 and e12 blades keep a rounding residue, since their
    terms -wb, -ac, +bw, +ca do not cancel in the order they are added."""
    mv = Multivector(coeffs)
    return norm(gp(mv, reverse(mv)) - ONE)


def hexes(x):
    """An array's values as float.hex strings, real and imaginary parts
    apart, so that signed zeros and NaNs compare too."""
    x = np.asarray(x)
    parts = [x.real, x.imag] if np.iscomplexobj(x) else [x]
    return [[float(v).hex() for v in part.ravel()] for part in parts]
