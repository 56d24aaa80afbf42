"""Conventional two-state quantum mechanics over 2x2 complex matrices.

This module is the package's independent cross-check: states are column
vectors, observables are Hermitian matrices built from the Pauli basis, and
evolution exponentiates -i H t / hbar numerically.  None of it calls the
multivector arithmetic in `algebra`; the only shared surface is reading
coefficients off value objects at the translation boundary (rep/unrep and
spinor_rep), so agreement between the two formulations is meaningful
evidence rather than circular bookkeeping.

mat_exp is a truncated Taylor series under scaling-and-squaring, on purpose:
the rotor exponential elsewhere is closed-form trigonometry, and keeping the
matrix side on a different algorithm lets each validate the other.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import Multivector
from .spinor import AlgebraicSpinor, to_amplitudes

__all__ = [
    "pauli",
    "rep",
    "unrep",
    "spinor_rep",
    "is_hermitian",
    "is_unitary",
    "eigen_hermitian",
    "mat_exp",
    "evolve_matrix",
    "expectation_matrix",
    "probability_matrix",
    "HERMITIAN_TOL",
    "UNITARY_TOL",
    "STATE_NORM_TOL",
]

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-9

_SIGMA = (
    np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0]]),
    np.array([[0.0 + 0.0j, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0 + 0.0j, 0.0], [0.0, -1.0]]),
)
for _s in _SIGMA:
    _s.setflags(write=False)


def pauli(k: int) -> np.ndarray:
    """sigma_0 (identity) through sigma_3, as read-only 2x2 arrays."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {k!r}")
    return _SIGMA[k]


def _blade_images() -> np.ndarray:
    """Matrix image of each basis blade; composite blades are built as
    products of their vector factors rather than entered by hand."""
    s0, s1, s2, s3 = _SIGMA
    images = np.stack(
        [
            s0,
            s1,
            s2,
            s3,
            s2 @ s3,       # e23 -> i sigma1
            s3 @ s1,       # e31 -> i sigma2
            s1 @ s2,       # e12 -> i sigma3
            s1 @ s2 @ s3,  # e123 -> i sigma0
        ]
    )
    images.setflags(write=False)
    return images


_IMAGES = _blade_images()


def rep(a: Multivector) -> np.ndarray:
    """Linear extension of the blade map to a 2x2 complex matrix; an algebra
    isomorphism, so rep(a b) = rep(a) rep(b)."""
    return np.tensordot(a.coeffs, _IMAGES, axes=1)


def unrep(m: np.ndarray) -> Multivector:
    """Inverse of rep, via trace projections onto the Pauli basis."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    z = [np.trace(_SIGMA[k] @ m) / 2.0 for k in range(4)]
    return Multivector(
        [
            z[0].real,
            z[1].real,
            z[2].real,
            z[3].real,
            z[1].imag,
            z[2].imag,
            z[3].imag,
            z[0].imag,
        ]
    )


def spinor_rep(psi: AlgebraicSpinor) -> np.ndarray:
    """Column vector of the state's amplitudes, read as complex numbers.

    Intertwines the actions: spinor_rep(left_mul(m, psi)) =
    rep(m) @ spinor_rep(psi).
    """
    return np.array(to_amplitudes(psi))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m @ m.conj().T - _SIGMA[0])) <= tol)


def eigen_hermitian(h: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Closed-form eigensystem of a Hermitian 2x2 matrix.

    Returns (values, (v_plus, v_minus)) with values descending.  The roots
    come from the characteristic polynomial via trace and determinant, and
    each eigenvector's phase is fixed so its first nonzero component is
    real and positive.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian")
    half_tr = (h[0, 0] + h[1, 1]).real / 2.0
    det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    disc = half_tr * half_tr - det
    d = math.sqrt(disc) if disc > 0.0 else 0.0
    values = np.array([half_tr + d, half_tr - d])

    def eigvec(lam: float) -> np.ndarray:
        a = np.array([h[0, 1], lam - h[0, 0]])
        b = np.array([lam - h[1, 1], h[1, 0]])
        v = a if np.linalg.norm(a) >= np.linalg.norm(b) else b
        n = np.linalg.norm(v)
        if n == 0.0:
            return None
        v = v / n
        k = 0 if abs(v[0]) > 1e-15 else 1
        phase = v[k] / abs(v[k])
        return v * phase.conjugate()

    v_plus = eigvec(values[0])
    v_minus = eigvec(values[1])
    if v_plus is None or v_minus is None:
        # fully degenerate: any orthonormal pair serves, pick the canonical one
        v_plus = np.array([1.0 + 0.0j, 0.0])
        v_minus = np.array([0.0 + 0.0j, 1.0])
    elif d == 0.0:
        v_minus = np.array([-v_plus[1].conjugate(), v_plus[0].conjugate()])
    return values, (v_plus, v_minus)


def mat_exp(a: np.ndarray, order: int = 18) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a Taylor core.

    The argument is halved until its 1-norm drops below 0.5, the series is
    summed to the given order (18 terms is more than double precision needs
    at that norm; 12 is the floor), and the result squared back up.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if order < 12:
        raise ValueError("Taylor order below 12 loses double precision")
    nrm = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = 0
    while nrm / (2.0 ** squarings) >= 0.5:
        squarings += 1
    a_scaled = a / (2.0 ** squarings)
    out = np.array(_SIGMA[0])
    term = np.array(_SIGMA[0])
    for k in range(1, order + 1):
        term = term @ a_scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def evolve_matrix(
    psi: Sequence[complex] | np.ndarray,
    h: np.ndarray,
    t: float,
    hbar: float = 1.0,
) -> np.ndarray:
    """mat_exp(-i H t / hbar) applied to a normalized state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"expected a 2-component state, got shape {psi.shape}")
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("state must be normalized")
    if not is_hermitian(h):
        raise ValueError("Hamiltonian must be Hermitian")
    return mat_exp(np.asarray(h, dtype=complex) * (-1j * float(t) / float(hbar))) @ psi


def expectation_matrix(h: np.ndarray, psi: Sequence[complex] | np.ndarray) -> float:
    """<psi| H |psi> for Hermitian H; the imaginary residue must vanish to
    1e-13 relative to the largest entry of H (or 1, if larger) and is
    discarded."""
    psi = np.asarray(psi, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("observable must be Hermitian")
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("state must be normalized")
    val = complex(np.vdot(psi, h @ psi))
    if abs(val.imag) > 1e-13 * max(1.0, float(np.max(np.abs(h)))):
        raise ArithmeticError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def probability_matrix(
    u: Sequence[complex] | np.ndarray, psi: Sequence[complex] | np.ndarray
) -> float:
    """|<u|psi>|^2 for normalized states."""
    u = np.asarray(u, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    for s in (u, psi):
        if not abs(np.linalg.norm(s) - 1.0) <= STATE_NORM_TOL:
            raise ValueError("states must be normalized")
    return float(abs(np.vdot(u, psi)) ** 2)
