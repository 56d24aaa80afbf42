"""Conventional two-state quantum mechanics over 2x2 complex matrices.

This module is the package's independent cross-check: states are column
vectors, observables are Hermitian matrices built from the Pauli basis, and
evolution exponentiates -i H t / hbar.  None of it calls the multivector
arithmetic in `algebra`; the only shared surface is reading coefficients
off value objects at the translation boundary (rep/unrep and spinor_rep),
so agreement between the two formulations is meaningful evidence rather
than circular bookkeeping.

Both exponentials are closed forms that share no code: mat_exp takes the
complex sqrt, cosh, sinh and exp of rep matrix entries, the algebra's rotor
the real cos and sin of the half angle `_norm3` measures on bivector
coefficients.

mat_exp, evolve_matrix, expectation_matrix and probability_matrix also take
stacks, (N, 2, 2) matrices and (N, 2) states, and run them in one pass,
each row equal bit for bit to the same call on that row alone.  A single
input that fails a check (a state off unit norm, H not Hermitian) raises;
in a stack, the rows that fail come back NaN.  The single form is the
stacked code run on one row.

The eigensystem of one matrix, and rep of one multivector, run on Python
complex numbers and `math` (`_eigen_entries`, `_rep_entries`), so that
`diag`'s cross-check loads no numpy; eigen_hermitian and rep wrap them in
arrays.  numpy itself is imported on first use.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .algebra import Multivector, _LazyNumpy
from .spinor import AlgebraicSpinor, to_amplitudes

np = _LazyNumpy(globals())

__all__ = [
    "pauli",
    "rep",
    "unrep",
    "spinor_rep",
    "is_hermitian",
    "eigen_hermitian",
    "mat_exp",
    "evolve_matrix",
    "expectation_matrix",
    "probability_matrix",
    "HERMITIAN_TOL",
    "STATE_NORM_TOL",
]

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-9


def pauli(k: int) -> np.ndarray:
    """sigma_0 (identity) through sigma_3, as read-only 2x2 arrays."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {k!r}")
    return _blade_images()[k]


@functools.cache
def _blade_images() -> np.ndarray:
    """Read-only matrix image of each basis blade, made on first use: rep
    of the eight unit coefficient rows."""
    images = np.reshape([_rep_entries(row) for row in np.eye(8).tolist()], (8, 2, 2))
    images.setflags(write=False)
    return images


def _rep_entries(c: Sequence[float]) -> tuple[complex, complex, complex, complex]:
    """The entries h00, h01, h10, h11 of rep for eight coefficients, as
    Python complex numbers: each part is the sum of the two blades whose
    images reach it.  This is the one blade map: 1, e1, e2 and e3 go to the
    Pauli matrices sigma0..sigma3, and each composite blade to the product
    of its factors' images, sigma2 sigma3 = i sigma1 for e23,
    sigma3 sigma1 = i sigma2 for e31, sigma1 sigma2 = i sigma3 for e12 and
    sigma1 sigma2 sigma3 = i sigma0 for e123."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return (complex(c0 + c3, c6 + c7), complex(c1 + c5, c4 - c2),
            complex(c1 - c5, c2 + c4), complex(c0 - c3, c7 - c6))


def rep(a: Multivector | np.ndarray) -> np.ndarray:
    """Linear extension of the blade map to a 2x2 complex matrix; an algebra
    isomorphism, so rep(a b) = rep(a) rep(b).  Also maps coefficient rows,
    shape (N, 8), to a stack of matrices, shape (N, 2, 2)."""
    if isinstance(a, Multivector):
        return np.reshape(_rep_entries(a._c), (2, 2))
    a = np.asarray(a, dtype=float)
    # the np.dot inside np.tensordot(a, _blade_images(), axes=1), at half its cost
    return np.dot(a.reshape(-1, 8), _blade_images().reshape(8, 4)).reshape(a.shape[:-1] + (2, 2))


def unrep(m: np.ndarray) -> Multivector:
    """Inverse of rep, via trace projections onto the Pauli basis."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    z = [np.trace(s @ m) / 2.0 for s in _blade_images()[:4]]
    return Multivector([*(w.real for w in z), *(w.imag for w in z[1:]), z[0].imag])


def spinor_rep(psi: AlgebraicSpinor) -> np.ndarray:
    """Column vector of the state's amplitudes, read as complex numbers.

    Intertwines the actions: spinor_rep(left_mul(m, psi)) =
    rep(m) @ spinor_rep(psi).
    """
    return np.array(to_amplitudes(psi))


def is_hermitian(m: np.ndarray):
    """Whether max |m - m^dagger| <= HERMITIAN_TOL: a bool for one matrix,
    a bool array for a stack of them (NaN entries fail)."""
    m = np.asarray(m, dtype=complex)
    ok = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1)) <= HERMITIAN_TOL
    return bool(ok) if m.ndim == 2 else ok


def eigen_hermitian(h: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Closed-form eigensystem of a Hermitian 2x2 matrix.

    Returns (values, (v_plus, v_minus)) with values descending, computed by
    `_eigen_entries` on Python complex numbers.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian")
    values, vectors = _eigen_entries(*h.ravel().tolist())
    return np.array(values), (np.array(vectors[0]), np.array(vectors[1]))


def _eigen_entries(h00: complex, h01: complex, h10: complex, h11: complex):
    """eigen_hermitian of the matrix with these entries, taken to be
    Hermitian and finite, on Python complex numbers and `math`: the values
    and each eigenvector as tuples.

    The roots are half the trace plus and minus the square root of
    ((h00 - h11) / 2)^2 + h01 h10, formed from the entries so that it does
    not cancel as trace minus determinant would, and each eigenvector's
    phase is fixed so its first nonzero component is real and positive.

    H is first multiplied by a power of two that brings its largest real
    or imaginary part into [1/2, 1) (by at most 2^1021 for a subnormal H),
    which is exact, so that the squares below neither overflow nor
    underflow, and no abs or division below can raise; the values are
    scaled back.
    """
    entries = (h00, h01, h10, h11)
    _, k = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in entries))
    scale = math.ldexp(1.0, -max(k, -1021))
    h00, h01, h10, h11 = (complex(z.real * scale, z.imag * scale) for z in entries)
    half_tr = (h00.real + h11.real) / 2.0
    half_gap = (h00.real - h11.real) / 2.0
    disc = half_gap * half_gap + (h01 * h10).real
    d = math.sqrt(disc) if disc > 0.0 else 0.0

    def eigvec(sd: float):
        # lam - h00 and lam - h11 from the root's offset sd: the rounded lam cancels
        a = (h01, complex(sd - half_gap))
        b = (complex(sd + half_gap), h10)
        n_a, n_b = (math.sqrt((x.real * x.real + y.real * y.real)
                              + (x.imag * x.imag + y.imag * y.imag)) for x, y in (a, b))
        v, n = (a, n_a) if n_a >= n_b else (b, n_b)
        if n == 0.0:
            return None
        v = tuple(z / n for z in v)
        first = v[0] if abs(v[0]) > 1e-15 else v[1]
        phase = (first / abs(first)).conjugate()
        return tuple(z * phase for z in v)

    v_plus = eigvec(d)
    v_minus = eigvec(-d)
    if v_plus is None or v_minus is None:
        # degenerate (every d == 0 lands here): pick the canonical pair
        v_plus, v_minus = (1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j)
    return ((half_tr + d) / scale, (half_tr - d) / scale), (v_plus, v_minus)


# what a row that fails comes back as: NaN in both parts
_NAN = complex(math.nan, math.nan)


def _stacked(x, core: tuple[int, ...], what: str) -> np.ndarray:
    """x as a complex array of shape core, or (N,) + core for a stack."""
    x = np.asarray(x, dtype=complex)
    if x.shape[x.ndim - len(core):] != core or x.ndim > len(core) + 1:
        raise ValueError(f"expected {what} or a stack of them, got shape {x.shape}")
    return x


def _is_normalized(psi: np.ndarray):
    """|1 - norm| <= STATE_NORM_TOL for a state or each row of a stack,
    the norm summed as np.linalg.norm sums it for one state."""
    return abs(np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
               - 1.0) <= STATE_NORM_TOL


def _settle(value: np.ndarray, checks, single: bool):
    """The value of a single input, or of a stack with NaN in the rows that
    fail a check.  checks are (passed, error) pairs in the order they are
    made; a single input that fails one raises its error."""
    ok = True
    for passed, error in checks:
        if single and not passed:
            raise error
        ok = ok & passed
    if single:
        return value if value.ndim else float(value)
    ok = np.reshape(ok, np.shape(ok) + (1,) * (value.ndim - np.ndim(ok)))
    return np.where(ok, value, _NAN if np.iscomplexobj(value) else np.nan)


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a 2x2 complex matrix in closed form,

        exp(A) = e^mu (cosh(delta) I + sinh(delta) / delta (A - mu I)),
        mu = (a00 + a11) / 2,  delta^2 = ((a00 - a11) / 2)^2 + a01 a10,

    with delta^2 formed from the entries, so that it does not cancel as
    trace minus determinant would, and sinh(delta) / delta = 1 at delta = 0.

    A stack of matrices, shape (N, 2, 2), is exponentiated in one pass,
    each row equal to mat_exp of that matrix alone, bit for bit.  A row
    whose input or result is not finite comes back NaN in all four entries.
    """
    a = _stacked(a, (2, 2), "a 2x2 matrix")
    rows = a.reshape(-1, 2, 2)
    a00, a01, a10, a11 = rows.reshape(-1, 4).T
    with np.errstate(all="ignore"):
        half_gap = (a00 - a11) / 2.0
        # delta^2 in real arithmetic, exactly real for A = -i H t: numpy's
        # complex product may fuse a multiply-add and leave a residue
        delta2 = (half_gap.real * half_gap.real - half_gap.imag * half_gap.imag
                  + (a01.real * a10.real - a01.imag * a10.imag)).astype(complex)
        delta2.imag = (2.0 * half_gap.real * half_gap.imag
                       + (a01.real * a10.imag + a01.imag * a10.real))
        delta = np.sqrt(delta2)
        scale = np.exp((a00 + a11) / 2.0)
        cosh = scale * np.cosh(delta)
        sinhc = scale * np.where(delta == 0.0, 1.0, np.sinh(delta) / delta)
        out = np.stack([cosh + sinhc * half_gap, sinhc * a01,
                        sinhc * a10, cosh - sinhc * half_gap], axis=1).reshape(-1, 2, 2)
    out[~(np.isfinite(rows) & np.isfinite(out)).all(axis=(1, 2))] = _NAN
    return out.reshape(a.shape)


def evolve_matrix(
    psi: Sequence[complex] | np.ndarray,
    h: np.ndarray,
    t: float | np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """mat_exp(-i H t / hbar) applied to a normalized state.

    Any of psi (shape (N, 2)), h (shape (N, 2, 2)) and t (shape (N,)) may
    be a stack, evolving N rows in one pass; the others then hold for
    every row.  Rows whose state is off unit norm or whose H is not
    Hermitian come back NaN, where a single input raises ValueError.
    """
    psi = _stacked(psi, (2,), "a 2-component state")
    h = _stacked(h, (2, 2), "a 2x2 matrix")
    t = np.asarray(t, dtype=float)
    single = psi.ndim == 1 and h.ndim == 2 and t.ndim == 0
    with np.errstate(all="ignore"):
        u = mat_exp(h * np.reshape(-1j * (t / hbar), t.shape + (1, 1)))
        out = np.matmul(u, psi[..., None])[..., 0]
    return _settle(out, [
        (_is_normalized(psi), ValueError("state must be normalized")),
        (is_hermitian(h), ValueError("Hamiltonian must be Hermitian")),
    ], single)


def expectation_matrix(h: np.ndarray, psi: Sequence[complex] | np.ndarray):
    """<psi| H |psi> for Hermitian H; the imaginary residue must vanish to
    1e-13 relative to the largest entry of H (or 1, if larger) and is
    discarded.

    h (shape (N, 2, 2)) and psi (shape (N, 2)) may be stacks: the result is
    then an array of N values, NaN in the rows where a single input would
    raise (ValueError, or ArithmeticError for the residue).
    """
    h = _stacked(h, (2, 2), "a 2x2 matrix")
    psi = _stacked(psi, (2,), "a 2-component state")
    single = h.ndim == 2 and psi.ndim == 1
    with np.errstate(all="ignore"):
        val = np.vecdot(psi, np.matmul(h, psi[..., None])[..., 0])
        bound = 1e-13 * np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))
    residue = ArithmeticError(
        f"expectation has imaginary residue {float(val.imag):.3e}") if single else None
    return _settle(val.real, [
        (is_hermitian(h), ValueError("observable must be Hermitian")),
        (_is_normalized(psi), ValueError("state must be normalized")),
        (abs(val.imag) <= bound, residue),
    ], single)


def probability_matrix(
    u: Sequence[complex] | np.ndarray, psi: Sequence[complex] | np.ndarray
):
    """|<u|psi>|^2 for normalized states; either may be a stack of shape
    (N, 2), giving N values with NaN where a single pair would raise."""
    u = _stacked(u, (2,), "a 2-component state")
    psi = _stacked(psi, (2,), "a 2-component state")
    with np.errstate(all="ignore"):
        z = np.vecdot(u, psi)
        # squared one scalar at a time, as abs(np.vdot(u, psi)) ** 2 is: the
        # scalar power is C pow, which x * x is not
        magnitude = np.hypot(z.real, z.imag)
        p = np.array([x ** 2 for x in magnitude.ravel()]).reshape(z.shape)
    return _settle(p, [
        (_is_normalized(u) & _is_normalized(psi), ValueError("states must be normalized")),
    ], u.ndim == 1 and psi.ndim == 1)
