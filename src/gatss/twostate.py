"""Two-state Hamiltonians and their dynamics in the 3D algebra.

A Hermitian two-state Hamiltonian is a grade-{0,1} multivector
H = h0 + h1 e1 + h2 e2 + h3 e3.  Writing the vector part in polar form
(theta from e3, azimuth phi) gives the rotor of `eigensystem(h)`,

    R = exp(-e123 e3 phi/2) exp(-e123 e2 theta/2),

that diagonalizes H by sandwich: reverse(R) H R = h0 + |h| e3, so the
eigenvalues are h0 +/- |h| and the eigenstates are R acting on the ideal
basis spinors.

A magnetic field B couples as H = -(q hbar / 2 m) B with zero scalar part,
so time evolution is a pure rotor U(t) = exp_bivector(-(t/hbar) e123 h),
which precesses states clockwise about the field axis at alpha(t) =
q |B| t / m.  Observables (spin expectations, transition probabilities, the
precessing axis u(t) = U e3 reverse(U)) come out of scalar-grade
projections and reproduce the usual closed forms.

The closed forms `rabi_probability` and `u_vector_closed_form` fail as the
matrix oracle does.  One time t whose precession angle is not finite
raises ValueError.  An array of times given to `u_vector_closed_form` gets
NaN in exactly those rows, and in every other row the bits of the call at
that time.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from .algebra import (
    E3,
    E12,
    E31,
    E123,
    UNIT_TOL,
    Multivector,
    Rotor,
    _exp_bivector_rows,
    _exp_coeffs,
    _gp_rows,
    _LazyNumpy,
    _map,
    _norm3,
    _norm3_rows,
    _product,
    _real,
    _reverse_rows,
    exp_bivector,
    gp,
    hodge_dual,
    reverse,
    vector,
)
from .spinor import AlgebraicSpinor, _is_normalized_rows, basis_eps, left_mul

np = _LazyNumpy(globals())

__all__ = [
    "Hamiltonian",
    "FieldConfig",
    "EigenSystem",
    "polar_angles",
    "eigensystem",
    "hamiltonian_from_field",
    "evolution_rotor",
    "evolve",
    "expectation",
    "probability",
    "rabi_probability",
    "polar_state",
    "time_grid",
    "trajectory",
    "u_vector_closed_form",
    "spin_vectors",
]


def _vector3(v, name: str) -> tuple[float, float, float]:
    """The three components of a list, tuple or 1-D numpy array as floats
    (`_real`); ValueError for any other container, such as a str, a set or
    a dict."""
    numpy = sys.modules.get("numpy")  # no array exists before numpy loads
    if not (isinstance(v, (list, tuple))
            or numpy is not None and isinstance(v, numpy.ndarray) and v.ndim == 1):
        raise ValueError(f"{name} must be a list, tuple or 1-D array, got {type(v).__name__}")
    out = tuple(_real(x, f"{name} component") for x in v)
    if len(out) != 3:
        raise ValueError(f"{name} must have 3 components")
    return out


class _Record:
    """Base of the records, each a namedtuple whose fields __new__ sets.

    Their _make, which _replace calls, builds through the constructor and
    so through its checks; namedtuple's own skips __new__.  Their __init__
    takes the constructor's arguments and does nothing, so that a wrapper
    of it, as perfbench's tracer puts on each public class, can pass them
    on; object's would refuse them.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __init__(self, *args, **kwargs):
        pass


class Hamiltonian(_Record, namedtuple("Hamiltonian", "h0 h")):
    """Hermitian observable h0 + h . e, stored as (h0, (h1, h2, h3))."""

    __slots__ = ()

    def __new__(cls, h0: float, h: tuple[float, float, float]):
        h0 = _real(h0, "h0")
        h = _vector3(h, "vector part")
        if not (math.isfinite(h0) and all(math.isfinite(x) for x in h)):
            raise ValueError("Hamiltonian coefficients must be finite")
        return super().__new__(cls, h0, h)

    @property
    def r_norm(self) -> float:
        """Length of the vector part; half the level splitting."""
        return _norm3(*self.h)

    def vector_part(self) -> Multivector:
        return vector(*self.h)

    def as_multivector(self) -> Multivector:
        return Multivector((self.h0, *self.h, 0.0, 0.0, 0.0, 0.0))


class FieldConfig(_Record, namedtuple("FieldConfig", "B q m hbar")):
    """Static magnetic field B with coupling charge q, mass m and hbar."""

    __slots__ = ()

    def __new__(cls, B: tuple[float, float, float], q: float = 1.0, m: float = 1.0,
                hbar: float = 1.0):
        B = _vector3(B, "field")
        q, m, hbar = _real(q, "q"), _real(m, "m"), _real(hbar, "hbar")
        vals = (*B, q, m, hbar)
        if not all(math.isfinite(x) for x in vals):
            raise ValueError("field configuration must be finite")
        if m <= 0.0 or hbar <= 0.0:
            raise ValueError("mass and hbar must be positive")
        return super().__new__(cls, B, q, m, hbar)

    @property
    def b_norm(self) -> float:
        return _norm3(*self.B)

    @property
    def omega(self) -> float:
        """Transition angular frequency q |B| / m, the angle at t = 1."""
        return float(_angle(self.q, self.b_norm, self.m, 1.0))

    @property
    def omega_axial(self) -> float:
        """Signed precession frequency q B3 / m for an axial field."""
        return float(_angle(self.q, self.B[2], self.m, 1.0))


class EigenSystem(_Record, namedtuple(
    "EigenSystem", "e_plus e_minus rotor psi_plus psi_minus degenerate", defaults=(False,)
)):
    """Diagonalization result; e_plus >= e_minus always holds."""

    __slots__ = ()


def polar_angles(h: Hamiltonian) -> tuple[float, float]:
    """(theta, phi) of the vector part: theta in [0, pi] from e3, phi in
    (-pi, pi] in the e1 e2 plane; both zero when the vector part vanishes.
    A zero has no sign here: adding +0.0 makes every zero +0.0 before
    atan2, which reads the sign (atan2(0.0, -0.0) is pi).  phi = -pi, which
    atan2(-1e-300, -1) rounds to, is taken as pi."""
    h1, h2, h3 = map((0.0).__add__, h.h)
    phi = math.atan2(h2, h1)
    return math.atan2(math.hypot(h1, h2), h3), math.pi if phi == -math.pi else phi


def eigensystem(h: Hamiltonian) -> EigenSystem:
    """Eigenvalues h0 +/- |h| and rotor-generated eigenspinors.

    The rotor R = R(phi, theta) of `_polar_rotors` diagonalizes H:
    reverse(R) H R = h0 + |h| e3.  The minus eigenspinor uses the rotor at
    polar angle theta + pi, which lands on the antipodal axis; the two
    share their azimuth.  Both rotors are computed on coefficient tuples,
    with the object route's bits, and each becomes a Multivector once; R
    is returned through Rotor's check and both spinors through left_mul's.
    Those are the only checks, and no input loses one: the polar angles
    of a finite h are finite, so the three exponentials, which the object
    route checks one by one, are finite and unit within rounding.  A
    vanishing vector part degenerates to (eps_plus, eps_minus) with the
    identity rotor and sets the flag.
    Raises ValueError where h0 + |h| or h0 - |h| overflows.
    """
    eps_plus, eps_minus = basis_eps()
    r_norm = h.r_norm
    e_plus, e_minus = h.h0 + r_norm, h.h0 - r_norm
    if math.isinf(e_plus) or math.isinf(e_minus):
        raise ValueError("eigenvalues h0 +/- |h| overflow")
    if r_norm == 0.0:
        return EigenSystem(
            e_plus=e_plus,
            e_minus=e_plus,
            rotor=Rotor.identity(),
            psi_plus=eps_plus,
            psi_minus=eps_minus,
            degenerate=True,
        )
    theta, phi = polar_angles(h)
    r, r_minus = map(Multivector, _polar_rotors(phi, theta, theta + math.pi))
    return EigenSystem(
        e_plus=e_plus,
        e_minus=e_minus,
        rotor=Rotor(r),
        psi_plus=left_mul(r, eps_plus),
        psi_minus=left_mul(r_minus, eps_plus),
        degenerate=False,
    )


def _axis_rotor(dual: tuple[float, ...], alpha: float) -> tuple[float, ...]:
    """rotor_axis_angle(axis, alpha) from the coefficients of the axis's
    dual: exp of dual * (-alpha/2), with the bits of the object route, on
    coefficient tuples, unchecked.  No angle needs a check here: a finite
    alpha gives a finite rotor of unit norm within rounding (the exponent
    has one nonzero blade, so |B| cannot overflow), and an infinite or NaN
    one puts NaN in the exponent (0 * inf) and so in the rotor, which the
    caller's Multivector refuses with the object route's message."""
    exponent = tuple(map((-0.5 * float(alpha)).__mul__, dual))
    return _exp_coeffs(*exponent[4:7])


def _polar_rotors(phi: float, *thetas: float) -> list[tuple[float, ...]]:
    """The coefficients of R(phi, theta) = exp(-e123 e3 phi/2)
    exp(-e123 e2 theta/2), azimuth times tilt, for each theta; the azimuth
    is made once.  Every product is gp's.  Nothing is checked here: for
    finite angles both exponentials, and so their product, are finite,
    even and of unit norm within rounding; an angle that is not finite
    makes the product NaN.  The callers' Multivector of each product is
    the one check that can fire, with the object route's message; their
    left_mul checks each spinor, and eigensystem's Rotor its R.  The
    axes' duals e123 e3 = e12 and e123 e2 = e31 are the blades E12 and
    E31, bit for bit, signed zeros included."""
    azimuth = _axis_rotor(E12._c, phi)
    return [_product(azimuth, _axis_rotor(E31._c, theta)) for theta in thetas]


def hamiltonian_from_field(cfg: FieldConfig) -> Hamiltonian:
    """Magnetic coupling H = -(q hbar / 2 m) B, always with h0 = 0."""
    h, _ = _coupling_rows(cfg.B, cfg.q, cfg.m, cfg.hbar)
    return Hamiltonian(0.0, tuple(h[1:4].tolist()))


def _coupling_rows(B, q: float, m: float, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """The coupling of one field B, shape (3,), or of a block of fields,
    shape (N, 3): the Hamiltonian rows h = -(q hbar / 2 m) B with h0 = 0
    and their evolution bivectors e123 h, hodge_dual of each."""
    B = np.asarray(B, dtype=float)
    h = np.zeros(B.shape[:-1] + (8,))
    with np.errstate(all="ignore"):
        h[..., 1:4] = (-q * hbar / (2.0 * m)) * B
        return h, _gp_rows(_block_rows()[3], h)


_ANGLE_NOT_FINITE = "precession angle q |B| t / m is not finite at t = {t!r}"


def evolution_rotor(h: Hamiltonian, t: float, hbar: float = 1.0) -> Rotor:
    """Time evolution rotor U(t) = exp_bivector(-(t/hbar) e123 h).

    Requires a pure-vector Hamiltonian.  A nonzero h0 would only add the
    center phase exp(-e123 h0 t / hbar), which is not a rotor; evolve under
    Hamiltonian(0.0, h.h) and apply that phase to the amplitudes separately.
    """
    if h.h0 != 0.0:
        raise ValueError(
            "evolution_rotor needs h0 = 0; evolve under Hamiltonian(0.0, h.h) and "
            "carry exp(-e123 h0 t / hbar) on the amplitudes instead"
        )
    return _bivector_rotor(hodge_dual(h.vector_part())._c, t, hbar)


def _bivector_rotor(c, t: float, hbar: float) -> Rotor:
    """evolution_rotor from the coefficients c of the bivector e123 h,
    which may be out of range (a coupling that overflows)."""
    t, hbar = float(t), float(hbar)
    if not math.isfinite(t) or not math.isfinite(hbar) or hbar <= 0.0:
        raise ValueError("need finite t and positive finite hbar")
    # an exponent out of range is inf or NaN, which Multivector rejects
    exponent = Multivector(tuple(map((-t / hbar).__mul__, c)))
    if _norm3(*exponent._c[4:7]) == math.inf:
        raise ValueError(
            f"phase |h| t / hbar overflows at t = {t!r}: the rotor exponential needs "
            "it below about 1.8e308"
        )
    return exp_bivector(exponent)


def evolve(psi0: AlgebraicSpinor, u: Rotor) -> AlgebraicSpinor:
    """Apply an evolution rotor to a normalized state."""
    if not psi0.is_normalized():
        raise ValueError("initial state must be normalized")
    return left_mul(u.mv, psi0)


def expectation(op: Hamiltonian | Multivector, psi: AlgebraicSpinor) -> float:
    """<op> = 2 <reverse(psi) op psi>_0 for a grade-{0,1} observable."""
    opm = op.as_multivector() if isinstance(op, Hamiltonian) else op
    c = opm._c
    if any(c[i] != 0.0 for i in (4, 5, 6, 7)):
        raise ValueError("observable must be grade-{0,1}")
    if not psi.is_normalized():
        raise ValueError("state must be normalized")
    p = gp(reverse(psi.mv), gp(opm, psi.mv))
    return 2.0 * p._c[0]


def probability(u_n: AlgebraicSpinor, psi: AlgebraicSpinor) -> float:
    """Transition probability 2 <reverse(u) psi reverse(psi) u>_0.

    Equals the squared magnitude of inner(u_n, psi) for normalized states.
    """
    if not u_n.is_normalized() or not psi.is_normalized():
        raise ValueError("both states must be normalized")
    p = gp(gp(gp(reverse(u_n.mv), psi.mv), reverse(psi.mv)), u_n.mv)
    return 2.0 * p._c[0]


def rabi_probability(cfg: FieldConfig, t: float) -> float:
    """Closed-form transition probability out of eps_plus in a static field:
    (1/2) sin^2(theta) (1 - cos(omega t)) with omega = q |B| / m and theta
    the angle between B and e3, by `_rabi_rows`, checked by `_finite_angle`."""
    return _finite_angle(float(_rabi_rows(cfg.B, cfg.q, cfg.m, float(t))), t)


def _rabi_rows(B, q: float, m: float, t) -> np.ndarray:
    """rabi_probability for the rows and times _precession_rows takes, unchecked."""
    B = np.asarray(B, dtype=float)
    b, alpha = _precession_rows(B, q, m, t)
    with np.errstate(all="ignore"):  # inf / inf where |B| overflows
        sin_theta = _map(math.hypot, B[..., 0], B[..., 1]) / np.where(b == 0.0, 1.0, b)
        return 0.5 * sin_theta * sin_theta * (1.0 - _map(math.cos, alpha))


def _angle(q: float, b, m: float, t):
    """The angle q |B| t / m for magnitudes b, as (q / m) |B| t where that
    is not finite: q |B| can overflow while the angle itself does not."""
    with np.errstate(all="ignore"):
        alpha = q * b * t / m
        return np.where(np.isfinite(alpha), alpha, q / m * b * t)


def _precession_rows(B, q: float, m: float, t) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms' kernel: |B| of fields B, shape (3,) or (N, 3), by
    `_norm3_rows`, and the angle q |B| t / m (`_angle`) at times t
    broadcast against |B|, whose cos and sin the C library gives to each
    caller (`_map`).  The angle is 0 in a zero field at any t (even 0 * inf),
    and NaN where it is not finite (being twice the rotor's phase, it is so
    from a phase of about 9e307), which makes its cos and sin NaN."""
    t = np.asarray(t, dtype=float)
    b = _norm3_rows(np.asarray(B, dtype=float))
    alpha = np.where(b == 0.0, 0.0, _angle(q, b, m, t))
    return b, np.where(np.isfinite(alpha), alpha, np.nan)


def _finite_angle(value: float, t) -> float:
    """value of a closed form at one time t, or ValueError naming t where
    value is NaN, as it is exactly where the angle at t is not finite."""
    if math.isnan(value):
        raise ValueError(_ANGLE_NOT_FINITE.format(t=float(t)))
    return value


def polar_state(theta: float, phi: float = 0.0) -> AlgebraicSpinor:
    """Spin-up state along the (theta, phi) axis: R(phi, theta) eps_plus,
    with R turning e3 by theta towards e1, then by phi about e3.  R is
    eigensystem's rotor, from `_polar_rotors`."""
    (r,) = _polar_rotors(phi, theta)
    return left_mul(Multivector(r), basis_eps()[0])


# Rows per block of the row kernels (trajectory here, the suites and the
# oracle checks in conformance): their temporaries are a few (rows, 64)
# arrays, so memory stays flat however long the grid or the draw is.  At
# 256 rows each is 128 KB; at 512 (256 KB), `conformance --count 20000`
# took about five times the minor page faults on Linux with glibc.
_BLOCK_ROWS = 256


def _row_blocks(rows):
    """Consecutive slices of at most _BLOCK_ROWS rows, for the row kernels."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield rows[start:start + _BLOCK_ROWS]


def time_grid(t_start: float, t_end: float, steps: int) -> np.ndarray:
    """np.linspace(t_start, t_end, steps), exact also where t_end - t_start overflows."""
    if steps > sys.maxsize:  # numpy's sizes are C ssize_t
        raise ValueError(f"steps must be at most {sys.maxsize}")
    with np.errstate(over="ignore"):  # a last step past the top, which linspace sets to t_end
        if math.isfinite(float(t_end) - float(t_start)):
            return np.linspace(t_start, t_end, steps)
        return 2.0 * np.linspace(t_start / 2.0, t_end / 2.0, steps)


def trajectory(
    cfg: FieldConfig,
    psi0: AlgebraicSpinor,
    t_grid: Iterable[float],
) -> dict[str, list[float]]:
    """The state psi0 evolved in the static field of cfg, one row per time.

    Returns the columns t, p_plus, p_minus (probabilities of the basis
    states), s1, s2, s3 (spin expectations) and u1, u2, u3 (the precessing
    axis u(t) = U e3 reverse(U)), in that order.

    Each row is what evolution_rotor, evolve, probability, expectation and
    sandwich give at its t, bit for bit, computed in blocks of rows; the
    final products of probability and expectation are computed for their
    scalar blade 0 alone, and sandwich's for its vector blades 1-3, the
    only blades the columns read.  The rows only mark where those functions
    would raise, by three checks (`_evolution_rows`): the rotor's unit
    norm, psi0's norm and the evolved state's norm.  The first marked row
    is replayed through evolution_rotor from the bivector row e123 h (not
    from hamiltonian_from_field, which refuses a coupling that overflows
    with its own message), evolve and probability.  They make the checks
    of t, the exponent and the phase, then the three marked ones in the
    object API's order, and raise the row's ValueError; a marked row that
    they accept raises ArithmeticError, a defect of the row kernel.

    The rest of a row cannot raise first.  The other probability makes the
    same checks.  For a state that passes them, every coefficient and
    partial sum of gp(S_i, psi) and gp(reverse(psi), S_i psi), with
    S_i = (hbar/2) e_i, lies within hbar/4 by Cauchy-Schwarz, so each
    expectation is finite; sandwich(U, e3) of a unit rotor lies within 1.
    """
    table: dict[str, list[float]] = {
        name: [] for name in ("t", "p_plus", "p_minus", "s1", "s2", "s3", "u1", "u2", "u3")
    }
    _, bivector = _coupling_rows(cfg.B, cfg.q, cfg.m, cfg.hbar)
    spins = [op.coeffs for op in spin_vectors(cfg.hbar)]
    eps, eps_rev, e3, _ = _block_rows()
    for t in _row_blocks(np.fromiter(map(float, t_grid), float)):
        with np.errstate(all="ignore"):
            rotor, psi, failed, psi_rev = _evolution_rows(psi0, bivector, t, cfg.hbar)
            if failed.any():
                at = float(t[int(np.argmax(failed))])
                u_at = _bivector_rotor(bivector.tolist(), at, cfg.hbar)
                probability(basis_eps()[0], evolve(psi0, u_at))
                raise ArithmeticError(f"the row kernel rejected t = {at!r}, "
                                      "which the object API accepts")
            p = [_probability_rows(u, u_rev, psi, psi_rev) for u, u_rev in zip(eps, eps_rev)]
            s = [2.0 * _gp_rows(psi_rev, _gp_rows(op, psi), (0,))[:, 0] for op in spins]
            axis = _gp_rows(_gp_rows(rotor, e3), _reverse_rows(rotor), (1, 2, 3))
        for column, values in zip(table.values(), (t, *p, *s, *axis.T)):
            column.extend(values.tolist())
    return table


def _evolution_rows(psi0, bivector, t, hbar):
    """evolution_rotor and evolve row by row: the rotors
    exp_bivector(bivector * (-t / hbar)) for bivector rows e123 h (one row,
    or one per time) and the states U psi0, each row equal to the object
    API's bit for bit.

    Returns the rotor rows, the state rows, one mask of the rows that the
    object API rejects, and the reversed state rows, which the callers'
    products read too.  The mask comes from the three checks that
    `trajectory` replays, in the object API's order:
      - a rotor off unit norm, Rotor's check, which only a defect trips;
      - psi0 not normalized, evolve's check: a psi0 just past the bound
        can evolve into a state within it;
      - a state that is not normalized, probability's check.  A t, an
        exponent or a phase that is not finite makes the rotor NaN (as
        `_exp_bivector_rows` does wherever its angle is not finite), so
        also the state, which this flag marks.
    A unit rotor acting on a normalized psi0 keeps every coefficient and
    product bounded, so no other check can be the first to fail.  Which
    check fails, and its message, is the object API's.  Run under
    np.errstate.
    """
    exponent = bivector * (-t / hbar)[:, None]
    rotor, rotor_dev = _exp_bivector_rows(exponent)
    psi = _gp_rows(rotor, psi0.mv.coeffs)
    psi_rev = _reverse_rows(psi)
    failed = ((rotor_dev > UNIT_TOL) | (not psi0.is_normalized())
              | ~_is_normalized_rows(psi, psi_rev))
    return rotor, psi, failed, psi_rev


def _probability_rows(u_n, u_n_rev, psi, psi_rev) -> np.ndarray:
    """probability(u_n, psi) row by row, unchecked, for a state row u_n and
    state rows psi, each given with its reverse.  The last product is
    computed for blade 0 alone."""
    return 2.0 * _gp_rows(_gp_rows(_gp_rows(u_n_rev, psi), psi_rev), u_n, (0,))[:, 0]


@functools.cache
def _block_rows():
    """The constant rows that the row kernels' callers read on every
    block, made on first use, as `algebra._row_arrays` is: the basis
    spinors eps_plus and eps_minus as a (2, 8) block, their reverses, and
    the rows of e3 and e123."""
    eps = np.array([eps.mv._c for eps in basis_eps()])
    return eps, _reverse_rows(eps), np.array(E3._c), np.array(E123._c)


def u_vector_closed_form(cfg: FieldConfig, t):
    """Closed form of u(t): with theta the field's tilt from e3 and
    alpha = q |B| t / m,

        u1 = (B1 cos th (1 - cos a) - B2 sin a) / |B|
        u2 = (B2 cos th (1 - cos a) + B1 sin a) / |B|
        u3 = cos^2 th + sin^2 th cos a

    i.e. e3 swept clockwise about the field axis (e3 in a zero field, at any t),
    matching the sandwich route up to roundoff.  One time t whose angle is
    not finite raises ValueError (`_finite_angle`).  t may also be an array
    of times, giving arrays u1, u2, u3 in which each entry is the call at
    that time, or NaN where that call raises, as the oracle's stacks are."""
    b, alpha = _precession_rows(cfg.B, cfg.q, cfg.m, t)
    ca, sa = _map(math.cos, alpha), _map(math.sin, alpha)
    b, (b1, b2, b3) = float(b), cfg.B
    if not sys.float_info.min <= b * b < math.inf:
        # the squares below would leave the normal range; only the field's
        # direction enters them, e3 for a zero field (where alpha is 0)
        b1, b2, b3, b = (b1 / b, b2 / b, b3 / b, 1.0) if b else (0.0, 0.0, 1.0, 1.0)
    cos_th = b3 / b
    sin_th2 = (b1 * b1 + b2 * b2) / (b * b)
    u1 = (b1 * cos_th * (1.0 - ca) - b2 * sa) / b
    u2 = (b2 * cos_th * (1.0 - ca) + b1 * sa) / b
    u3 = cos_th * cos_th + sin_th2 * ca
    if u1.ndim:
        return u1, u2, u3
    return tuple(_finite_angle(float(x), t) for x in (u1, u2, u3))


def spin_vectors(hbar: float = 1.0) -> tuple[Multivector, Multivector, Multivector]:
    """Spin observables S_i = (hbar/2) e_i; their commutators close as
    [S_i, S_j] = hbar e123 eps_ijk S_k exactly in floating point."""
    half = 0.5 * float(hbar)
    return vector(half, 0.0, 0.0), vector(0.0, half, 0.0), vector(0.0, 0.0, half)
