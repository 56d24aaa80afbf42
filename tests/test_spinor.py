import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatss import matrixqm
from gatss.algebra import (
    E1,
    E2,
    E3,
    E123,
    ONE,
    ZERO,
    Multivector,
    _reverse_rows,
    gp,
    reverse,
    rotor_axis_angle,
)
from gatss.spinor import (
    AlgebraicSpinor,
    _is_normalized_rows,
    basis_eps,
    from_amplitudes,
    idempotent_f,
    inner,
    left_mul,
    to_amplitudes,
)
from gatss.twostate import Hamiltonian, eigensystem, polar_state

EPS_PLUS, EPS_MINUS = basis_eps()

# halving then doubling a coefficient is exact for normal floats but not
# for subnormals, so keep generated magnitudes out of the underflow range
amp_component = st.floats(
    -10.0, 10.0, allow_nan=False, allow_infinity=False, width=64
).filter(lambda x: x == 0.0 or abs(x) > 1e-300)
center_strategy = st.builds(complex, amp_component, amp_component)


# coefficients over the whole finite range: signed zeros, subnormals,
# +-1e200, the largest double and everyday values, mixed within one draw
wide_component = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e200, -1e200,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
wide_center = st.builds(complex, wide_component, wide_component)

NOT_FINITE = "multivector coefficients must be finite"
EXACT = (0.0, 0.0, 0.0, 0.0)


def constraint_differences(psi):
    c = psi.mv._c
    return c[3] - c[0], c[6] - c[7], c[5] + c[1], c[4] - c[2]


def closure_outcome(make, *args):
    """constraint_differences of the spinor make(*args), or the message of
    the ValueError it raises."""
    try:
        return constraint_differences(make(*args))
    except ValueError as exc:
        return str(exc)


def center(z):
    """The center element Re z + Im z e123 standing for the complex z."""
    return Multivector([z.real, 0, 0, 0, 0, 0, 0, z.imag])


def random_mv(rng, span=10.0):
    return Multivector(rng.uniform(-span, span, 8))


def random_spinor(rng, normalized=False):
    raw = rng.normal(size=4)
    if normalized:
        raw = raw / np.linalg.norm(raw)
    return from_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


class TestIdempotent:
    def test_f_coefficients(self):
        f = idempotent_f()
        assert f.coeffs.tolist() == [0.5, 0, 0, 0.5, 0, 0, 0, 0]

    def test_f_squared_is_f_exactly(self):
        f = idempotent_f()
        assert gp(f, f) == f

    def test_e3_absorbed_exactly(self):
        f = idempotent_f()
        assert gp(E3, f) == f

    def test_f_e1_f_annihilates_exactly(self):
        f = idempotent_f()
        assert gp(f, gp(E1, f)) == ZERO

    def test_f_is_self_reverse(self):
        f = idempotent_f()
        assert reverse(f) == f


class TestBasis:
    def test_eps_minus_coefficients(self):
        # e1 f = (e1 - e31)/2
        assert EPS_MINUS.mv.coeffs.tolist() == [0, 0.5, 0, 0, 0, -0.5, 0, 0]

    def test_orthonormality(self):
        assert inner(EPS_PLUS, EPS_PLUS) == complex(1.0, 0.0)
        assert inner(EPS_MINUS, EPS_MINUS) == complex(1.0, 0.0)
        assert inner(EPS_PLUS, EPS_MINUS) == complex(0.0, 0.0)
        assert inner(EPS_MINUS, EPS_PLUS) == complex(0.0, 0.0)


class TestCenterScalar:
    """The center span{1, e123} is the complex numbers, checked through gp."""

    @settings(max_examples=80, deadline=None)
    @given(center_strategy, center_strategy)
    def test_matches_complex_arithmetic(self, a, b):
        prod = gp(center(a), center(b))
        assert prod.coeffs[1:7].tolist() == [0.0] * 6
        assert abs(complex(prod[0], prod[7]) - a * b) <= 1e-12 * max(1.0, abs(a) * abs(b))
        assert center(a) + center(b) == center(a + b)

    def test_reverse_is_conjugation(self):
        z = complex(2.0, -3.0)
        assert reverse(center(z)) == center(z.conjugate())
        assert gp(reverse(center(z)), center(z)) == center(13.0)

    def test_as_multivector_round_trip(self):
        # the amplitude z enters the state as the center element Re z + Im z e123
        psi = from_amplitudes(complex(1.5, -0.25), 0.0)
        m = Multivector([1.5, 0, 0, 0, 0, 0, 0, -0.25])
        assert psi.mv == gp(m, idempotent_f())
        assert to_amplitudes(psi)[0] == complex(1.5, -0.25)

    def test_center_elements_commute_exactly(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            c = center(complex(*rng.uniform(-10, 10, 2)))
            m = random_mv(rng)
            assert gp(c, m) == gp(m, c)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0)):
            with pytest.raises(ValueError):
                from_amplitudes(bad, 0.0)
            with pytest.raises(ValueError):
                from_amplitudes(0.0, bad)
        with pytest.raises(TypeError):
            from_amplitudes("1", 0.0)
        with pytest.raises(TypeError):
            from_amplitudes(1.0, None)

    @pytest.mark.parametrize("amplitudes", [(True, 0.0), (0.0, False), (np.True_, 0.0)],
                             ids=["c_plus", "c_minus", "numpy"])
    def test_rejects_bools(self, amplitudes):
        # a bool is a number to Python, 1 or 0, but no amplitude
        with pytest.raises(TypeError, match=r"^cannot interpret bool_? as an amplitude$"):
            from_amplitudes(*amplitudes)


class TestIdealMembership:
    def test_constructor_accepts_members(self):
        AlgebraicSpinor(idempotent_f())
        AlgebraicSpinor(gp(E1, idempotent_f()))

    def test_constructor_rejects_outsiders(self):
        with pytest.raises(ValueError):
            AlgebraicSpinor(E1)
        with pytest.raises(ValueError):
            AlgebraicSpinor(ONE)
        with pytest.raises(ValueError):
            AlgebraicSpinor(Multivector([0.5, 0, 0, 0.5 + 1e-9, 0, 0, 0, 0]))

    def test_constructor_tolerates_tiny_dust(self):
        AlgebraicSpinor(Multivector([0.5, 0, 0, 0.5 + 1e-13, 0, 0, 0, 0]))

    def test_closure_under_left_multiplication_exact(self):
        # membership constraints involve only sign flips and copies, so
        # arbitrary left factors keep them bitwise true
        rng = np.random.default_rng(73)
        for _ in range(10_000):
            m = random_mv(rng)
            psi = random_spinor(rng)
            c = left_mul(m, psi).mv.coeffs
            assert c[3] == c[0]
            assert c[6] == c[7]
            assert c[5] == -c[1]
            assert c[4] == c[2]

    # every construction is checked, and exact closure is why the check
    # never fires for members, over the whole finite range
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[wide_component] * 8), wide_center, wide_center)
    @example((1e200,) * 8, 1e200, -1e200j)
    @example((5e-324, -0.0, 0.0, -5e-324, 1e-310, 0.0, -0.0, 1.0), -0.0j, 5e-324)
    def test_closure_over_the_whole_finite_range(self, m, cp, cm):
        assert closure_outcome(from_amplitudes, cp, cm) == EXACT
        psi = from_amplitudes(cp, cm)
        assert closure_outcome(left_mul, Multivector(m), psi) in (EXACT, NOT_FINITE)
        # a squared norm that underflows to 0 or overflows cannot be normalized
        outcome = closure_outcome(psi.normalized)
        assert outcome in (EXACT, NOT_FINITE) or outcome.startswith(
            "cannot normalize a state of squared norm ")

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[wide_component] * 3), wide_component, wide_component)
    @example((0.0, -0.0, -1e200), 1e200, -0.0)
    @example((5e-324, -5e-324, 0.0), 1.7976931348623157e308, -5e-324)
    def test_eigensystem_and_polar_state_are_exact_members(self, h, theta, phi):
        try:
            es = eigensystem(Hamiltonian(0.0, h))
        except ValueError as exc:
            # |h| overflows, before any spinor is made
            assert str(exc) == "eigenvalues h0 +/- |h| overflow"
        else:
            assert constraint_differences(es.psi_plus) == EXACT
            assert constraint_differences(es.psi_minus) == EXACT
        assert closure_outcome(polar_state, theta, phi) == EXACT

    # a residual within IDEAL_TOL passes, and scaling scales it past the bound
    def test_normalizing_a_member_within_tolerance_is_checked(self):
        # a residual of 1e-13 over a norm of about 1e-10
        tiny = AlgebraicSpinor(Multivector((5e-11, 0, 0, 5e-11 + 1e-13, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match=r"^multivector is not in the ideal "
                                             r"\(constraint residual 9\.99.e-04\)$"):
            tiny.normalized()

    def test_left_action_on_a_member_within_tolerance_is_checked(self):
        dusty = AlgebraicSpinor(Multivector((0.5, 0, 0, 0.5 + 5e-13, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match=r"^multivector is not in the ideal "
                                             r"\(constraint residual 5\.00.e-09\)$"):
            left_mul(Multivector.scalar(1e4), dusty)


class TestAmplitudes:
    @settings(max_examples=100, deadline=None)
    @given(center_strategy, center_strategy)
    def test_round_trip_exact(self, cp, cm):
        got_p, got_m = to_amplitudes(from_amplitudes(cp, cm))
        assert got_p == cp and got_m == cm

    def test_basis_amplitudes(self):
        assert to_amplitudes(EPS_PLUS) == (complex(1, 0), complex(0, 0))
        assert to_amplitudes(EPS_MINUS) == (complex(0, 0), complex(1, 0))

    def test_rotor_tilt_matches_matrix_oracle(self):
        # amplitudes of R eps_plus cross-checked against the 2x2 image of R
        for theta in (0.3, 0.7, 2.0, math.pi / 4):
            r = rotor_axis_angle(E2, theta)
            psi = left_mul(r.mv, EPS_PLUS)
            got = np.array(to_amplitudes(psi))
            expected = matrixqm.rep(r.mv) @ np.array([1.0 + 0j, 0.0])
            assert np.max(np.abs(got - expected)) <= 1e-15
            assert abs(got[0] - math.cos(theta / 2)) <= 1e-15
            assert abs(got[1] - math.sin(theta / 2)) <= 1e-15

    def test_pseudoscalar_acts_as_imaginary_unit(self):
        psi = left_mul(E123, EPS_PLUS)
        assert to_amplitudes(psi) == (complex(0.0, 1.0), complex(0.0, 0.0))

    def test_amplitudes_coerce_plain_numbers(self):
        psi = from_amplitudes(1.0, 0.0)
        assert psi == EPS_PLUS
        psi = from_amplitudes(0.6, complex(0.0, 0.8))
        cp, cm = to_amplitudes(psi)
        assert cp == complex(0.6, 0.0) and cm == complex(0.0, 0.8)
        assert from_amplitudes(Fraction(3, 5), np.complex128(0.8j)) == psi

    def test_amplitudes_and_inner_are_complex(self):
        psi = from_amplitudes(0.6, 0.8j)
        assert all(type(c) is complex for c in to_amplitudes(psi))
        assert type(inner(psi, EPS_PLUS)) is complex


class TestInner:
    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(500):
            a, b = random_spinor(rng), random_spinor(rng)
            got = inner(a, b)
            expected = complex(np.vdot(matrixqm.spinor_rep(a), matrixqm.spinor_rep(b)))
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_sesquilinearity(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            a, b = random_spinor(rng), random_spinor(rng)
            c = complex(*rng.uniform(-5, 5, 2))
            scale_cap = max(1.0, abs(c) * abs(inner(a, b)))
            right = inner(a, left_mul(center(c), b))
            assert abs(right - c * inner(a, b)) <= 1e-12 * scale_cap
            left = inner(left_mul(center(c), a), b)
            assert abs(left - c.conjugate() * inner(a, b)) <= 1e-12 * scale_cap

    def test_norm_is_real_nonnegative(self):
        rng = np.random.default_rng(89)
        for _ in range(200):
            a = random_spinor(rng)
            n = inner(a, a)
            assert abs(n.imag) <= 1e-12 * max(1.0, n.real)
            assert n.real >= 0.0

    def test_rotor_action_preserves_norm(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            v = rng.uniform(-1, 1, 3)
            while np.linalg.norm(v) < 1e-3:
                v = rng.uniform(-1, 1, 3)
            from gatss.algebra import vector

            r = rotor_axis_angle(
                vector(*(v / np.linalg.norm(v))), rng.uniform(0, 2 * math.pi)
            )
            psi = random_spinor(rng)
            before = inner(psi, psi)
            after = inner(left_mul(r.mv, psi), left_mul(r.mv, psi))
            assert abs(after - before) <= 1e-12 * max(1.0, before.real)


class TestRepresentationConsistency:
    @settings(max_examples=100, deadline=None)
    @given(center_strategy, center_strategy)
    def test_spinor_rep_returns_amplitudes_exactly(self, cp, cm):
        col = matrixqm.spinor_rep(from_amplitudes(cp, cm))
        assert col[0] == cp
        assert col[1] == cm


class TestNormalization:
    def test_is_normalized(self):
        assert EPS_PLUS.is_normalized()
        assert not from_amplitudes(2.0, 0.0).is_normalized()

    def test_rows_match_is_normalized(self):
        # inner(psi, psi) = 1 + 0.72 d: on each side of NORM_TOL = 1e-9
        states = [EPS_PLUS, EPS_MINUS]
        for d in (0.0, 1.3e-9, 1.5e-9, -1.3e-9, -1.5e-9, 1.0):
            states.append(from_amplitudes((1.0 + d) * 0.6, 0.8j))
        rows = np.array([psi.mv.coeffs for psi in states])
        expected = [psi.is_normalized() for psi in states]
        assert _is_normalized_rows(rows, _reverse_rows(rows)).tolist() == expected
        nan = np.full((1, 8), np.nan)
        assert _is_normalized_rows(nan, nan).tolist() == [False]

    def test_normalized(self):
        psi = from_amplitudes(3.0, 4.0).normalized()
        assert abs(inner(psi, psi).real - 1.0) <= 1e-15
        with pytest.raises(ValueError):
            from_amplitudes(0.0, 0.0).normalized()

    def test_normalized_rejects_overflowing_norm(self):
        # the squared norm 2e308 overflows to inf; dividing by it would give zero
        with pytest.raises(ValueError):
            from_amplitudes(1e154, 1e154).normalized()


class TestJson:
    def test_round_trip(self):
        psi = from_amplitudes(complex(0.6, 0.0), complex(0.0, -0.8))
        blob = psi.to_json_dict()
        assert blob == {"c_plus": [0.6, 0.0], "c_minus": [0.0, -0.8]}
        assert AlgebraicSpinor.from_json_dict(blob) == psi
        assert AlgebraicSpinor.from_json_dict({"c_plus": (0.6, 0), "c_minus": (0, -0.8)}) == psi

    def test_equal_only_to_spinors(self):
        # a spinor is not its multivector: __eq__ hands the comparison back
        assert (EPS_PLUS == EPS_PLUS.mv) is False and EPS_PLUS != EPS_PLUS.mv

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicSpinor.from_json_dict({"c_plus": [1.0, 0.0]})
        with pytest.raises(ValueError):
            AlgebraicSpinor.from_json_dict({"c_plus": [1.0], "c_minus": [0.0, 0.0]})

    @pytest.mark.parametrize("pair", ["10", b"10", {1.0: 0, 0.0: 1}, {1.0, 0.0}, range(2)],
                             ids=["str", "bytes", "dict", "set", "range"])
    def test_amplitude_is_a_list_or_tuple(self, pair):
        # any other iterable of two items would unpack into [re, ps]
        with pytest.raises(ValueError, match=r"^c_plus must be \[re, ps\], two numbers; got "):
            AlgebraicSpinor.from_json_dict({"c_plus": pair, "c_minus": [0.0, 0.0]})

    @pytest.mark.parametrize("pair", [[np.True_, 0], [0, np.False_]], ids=["re", "ps"])
    def test_amplitude_parts_are_not_bools(self, pair):
        # the number rule of the records: a numpy bool is no more a number
        # than a Python bool is
        message = f"c_plus must be [re, ps], two numbers; got {pair!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AlgebraicSpinor.from_json_dict({"c_plus": pair, "c_minus": [0, 0]})

    @pytest.mark.parametrize("text", ["1" + "0" * 399, "1e400"], ids=["integer", "float"])
    def test_amplitudes_past_the_double_range_are_not_finite(self, text):
        # JSON reads the 400-digit integer exactly and 1e400 as inf; both
        # are infinite amplitudes
        data = json.loads(f'{{"c_plus": [{text}, 0], "c_minus": [0, 0]}}')
        with pytest.raises(ValueError, match=r"^amplitudes must be finite, got \(inf\+0j\)$"):
            AlgebraicSpinor.from_json_dict(data)
