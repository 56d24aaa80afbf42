import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatss.algebra import (
    E1,
    E2,
    E3,
    E12,
    E23,
    E31,
    E123,
    ONE,
    Multivector,
    gp,
)
from gatss.matrixqm import (
    eigen_hermitian,
    evolve_matrix,
    expectation_matrix,
    is_hermitian,
    mat_exp,
    pauli,
    probability_matrix,
    rep,
    spinor_rep,
    unrep,
)
from gatss.spinor import basis_eps, from_amplitudes, left_mul
from per_row_oracle import (
    hexes,
    reference_evolve,
    reference_expectation,
    reference_mat_exp,
    reference_probability,
    taylor_mat_exp,
)

EPS_PLUS, EPS_MINUS = basis_eps()

I2 = np.eye(2, dtype=complex)


def random_mv(rng, span=10.0):
    return Multivector(rng.uniform(-span, span, 8))


def random_hermitian(rng, span=5.0):
    h0, h1, h2, h3 = rng.uniform(-span, span, 4)
    return h0 * np.array(pauli(0)) + h1 * np.array(pauli(1)) + h2 * np.array(
        pauli(2)
    ) + h3 * np.array(pauli(3))


class TestPauli:
    def test_values(self):
        assert np.array_equal(pauli(0), I2)
        assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(pauli(3), np.array([[1, 0], [0, -1]], dtype=complex))

    def test_product_relation_exact(self):
        # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k
        eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        for i in range(1, 4):
            assert np.array_equal(pauli(i) @ pauli(i), I2)
        for (i, j), k in eps.items():
            assert np.array_equal(pauli(i) @ pauli(j), 1j * np.array(pauli(k)))
            assert np.array_equal(pauli(j) @ pauli(i), -1j * np.array(pauli(k)))

    def test_read_only_and_range(self):
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            pauli(-1)
        m = pauli(1)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestRep:
    def test_blade_images(self):
        assert np.array_equal(rep(ONE), I2)
        assert np.array_equal(rep(E1), pauli(1))
        assert np.array_equal(rep(E2), pauli(2))
        assert np.array_equal(rep(E3), pauli(3))
        assert np.array_equal(rep(E23), 1j * np.array(pauli(1)))
        assert np.array_equal(rep(E31), 1j * np.array(pauli(2)))
        assert np.array_equal(rep(E12), 1j * np.array(pauli(3)))
        assert np.array_equal(rep(E123), 1j * I2)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_mv(rng), random_mv(rng)
            s = rng.uniform(-3, 3)
            lhs = rep(Multivector(a.coeffs + s * b.coeffs))
            rhs = rep(a) + s * rep(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = random_mv(rng), random_mv(rng)
            dev = np.max(np.abs(rep(gp(a, b)) - rep(a) @ rep(b)))
            assert dev <= 1e-11

    def test_unrep_inverts_rep(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = random_mv(rng)
            back = unrep(rep(a))
            assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-13

    def test_rep_inverts_unrep(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.uniform(-5, 5, (2, 2)) + 1j * rng.uniform(-5, 5, (2, 2))
            assert np.max(np.abs(rep(unrep(m)) - m)) <= 1e-13

    def test_intertwines_left_action(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m = random_mv(rng)
            raw = rng.normal(size=4)
            psi = from_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
            lhs = spinor_rep(left_mul(m, psi))
            rhs = rep(m) @ spinor_rep(psi)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_basis_states(self):
        assert np.array_equal(spinor_rep(EPS_PLUS), np.array([1.0 + 0j, 0.0]))
        assert np.array_equal(spinor_rep(EPS_MINUS), np.array([0.0 + 0j, 1.0]))


class TestChecks:
    def test_is_hermitian(self):
        assert is_hermitian(pauli(1))
        assert is_hermitian(np.array([[1.0, 2 + 1j], [2 - 1j, -3.0]]))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigenHermitian:
    def test_sigma3(self):
        values, (v_plus, v_minus) = eigen_hermitian(pauli(3))
        assert values.tolist() == [1.0, -1.0]
        assert np.array_equal(v_plus, np.array([1.0 + 0j, 0.0]))
        assert np.array_equal(v_minus, np.array([0.0 + 0j, 1.0]))

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            h = random_hermitian(rng)
            values, (v_plus, v_minus) = eigen_hermitian(h)
            cap = max(1.0, abs(values[0]), abs(values[1]))
            assert values[0] >= values[1]
            for lam, v in ((values[0], v_plus), (values[1], v_minus)):
                assert np.max(np.abs(h @ v - lam * v)) <= 1e-12 * cap
            assert abs(np.linalg.norm(v_plus) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(v_minus) - 1.0) <= 1e-12
            assert abs(np.vdot(v_plus, v_minus)) <= 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            values, vecs = eigen_hermitian(random_hermitian(rng))
            for v in vecs:
                k = 0 if abs(v[0]) > 1e-12 else 1
                assert v[k].real > 0.0
                assert abs(v[k].imag) <= 1e-12 * abs(v[k])

    def test_trace_and_det_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h = random_hermitian(rng)
            values, _ = eigen_hermitian(h)
            tr = (h[0, 0] + h[1, 1]).real
            det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
            assert abs(values.sum() - tr) <= 1e-12 * max(1.0, abs(tr))
            assert abs(values.prod() - det) <= 1e-11 * max(1.0, abs(det))

    def test_degenerate_scalar_matrix(self):
        values, (v_plus, v_minus) = eigen_hermitian(3.5 * I2)
        assert values.tolist() == [3.5, 3.5]
        assert np.array_equal(v_plus, np.array([1.0 + 0j, 0.0]))
        assert np.array_equal(v_minus, np.array([0.0 + 0j, 1.0]))

    def test_discriminant_rounding_to_zero(self):
        # trace^2 / 4 - det rounds to 0 here; ((h00 - h11) / 2)^2 + h01 h10
        # keeps the splitting.  The vectors take lam - h00 as the root's
        # offset less half the gap: from the rounded lam it cancelled, to
        # about 3e-8 entrywise
        values, (v_plus, v_minus) = eigen_hermitian(np.array([[1.0, 1e-9], [1e-9, 1.0]]))
        assert values.tolist() == [1.0 + 1e-9, 1.0 - 1e-9]
        for v, sign in ((v_plus, 1.0), (v_minus, -1.0)):
            true = np.array([1.0, sign]) / math.sqrt(2.0)
            assert np.max(np.abs(v - true)) <= 1e-15
            assert abs(1.0 - abs(np.vdot(v, true))) <= 1e-15
        assert abs(np.vdot(v_plus, v_minus)) <= 1e-15

    def test_splitting_that_underflows_gives_the_canonical_pair(self):
        # (1e-200)^2 underflows, and so do both candidate vectors' norms
        values, (v_plus, v_minus) = eigen_hermitian(np.array([[1.0, 1e-200], [1e-200, 1.0]]))
        assert values.tolist() == [1.0, 1.0]
        assert np.array_equal(v_plus, np.array([1.0 + 0j, 0.0]))
        assert np.array_equal(v_minus, np.array([0.0 + 0j, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(-5.0, -1e-3), st.floats(1e-3, 5.0)),
                    min_size=4, max_size=4),
           st.integers(-900, 900))
    def test_scaling_by_a_power_of_two_is_exact(self, c, j):
        # H is scaled to its largest part inside, so H and 2**j H give the
        # same vectors and values 2**j apart, bit for bit
        h = rep(Multivector([*c, 0.0, 0.0, 0.0, 0.0]))
        values, vecs = eigen_hermitian(h)
        scaled_values, scaled_vecs = eigen_hermitian(h * 2.0 ** j)
        assert hexes(scaled_values) == hexes(values * 2.0 ** j)
        assert hexes(scaled_vecs) == hexes(vecs)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324], ids=["tiny", "huge", "subnormal"])
    def test_far_from_unit_magnitude(self, scale):
        # unscaled, half_tr**2 - det underflows to 0 (a false degeneracy)
        # or overflows to inf; 2**-0.5 (sigma1 + sigma3) has eigenvalues +/-1
        c = 2.0 ** -0.5
        h = scale * np.array([[c, c], [c, -c]], dtype=complex)
        values, (v_plus, v_minus) = eigen_hermitian(h)
        assert np.allclose(values / scale, [1.0, -1.0], rtol=1e-15, atol=0.0)
        assert abs(v_plus[0] - math.cos(math.pi / 8)) <= 1e-15
        assert abs(v_plus[1] - math.sin(math.pi / 8)) <= 1e-15
        assert abs(np.vdot(v_plus, v_minus)) <= 1e-15

    def test_rejections(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eigen_hermitian(np.eye(3))


class TestMatExp:
    def test_zero_gives_identity(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2))), I2)

    def test_half_turn(self):
        # exp(i pi sigma3) = -I
        got = mat_exp(1j * math.pi * np.array(pauli(3)))
        assert np.max(np.abs(got + I2)) <= 1e-14

    def test_unitary_for_anti_hermitian(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            h = random_hermitian(rng)
            u = mat_exp(-1j * h * rng.uniform(0, 10))
            assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-10

    def test_det_one_for_traceless(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            h = random_hermitian(rng)
            h = h - (np.trace(h) / 2.0) * I2
            u = mat_exp(-1j * h * rng.uniform(0, 10))
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det - 1.0) <= 1e-9

    def test_additivity_on_commuting_arguments(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            h = random_hermitian(rng)
            s, t = rng.uniform(-3, 3, 2)
            lhs = mat_exp(-1j * h * (s + t))
            rhs = mat_exp(-1j * h * s) @ mat_exp(-1j * h * t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_shape_check(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((3, 3)))

    def test_agrees_with_taylor_series(self):
        # the closed form against the independent Taylor reference, on
        # -i H t and on general complex matrices of 1-norm up to 50
        rng = np.random.default_rng(39)
        for _ in range(200):
            h = random_hermitian(rng)
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for a in (-1j * h, raw):
                a = a * (rng.uniform(0.0, 50.0) / np.max(np.sum(np.abs(a), axis=0)))
                expected = taylor_mat_exp(a)
                gap = np.max(np.abs(mat_exp(a) - expected)) / max(1.0, np.max(np.abs(expected)))
                assert gap <= 1e-13

    @pytest.mark.parametrize("phase", [1e5, 1e10, 1e100, 1e150])
    def test_unitary_at_large_phase(self, phase):
        # delta^2 is exactly real for -i H t, so cosh and sinh of
        # delta = i |h| t are cos and sin: no drift off the unit circle
        h = np.array(pauli(1)) * 0.6 - np.array(pauli(2)) * 0.48 + np.array(pauli(3)) * 0.64
        u = mat_exp(-1j * h * phase)
        assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-15


class TestEvolveMatrix:
    def test_norm_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            h = random_hermitian(rng)
            raw = rng.normal(size=4)
            psi = raw[:2] + 1j * raw[2:]
            psi = psi / np.linalg.norm(psi)
            out = evolve_matrix(psi, h, rng.uniform(0, 10))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_sigma3_phases(self):
        out = evolve_matrix([1.0, 0.0], np.array(pauli(3)), 0.8)
        assert abs(out[0] - np.exp(-0.8j)) <= 1e-14
        assert out[1] == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            evolve_matrix([2.0, 0.0], np.array(pauli(3)), 1.0)
        with pytest.raises(ValueError):
            evolve_matrix([1.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            evolve_matrix([1.0, 0.0, 0.0], np.array(pauli(3)), 1.0)


class TestExpectationAndProbability:
    def test_expectation_basics(self):
        assert expectation_matrix(np.array(pauli(3)), [1.0, 0.0]) == 1.0
        assert expectation_matrix(np.array(pauli(3)), [0.0, 1.0]) == -1.0
        assert expectation_matrix(np.array(pauli(1)), [1.0, 0.0]) == 0.0

    def test_expectation_within_spectrum(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            h = random_hermitian(rng)
            values, _ = eigen_hermitian(h)
            raw = rng.normal(size=4)
            psi = raw[:2] + 1j * raw[2:]
            psi = psi / np.linalg.norm(psi)
            val = expectation_matrix(h, psi)
            assert values[1] - 1e-12 <= val <= values[0] + 1e-12

    def test_expectation_rejections(self):
        with pytest.raises(ValueError):
            expectation_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])
        with pytest.raises(ValueError):
            expectation_matrix(np.array(pauli(3)), [2.0, 0.0])

    def test_probability_basics(self):
        assert probability_matrix([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert probability_matrix([1.0, 0.0], [0.0, 1.0]) == 0.0
        s = 1.0 / math.sqrt(2.0)
        assert abs(probability_matrix([1.0, 0.0], [s, s]) - 0.5) <= 1e-15

    def test_probability_range_and_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            raw = rng.normal(size=8)
            u = raw[:2] + 1j * raw[2:4]
            psi = raw[4:6] + 1j * raw[6:]
            u = u / np.linalg.norm(u)
            psi = psi / np.linalg.norm(psi)
            p = probability_matrix(u, psi)
            assert 0.0 <= p <= 1.0 + 1e-15
            assert abs(p - probability_matrix(psi, u)) <= 1e-15

    def test_probability_rejections(self):
        with pytest.raises(ValueError):
            probability_matrix([2.0, 0.0], [1.0, 0.0])


def row_outcome(reference, *args, shape=()):
    """The reference's value on one row as float.hex strings; a row the
    reference rejects (or cannot scale) is NaN, as in a stack."""
    with np.errstate(all="ignore"):
        try:
            value = np.asarray(reference(*args))
        except (ValueError, ArithmeticError, OverflowError):
            value = np.full(shape, complex(np.nan, np.nan) if shape else np.nan)
    return hexes(value)


def stacked_outcome(fn, *args):
    with np.errstate(all="ignore"):
        out = fn(*args)
    return [hexes(row) for row in out]


def signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


# zeros of both signs, plain values, and magnitudes over the whole finite
# range, so that one stack mixes rows with delta = 0, plain rows, and rows
# whose delta^2 or result overflows
component = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.0, 2.0),
    signed(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)),
)
entries = st.builds(complex, component, component)
matrices = st.lists(entries, min_size=4, max_size=4).map(lambda e: np.reshape(e, (2, 2)))
hermitians = st.lists(st.one_of(st.floats(-5.0, 5.0), component), min_size=4, max_size=4).map(
    lambda h: h[0] * np.array(pauli(0)) + h[1] * np.array(pauli(1))
    + h[2] * np.array(pauli(2)) + h[3] * np.array(pauli(3))
)
# unit states, and states off unit norm by about the tolerance
raw_states = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4).filter(
    lambda x: math.hypot(*x) > 1e-3
)
states = st.builds(
    lambda x, drift: (np.array([x[0] + 1j * x[1], x[2] + 1j * x[3]]) / math.hypot(*x))
    * (1.0 + drift),
    raw_states,
    st.sampled_from([0.0, 0.0, 0.0, 1e-9, -1e-9, 1.01e-9, 0.99e-9, 0.5]),
)
times = st.one_of(st.floats(-50.0, 50.0), signed(st.floats(-8.0, 30.0).map(lambda e: 10.0 ** e)))


class TestStackedOracle:
    """Every row of a stacked call equals the per-row reference bit for
    bit, and NaN where the reference raises; a single input is a stack of
    one row."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(matrices, min_size=1, max_size=6))
    def test_mat_exp_rows(self, stack):
        expected = [row_outcome(reference_mat_exp, a, shape=(2, 2)) for a in stack]
        assert stacked_outcome(mat_exp, np.array(stack)) == expected
        with np.errstate(all="ignore"):
            assert [hexes(mat_exp(a)) for a in stack] == expected

    def test_mat_exp_edge_rows_in_one_stack(self):
        # delta = 0 (zero and nilpotent rows), delta^2 = 1e-40, |h| t of
        # 1e150 (finite) and 1e155 (delta^2 overflows), a result that
        # overflows, and non-finite rows
        stack = np.array([
            np.zeros((2, 2)),
            [[0.0, 1.0], [0.0, 0.0]],
            1e-20j * np.array(pauli(1)),
            -1e150j * np.array(pauli(2)),
            1e155j * np.array(pauli(3)),
            [[800.0, 0.0], [0.0, 0.0]],
            [[np.nan, 0.0], [0.0, 0.0]],
            [[0.0, np.inf], [0.0, 0.0]],
        ])
        expected = [row_outcome(reference_mat_exp, a, shape=(2, 2)) for a in stack]
        assert stacked_outcome(mat_exp, stack) == expected
        # the single form is a stack of one
        assert [hexes(mat_exp(a)) for a in stack] == expected
        assert np.array_equal(mat_exp(stack[1]), [[1.0, 1.0], [0.0, 1.0]])
        assert np.isfinite(mat_exp(stack[:4])).all()
        assert all(np.isnan(mat_exp(a)).all() for a in stack[4:])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(states, st.one_of(hermitians, hermitians, matrices), times),
                 min_size=1, max_size=5),
        st.sampled_from([1.0, 0.7, 1e-300, 1e300]),
    )
    def test_evolve_rows(self, rows, hbar):
        psi, h, t = (np.array(column) for column in zip(*rows))
        expected = [row_outcome(reference_evolve, *row, hbar, shape=(2,)) for row in rows]
        assert stacked_outcome(evolve_matrix, psi, h, t, hbar) == expected
        # one of the three stacked, the others shared by every row
        assert stacked_outcome(evolve_matrix, psi[0], h[0], t, hbar) == [
            row_outcome(reference_evolve, psi[0], h[0], x, hbar, shape=(2,)) for x in t
        ]
        assert stacked_outcome(evolve_matrix, psi, h[0], t[0], hbar) == [
            row_outcome(reference_evolve, x, h[0], t[0], hbar, shape=(2,)) for x in psi
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(hermitians, hermitians, matrices), states),
                    min_size=1, max_size=5))
    def test_expectation_rows(self, rows):
        h, psi = (np.array(column) for column in zip(*rows))
        expected = [row_outcome(reference_expectation, *row) for row in rows]
        assert [hexes(v) for v in expectation_matrix(h, psi)] == expected
        assert [hexes(v) for v in expectation_matrix(h[0], psi)] == [
            row_outcome(reference_expectation, h[0], x) for x in psi
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(states, states), min_size=1, max_size=5))
    # |<u|psi>| = x, whose x ** 2 (C pow) is one ulp above x * x with
    # glibc: the reference squares with pow, so x * x fails this row
    @example([(np.array([1.0 + 0j, 0.0]),
               np.array([0.37796883434360806 + 0j, math.sqrt(1.0 - 0.37796883434360806 ** 2)]))])
    def test_probability_rows(self, rows):
        u, psi = (np.array(column) for column in zip(*rows))
        expected = [row_outcome(reference_probability, *row) for row in rows]
        assert [hexes(v) for v in probability_matrix(u, psi)] == expected
        assert [hexes(v) for v in probability_matrix(u[0], psi)] == [
            row_outcome(reference_probability, u[0], x) for x in psi
        ]

    @pytest.mark.parametrize("fn, args, message", [
        (evolve_matrix, ([2.0, 0.0], np.array(pauli(3)), 1.0), "state must be normalized"),
        (evolve_matrix, ([1.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),
         "Hamiltonian must be Hermitian"),
        (expectation_matrix, (np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0]),
         "observable must be Hermitian"),
        (expectation_matrix, (np.array(pauli(3)), [2.0, 0.0]), "state must be normalized"),
        (probability_matrix, ([2.0, 0.0], [1.0, 0.0]), "states must be normalized"),
        (probability_matrix, ([1.0, 0.0], [1.0, 1.0]), "states must be normalized"),
    ])
    def test_single_rejects_where_a_stack_gives_nan(self, fn, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(*args)
        stacked = [np.asarray(args[0])[None], *args[1:]]
        assert np.isnan(fn(*stacked)).all()

    def test_imaginary_residue(self):
        # Hermitian to 9e-13, within HERMITIAN_TOL, but <psi|H|psi> keeps an
        # imaginary part of 4.5e-13, above 1e-13
        h = np.array([[0.0, 1.0 + 9e-13j], [1.0, 0.0]])
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        with pytest.raises(ArithmeticError, match="imaginary residue 4.500e-13"):
            expectation_matrix(h, psi)
        assert np.isnan(expectation_matrix(h[None], psi)).all()
        assert np.isnan(expectation_matrix(h, psi[None])).all()

    @pytest.mark.parametrize("fn, args, message", [
        (unrep, (np.eye(3),), r"expected a 2x2 matrix, got shape \(3, 3\)"),
        (eigen_hermitian, (np.eye(3),), r"expected a 2x2 matrix, got shape \(3, 3\)"),
        (mat_exp, (np.zeros((3, 3)),),
         r"expected a 2x2 matrix or a stack of them, got shape \(3, 3\)"),
        (evolve_matrix, ([1.0, 0.0], np.zeros((1, 1, 2, 2)), 1.0),
         r"expected a 2x2 matrix or a stack of them, got shape \(1, 1, 2, 2\)"),
        (evolve_matrix, ([1.0, 0.0, 0.0], np.array(pauli(3)), 1.0),
         r"expected a 2-component state or a stack of them, got shape \(3,\)"),
        (expectation_matrix, (np.array(pauli(3)), [[[1.0, 0.0]]]),
         r"expected a 2-component state or a stack of them, got shape \(1, 1, 2\)"),
        (probability_matrix, ([1.0, 0.0], 1.0),
         r"expected a 2-component state or a stack of them, got shape \(\)"),
    ])
    def test_shape_rejections(self, fn, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(*args)

    def test_empty_stacks(self):
        assert mat_exp(np.zeros((0, 2, 2))).shape == (0, 2, 2)
        assert evolve_matrix([1.0, 0.0], np.array(pauli(3)), []).shape == (0, 2)
        assert expectation_matrix(np.zeros((0, 2, 2)), [1.0, 0.0]).shape == (0,)
        assert probability_matrix(np.zeros((0, 2)), [1.0, 0.0]).shape == (0,)

    def test_is_hermitian_rows(self):
        stack = np.array([pauli(1), [[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 0.0]]])
        assert is_hermitian(stack).tolist() == [True, False, False]
        assert is_hermitian(stack[0]) is True

    def test_rep_rows(self):
        rng = np.random.default_rng(53)
        rows = rng.uniform(-10.0, 10.0, (20, 8))
        assert stacked_outcome(rep, rows) == [hexes(rep(Multivector(r))) for r in rows]

    @pytest.mark.parametrize("shape", [(8,), (1, 8), (7, 8), (0, 8), (3, 5, 8)])
    def test_rep_row_shapes(self, shape):
        rows = np.random.default_rng(59).uniform(-10.0, 10.0, shape)
        out = rep(rows)
        assert out.shape == shape[:-1] + (2, 2)
        for row, m in zip(rows.reshape(-1, 8), out.reshape(-1, 2, 2)):
            assert np.array_equal(m, rep(Multivector(row)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0]),
        signed(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))),
        min_size=8, max_size=8), min_size=1, max_size=6))
    def test_rep_rows_over_the_range(self, rows):
        # values, not bits: each entry of rep on rows is a sum over all eight
        # blades, the zero products of the six that do not reach it included,
        # so where the entry is zero its sign can differ from _rep_entries',
        # which adds only the two that do (np.tensordot's sums did the same)
        out = rep(np.array(rows))
        assert all(np.array_equal(m, rep(Multivector(row))) for row, m in zip(rows, out))

    def test_rep_rows_and_unrep_ignore_the_images_zero_signs(self):
        # the blade images as products of Pauli matrices carry negative
        # zeros (pauli(2)[0, 1] was -0.0 - 1j) that rep's unit rows do not;
        # neither rep on rows nor unrep lets the sign of a zero through
        s0 = np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0]])
        s1 = np.array([[0.0 + 0.0j, 1.0], [1.0, 0.0]])
        s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        s3 = np.array([[1.0 + 0.0j, 0.0], [0.0, -1.0]])
        products = np.stack([s0, s1, s2, s3, s2 @ s3, s3 @ s1, s1 @ s2, s1 @ s2 @ s3])
        rows = np.array(list(itertools.product([0.0, -0.0, 1.5, -2.0], repeat=8)))
        assert stacked_outcome(rep, rows) == stacked_outcome(
            lambda r: np.tensordot(r, products, axes=1), rows)
        for m in rep(rows[::97]):
            z = [np.trace(s @ m) / 2.0 for s in products[:4]]
            expected = [*(w.real for w in z), *(w.imag for w in z[1:]), z[0].imag]
            assert hexes(unrep(m).coeffs) == hexes(np.array(expected))
