import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatss import algebra, matrixqm
from gp_reference import TABLE as REFERENCE_TABLE
from gp_reference import reference_gp, reference_gp_rows
from per_row_oracle import reference_rotor_deviation
from gatss.algebra import (
    BLADE_NAMES,
    E1,
    E2,
    E3,
    E12,
    E23,
    E31,
    E123,
    ONE,
    UNIT_TOL,
    ZERO,
    Multivector,
    Rotor,
    _NOT_FINITE,
    _NOT_UNIT,
    _exp_bivector_rows,
    _gp_rows,
    _norm3,
    _norm3_rows,
    _row_arrays,
    _unit_defect,
    commutator,
    exp_bivector,
    gp,
    grade,
    hodge_dual,
    norm,
    reverse,
    rotor_axis_angle,
    sandwich,
    vector,
    wedge,
)

MAX = sys.float_info.max
BASIS_VECTORS = (E1, E2, E3)
ALL_BLADES = (ONE, E1, E2, E3, E23, E31, E12, E123)

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0

finite_coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)
mv_strategy = st.lists(finite_coeff, min_size=8, max_size=8).map(Multivector)


def random_mv(rng, span=10.0):
    return Multivector(rng.uniform(-span, span, 8))


def random_unit_axis(rng):
    v = rng.uniform(-1.0, 1.0, 3)
    while np.linalg.norm(v) < 1e-3:
        v = rng.uniform(-1.0, 1.0, 3)
    v = v / np.linalg.norm(v)
    return vector(*v)


def random_rotor(rng):
    return rotor_axis_angle(random_unit_axis(rng), rng.uniform(0.0, 2.0 * math.pi))


class TestProductTable:
    def test_generator_relations_exact(self):
        # e_l e_m = delta_lm + eps_lmn e123 e_n, with no roundoff at all
        for l in range(3):
            for m in range(3):
                got = gp(BASIS_VECTORS[l], BASIS_VECTORS[m])
                expected = np.zeros(8)
                if l == m:
                    expected[0] = 1.0
                for n in range(3):
                    if EPS[l, m, n] != 0.0:
                        expected += EPS[l, m, n] * hodge_dual(BASIS_VECTORS[n]).coeffs
                assert np.array_equal(got.coeffs, expected)

    def test_commutator_identity_exact(self):
        for l in range(3):
            for m in range(3):
                got = commutator(BASIS_VECTORS[l], BASIS_VECTORS[m])
                expected = np.zeros(8)
                for n in range(3):
                    expected += 2.0 * EPS[l, m, n] * hodge_dual(BASIS_VECTORS[n]).coeffs
                assert np.array_equal(got.coeffs, expected)

    def test_canonical_blade_products(self):
        assert gp(E2, E3) == E23
        assert gp(E3, E1) == E31
        assert gp(E1, E2) == E12
        assert gp(E1, E3) == -E31
        assert gp(E123, E123) == -ONE

    def test_annihilating_product(self):
        assert gp(ONE + E1, ONE - E1) == ZERO

    def test_pseudoscalar_is_central_exact(self):
        rng = np.random.default_rng(7)
        for b in ALL_BLADES:
            assert gp(E123, b) == gp(b, E123)
        for _ in range(100):
            a = random_mv(rng)
            assert gp(E123, a) == gp(a, E123)

    def test_gp_matches_matrix_oracle(self):
        # differential check against the independent 2x2 representation
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_mv(rng), random_mv(rng)
            via_matrix = matrixqm.unrep(matrixqm.rep(a) @ matrixqm.rep(b))
            assert gp(a, b).allclose(via_matrix, 1e-11)


class TestGradeAddScale:
    def test_grade_partition(self):
        rng = np.random.default_rng(3)
        a = random_mv(rng)
        total = np.zeros(8)
        for k in range(4):
            total = total + grade(a, k).coeffs
        assert np.array_equal(total, a.coeffs)

    def test_grade_selects_expected_indices(self):
        a = Multivector([1, 2, 3, 4, 5, 6, 7, 8])
        assert grade(a, 0).coeffs.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert grade(a, 1).coeffs.tolist() == [0, 2, 3, 4, 0, 0, 0, 0]
        assert grade(a, 2).coeffs.tolist() == [0, 0, 0, 0, 5, 6, 7, 0]
        assert grade(a, 3).coeffs.tolist() == [0, 0, 0, 0, 0, 0, 0, 8]

    def test_grade_rejects_bad_index(self):
        with pytest.raises(ValueError):
            grade(ONE, 4)
        with pytest.raises(ValueError):
            grade(ONE, -1)

    def test_add_and_scale(self):
        a = Multivector([1, 2, 3, 4, 5, 6, 7, 8])
        b = Multivector([8, 7, 6, 5, 4, 3, 2, 1])
        assert (a + b).coeffs.tolist() == [9.0] * 8
        assert (a * -2.0).coeffs.tolist() == [-2, -4, -6, -8, -10, -12, -14, -16]


class TestReversion:
    @settings(max_examples=80, deadline=None)
    @given(mv_strategy)
    def test_involution(self, a):
        assert reverse(reverse(a)) == a

    def test_sign_pattern(self):
        assert reverse(E1) == E1
        assert reverse(E12) == -E12
        assert reverse(E123) == -E123

    @settings(max_examples=80, deadline=None)
    @given(mv_strategy, mv_strategy)
    def test_anti_automorphism(self, a, b):
        lhs = reverse(gp(a, b))
        rhs = gp(reverse(b), reverse(a))
        tol = 1e-12 * max(1.0, norm(a) * norm(b))
        assert lhs.allclose(rhs, tol)


class TestHodgeDual:
    def test_blade_images(self):
        assert hodge_dual(ONE) == E123
        assert hodge_dual(E1) == E23
        assert hodge_dual(E2) == E31
        assert hodge_dual(E3) == E12
        assert hodge_dual(E123) == -ONE

    def test_double_dual_negates_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_mv(rng)
            assert hodge_dual(hodge_dual(a)) == -a


class TestNorm:
    def test_examples(self):
        assert norm(ONE + E1) == math.sqrt(2.0)
        assert norm(ZERO) == 0.0

    def test_invariant_under_rotor_products(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = random_rotor(rng)
            a = random_mv(rng)
            assert abs(norm(gp(r.mv, a)) - norm(a)) <= 1e-12 * max(1.0, norm(a))


class TestAssociativity:
    @settings(max_examples=80, deadline=None)
    @given(mv_strategy, mv_strategy, mv_strategy)
    def test_triple_products(self, a, b, c):
        lhs = gp(gp(a, b), c)
        rhs = gp(a, gp(b, c))
        tol = 1e-12 * max(1.0, norm(a) * norm(b) * norm(c))
        assert lhs.allclose(rhs, tol)


class TestExpBivector:
    def test_zero_gives_identity_exactly(self):
        assert exp_bivector(ZERO).mv == ONE

    def test_rejects_non_bivector(self):
        with pytest.raises(ValueError):
            exp_bivector(E1)
        with pytest.raises(ValueError):
            exp_bivector(ONE + E12)

    def test_unit_axis_example(self):
        # exp of -(e123 n)(pi/3) with n = (1,1,1)/sqrt(3): scalar cos(pi/3),
        # bivector -(sin(pi/3)/sqrt(3)) per component
        s3 = math.sqrt(3.0)
        b = hodge_dual(vector(1 / s3, 1 / s3, 1 / s3)) * (-math.pi / 3.0)
        r = exp_bivector(b)
        expected = [0.5, 0, 0, 0, -math.sin(math.pi / 3) / s3,
                    -math.sin(math.pi / 3) / s3, -math.sin(math.pi / 3) / s3, 0]
        assert np.allclose(r.mv.coeffs, expected, atol=1e-15, rtol=0)

    def test_matches_matrix_exponential(self):
        # independent route: exponentiate the blade image in the 2x2 rep
        rng = np.random.default_rng(23)
        for _ in range(50):
            b = Multivector([0, 0, 0, 0, *rng.uniform(-3, 3, 3), 0])
            via_matrix = matrixqm.unrep(matrixqm.mat_exp(matrixqm.rep(b)))
            assert exp_bivector(b).mv.allclose(via_matrix, 1e-12)

    def test_series_branch_is_continuous(self):
        for mag in (1e-9, 9.9e-9, 1.01e-8, 1e-7):
            b = E12 * mag
            got = exp_bivector(b).mv.coeffs
            expected = np.zeros(8)
            expected[0] = math.cos(mag)
            expected[6] = math.sin(mag)
            assert np.max(np.abs(got - expected)) < 1e-16

    def test_small_angle_series_path(self):
        b = E23 * 1e-10
        r = exp_bivector(b)
        assert r.mv[0] == 1.0 - 0.5e-20
        assert abs(r.mv[4] - 1e-10) < 1e-25


    def test_overflowing_magnitude(self):
        # only |B| itself overflows, though every coefficient is finite
        with pytest.raises(ValueError, match=r"bivector magnitude \|B\| overflows: "
                           r"exp_bivector needs it below about 1\.8e308"):
            exp_bivector(Multivector([0, 0, 0, 0, 1.5e308, 0, -1.5e308, 0]))
        # |B|^2 overflowing is no limit, and a rotation by any finite angle
        # has |B| = |alpha| / 2
        for r in (exp_bivector(E12 * 1e155), exp_bivector(E31 * 1.7e308),
                  rotor_axis_angle(E3, 1e300), rotor_axis_angle(E1, -sys.float_info.max)):
            assert norm(gp(r.mv, reverse(r.mv)) - ONE) <= 1e-15


# Coefficients with exact and signed zeros, where the product's zero signs
# are decided, and wide magnitudes.
row_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False, width=64),
)

# Bivector components over the whole finite range: magnitudes log-uniform
# in [1e-300, 1e308] with signs, signed zeros and subnormals.
full_range_coeff = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.tuples(st.floats(-300.0, 308.0), st.sampled_from([1.0, -1.0])).map(
        lambda m: m[1] * 10.0 ** m[0]
    ),
)


def row_block(n):
    return st.lists(st.lists(row_coeff, min_size=8, max_size=8), min_size=n, max_size=n).map(
        np.array
    )


block_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(row_block(n), row_block(n)))


def hex_rows(block):
    return [[x.hex() for x in row] for row in np.asarray(block).reshape(-1, 8).tolist()]


def hex_values(block):
    return [x.hex() for x in np.asarray(block).ravel().tolist()]


class TestRowKernels:
    @settings(max_examples=150, deadline=None)
    @given(block_pairs)
    def test_row_product_is_gp_bit_for_bit(self, pair):
        a, b = pair
        expected = [gp(Multivector(x), Multivector(y)).coeffs for x, y in zip(a, b)]
        assert hex_rows(_gp_rows(a, b)) == hex_rows(expected)
        # a single row on either side stands for every row
        assert hex_rows(_gp_rows(a[0], b)) == hex_rows(
            [gp(Multivector(a[0]), Multivector(y)).coeffs for y in b])
        assert hex_rows(_gp_rows(a, b[0])) == hex_rows(
            [gp(Multivector(x), Multivector(b[0])).coeffs for x in a])

    def test_row_product_zero_signs(self):
        # both products start each blade from +0.0, so neither returns -0.0
        # even where all eight terms are -0.0
        rng = np.random.default_rng(11)
        a = np.where(rng.random((400, 8)) < 0.5, -0.0, 0.0)
        b = np.where(rng.random((400, 8)) < 0.5, -0.0, 0.0)
        expected = [gp(Multivector(x), Multivector(y)).coeffs for x, y in zip(a, b)]
        assert hex_rows(_gp_rows(a, b)) == hex_rows(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(row_coeff, full_range_coeff)] * 3), min_size=1, max_size=6))
    @example([(1.5e308, 0.0, -1.5e308), (1e155, 1e155, 1e155), (1e-200, -1e-200, 5e-324)])
    @example([(1e308, 1e308, 1e308), (sys.float_info.max, 0.0, -0.0), (0.0, -0.0, 0.0)])
    def test_row_exponential_is_exp_bivector_bit_for_bit(self, bivectors):
        # over the whole finite range: only a row whose |B| overflows raises
        c = np.zeros((len(bivectors), 8))
        c[:, 4:7] = bivectors
        with np.errstate(all="ignore"):
            rotors, dev = _exp_bivector_rows(c)
        for i, row in enumerate(c):
            if _norm3(*row[4:7].tolist()) == math.inf:
                with pytest.raises(ValueError, match=r"bivector magnitude \|B\| overflows"):
                    exp_bivector(Multivector(row))
                assert np.isnan(rotors[i]).all()
                continue
            assert hex_rows(rotors[i]) == hex_rows(exp_bivector(Multivector(row)).mv.coeffs)
            # the deviation Rotor measures on that row, by the same expression
            assert dev[i].hex() == _unit_defect(*rotors[i, [0, 4, 5, 6]].tolist())[1].hex()
            assert dev[i] <= UNIT_TOL


class TestNorm3Rows:
    # ±0.0, subnormals, the largest double, and rows whose sum of squares
    # overflows or underflows, over the whole finite range
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(
        full_range_coeff, st.sampled_from([5e-324, -5e-324, MAX, -MAX]))] * 3),
        min_size=1, max_size=8))
    @example([(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (5e-324, 0.0, -5e-324)])
    @example([(MAX, MAX, MAX), (-MAX, 0.0, 0.0), (1e154, 1e154, 1e154), (1e-200, 0.0, 0.0)])
    @example([(1.0, -2.0, 0.5), (0.0, -0.0, 0.0), (3e-5, 0.0, -7.0), (-0.0, -0.0, -0.0)])
    def test_rows_are_norm3_bit_for_bit(self, rows):
        b = np.array(rows)
        expected = [_norm3(*row).hex() for row in rows]
        assert [x.hex() for x in _norm3_rows(b).tolist()] == expected
        # one row of shape (3,) gives a 0-d array
        single = _norm3_rows(b[0])
        assert single.shape == () and float(single).hex() == expected[0]


def edge_block(rng, shape):
    """Coefficients at magnitudes from 1e-5 to 1e5, a fifth of them signed
    zeros, subnormals, infinities, NaN or magnitudes whose products
    overflow or underflow."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    special = rng.random(shape) < 0.2
    x[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             math.inf, -math.inf, math.nan, 1e200, -1e200, 1e-200],
                            size=int(special.sum()))
    return x


class TestRowProductAtScale:
    """_gp_rows against the eight-step loop it replaced
    (tests/gp_reference.py), by float.hex, at the row counts the row
    kernels run (one time or draw, a conformance call of 75 draws, an
    evolve call of 100 rows, full blocks and more) and on every layout
    their callers pass, for the full product and for each blade selection
    a caller makes, and for a lone blade and a multi-blade selection of
    every grade.  A lone blade would leave numpy a reduction along a
    contiguous term axis, which it adds pairwise; `_gp_rows` gathers it
    twice, so its term axis has stride 2 as a pair's does."""

    @staticmethod
    def layouts(rows):
        rng = np.random.default_rng(rows)
        pairs = edge_block(rng, (rows, 2, 8))
        a, b = pairs[:, 0], pairs[:, 1]  # strided views, as the suites pass
        stack_a, stack_b = edge_block(rng, (3, rows, 8)), edge_block(rng, (3, rows, 8))
        return [
            (a, b),
            (a[0], b),  # a single row on either side stands for every row
            (a, b[0]),
            (a[0], b[0]),
            (np.ascontiguousarray(a), np.ascontiguousarray(b)),
            (np.asfortranarray(a), np.asfortranarray(b)),
            (stack_a, stack_b),
            (stack_a, b),
            (a[0], stack_b),
        ]

    @pytest.mark.parametrize("rows", [1, 2, 75, 100, 512, 1000])
    def test_row_product_is_the_loop(self, rows):
        with np.errstate(all="ignore"):
            for x, y in self.layouts(rows):
                got, expected = _gp_rows(x, y), reference_gp_rows(x, y)
                assert got.shape == expected.shape
                assert hex_rows(got) == hex_rows(expected)

    @pytest.mark.parametrize("blades", [(0,), (0, 7), (1, 2, 3), tuple(range(8)), (7,), (4, 5, 6)])
    @pytest.mark.parametrize("rows", [1, 2, 75, 100, 256, 512, 1000])
    def test_selection_is_the_loops_blades(self, rows, blades):
        with np.errstate(all="ignore"):
            for x, y in self.layouts(rows):
                got, expected = _gp_rows(x, y, blades), reference_gp_rows(x, y)[..., blades]
                assert got.shape == expected.shape
                assert hex_values(got) == hex_values(expected)

    def test_one_value_adds_its_terms_in_order(self):
        # finite rows at magnitudes from 1e-5 to 1e5, where the pairwise
        # sum and the loop often round apart
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(2, 100, 8)) * 10.0 ** rng.integers(-5, 6, size=(2, 100, 8))
        for a, b in zip(x, y):
            expected = reference_gp_rows(a, b)
            for k in range(8):
                assert hex_values(_gp_rows(a, b, (k,))) == hex_values(expected[k:k + 1])
                assert hex_values(_gp_rows(a[None], b, (k,))) == hex_values(expected[k:k + 1])

    def test_a_selection_reads_the_term_list(self, monkeypatch):
        # with any one of the 64 signs flipped, every selection is still
        # its blades of the full product, and the flipped term's blade moves
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 100, 8))
        left, right, sign, reversion = _row_arrays()
        clean = _gp_rows(a, b)
        for term in range(64):
            flipped = sign.copy()
            flipped[term] = -flipped[term]
            monkeypatch.setattr(algebra, "_row_arrays", lambda: (left, right, flipped, reversion))
            full = _gp_rows(a, b)
            for blades in [(0,), (0, 7), (1, 2, 3)]:
                got = _gp_rows(a, b, blades)
                assert hex_values(got) == hex_values(full[..., blades])
                moved = (got != clean[..., blades]).any(axis=0)
                assert moved.tolist() == [term % 8 == k for k in blades]


# Signed zeros, subnormals, values near the edges of the normal range, and
# magnitudes whose products overflow.
edge_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(-1e-300, 1e-300, allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
edge_row = st.lists(edge_coeff, min_size=8, max_size=8)


class TestOneProduct:
    """gp and _gp_rows both read the term list; the einsum they replaced
    (tests/gp_reference.py) pins their bits."""

    @settings(max_examples=400, deadline=None)
    @given(edge_row, edge_row)
    def test_gp_is_the_einsum_and_the_row_kernel(self, a, b):
        with np.errstate(all="ignore"):
            expected = reference_gp(np.array(a), np.array(b))
            rows = _gp_rows(np.array([a]), np.array([b]))
        if np.isfinite(expected).all():
            assert hex_rows(gp(Multivector(a), Multivector(b)).coeffs) == hex_rows(expected)
            assert hex_rows(rows) == hex_rows(expected)
        else:
            with pytest.raises(ValueError, match="^multivector coefficients must be finite$"):
                gp(Multivector(a), Multivector(b))
            assert not np.isfinite(rows).all()

    def test_reference_table_is_the_term_list(self):
        # the arrays _gp_rows reads, not the lists they are made from
        left, right, sign, _ = _row_arrays()
        table = np.zeros((8, 8, 8))
        for e in range(64):
            table[left[e], right[e], e % 8] = sign[e]
        assert np.array_equal(table, REFERENCE_TABLE)


class TestSignedZeros:
    def test_scalar_add_clears_negative_zeros(self):
        # a scalar adds +0.0 to the other seven blades
        a = Multivector((-0.0,) * 8)
        assert hex_rows((a + 0.0).coeffs) == hex_rows([0.0] * 8)
        assert hex_rows((1.0 + a).coeffs) == hex_rows([1.0] + [0.0] * 7)
        assert hex_rows((a - 0.0).coeffs) == hex_rows([-0.0] + [0.0] * 7)

    def test_reverse_negates_grades_two_and_three(self):
        a = Multivector((0.0, -0.0) * 4)
        assert hex_rows(reverse(a).coeffs) == hex_rows([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0])


class TestNoFloatingPointWarnings:
    """Out of range results raise ValueError, never a numpy warning or
    ZeroDivisionError."""

    @pytest.mark.parametrize("op", [
        lambda: gp(Multivector([1e200] * 8), Multivector([1e200] * 8)),
        lambda: Multivector([1e300] * 8) * 1e10,
        lambda: 1e10 * Multivector([1e300] * 8),
        lambda: E1 / 0.0,
        lambda: ZERO / -0.0,
        lambda: 1e308 - Multivector([-1e308, 0, 0, 0, 0, 0, 0, 0]),
        lambda: Multivector([1e308] * 8) + Multivector([1e308] * 8),
        lambda: -Multivector([1e308] * 8) - Multivector([1e308] * 8),
    ], ids=["gp", "mul", "rmul", "div", "div-zero", "rsub", "add", "sub"])
    def test_overflow_raises_value_error(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^multivector coefficients must be finite$"):
                op()

    def test_norm_overflows_to_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(Multivector([1e300] * 8)) == math.inf
            with pytest.raises(ValueError, match=r"rotor must have unit norm, .* = inf"):
                Rotor(Multivector([1e150, 0, 0, 0, 0, 0, 0, 0]))


@st.composite
def even_coeffs(draw):
    """(w, a, b, c) of an even R = w + a e23 + b e31 + c e12: magnitudes
    log-uniform in [1e-300, 1e300] with signs and signed zeros, or a
    direction scaled to between 1e-17 and 1e-3 off unit norm."""
    if draw(st.booleans()):
        wide = st.one_of(st.sampled_from([0.0, -0.0]), st.tuples(
            st.floats(-300.0, 300.0), st.sampled_from([1.0, -1.0])).map(lambda m: m[1] * 10.0 ** m[0]))
        return draw(st.lists(wide, min_size=4, max_size=4))
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(any))
    off = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-17.0, -3.0))
    return [x / math.hypot(*v) * (1.0 + off) for x in v]


class TestRotorType:
    @settings(max_examples=300, deadline=None)
    @given(even_coeffs())
    @example([1e150, 0.0, 0.0, 0.0])  # finite excess, its square inf
    @example([1e154, 1e154, -0.0, 0.0])  # the sum of squares overflows
    @example([0.6, 1e-10, -0.8, 1e-10])  # residue in e31 and e12, within tolerance
    @example([1.0 + 2e-9, 0.0, -0.0, 0.0])
    @example([1.0 + 5e-10, 0.0, 0.0, 0.0])
    def test_closed_form_unit_check_matches_full_product(self, wabc):
        # the closed form drops the full product's rounding residue, which
        # can decide nothing unless the deviation sits on the tolerance
        row = [wabc[0], 0.0, 0.0, 0.0, *wabc[1:], 0.0]
        try:
            old = reference_rotor_deviation(row)
        except ValueError as exc:
            assert str(exc) == _NOT_FINITE
            with pytest.raises(ValueError, match=f"^{_NOT_FINITE}$"):
                Rotor(Multivector(row))
            return
        try:
            Rotor(Multivector(row))
            outcome = None
        except ValueError as exc:
            outcome = str(exc)
        assert outcome != _NOT_FINITE
        if abs(old - UNIT_TOL) > 1e-12 * UNIT_TOL:
            assert outcome == (_NOT_UNIT.format(dev=old) if old > UNIT_TOL else None)

    def test_rejects_odd_grades(self):
        with pytest.raises(ValueError):
            Rotor(E1)
        with pytest.raises(ValueError):
            Rotor(ONE + E123 * 1e-3)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Rotor(ONE * 2.0)
        with pytest.raises(ValueError):
            Rotor(Multivector([1.0 + 1e-6, 0, 0, 0, 0, 0, 0, 0]))

    def test_accepts_within_tolerance(self):
        Rotor(Multivector([1.0 + 1e-10, 0, 0, 0, 0, 0, 0, 0]))

    def test_group_closure(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            r = random_rotor(rng) * random_rotor(rng)
            c = r.mv.coeffs
            assert c[1] == 0.0 and c[2] == 0.0 and c[3] == 0.0 and c[7] == 0.0
            assert abs(norm(r.mv) - 1.0) <= 1e-12

    def test_reverse_is_inverse(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            r = random_rotor(rng)
            assert gp(r.mv, r.reverse().mv).allclose(ONE, 1e-14)


class TestSandwich:
    def test_quarter_turn(self):
        r = rotor_axis_angle(E3, math.pi / 2.0)
        assert sandwich(r, E1).allclose(E2, 1e-15)

    def test_identity_rotor(self):
        rng = np.random.default_rng(41)
        a = random_mv(rng)
        assert sandwich(Rotor.identity(), a) == a

    def test_preserves_vector_grade_and_norm(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            r = random_rotor(rng)
            v = vector(*rng.uniform(-10, 10, 3))
            out = sandwich(r, v)
            c = out.coeffs
            tol = 1e-12 * max(1.0, norm(v))
            for idx in (0, 4, 5, 6, 7):
                assert abs(c[idx]) <= tol
            assert abs(norm(out) - norm(v)) <= tol

    def test_reverse_orientation_undoes(self):
        rng = np.random.default_rng(47)
        r = random_rotor(rng)
        v = vector(1.0, -2.0, 0.5)
        assert sandwich(r.reverse(), sandwich(r, v)).allclose(v, 1e-13)


class TestRotorAxisAngle:
    def test_zero_angle_is_identity(self):
        assert rotor_axis_angle(E3, 0.0).mv == ONE

    def test_full_turn_is_minus_one(self):
        n = random_unit_axis(np.random.default_rng(53))
        r = rotor_axis_angle(n, 2.0 * math.pi)
        assert r.mv.allclose(-ONE, 1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            rotor_axis_angle(E3 * 2.0, 1.0)

    def test_rejects_non_vector_axis(self):
        with pytest.raises(ValueError):
            rotor_axis_angle(E12, 1.0)
        with pytest.raises(ValueError):
            rotor_axis_angle(ONE, 1.0)

    def test_counterclockwise_in_dual_plane(self):
        # small positive angle about e3 pushes e1 toward +e2
        r = rotor_axis_angle(E3, 0.1)
        out = sandwich(r, E1)
        assert out[2] > 0.0
        assert out.allclose(vector(math.cos(0.1), math.sin(0.1), 0.0), 1e-15)


class TestWedge:
    def test_vector_wedge_matches_blades(self):
        assert wedge(E1, E2) == E12
        assert wedge(E2, E1) == -E12
        assert wedge(E1, E1) == ZERO

    def test_bivector_factorization_agreement(self):
        # three factorizations of the same oriented plane, pairwise within 1e-15
        s3 = math.sqrt(3.0)
        p1 = wedge(E2 - E1, E3 - E1) * (1 / s3)
        p2 = wedge(E3 - E2, E1 - E2) * (1 / s3)
        p3 = wedge(E1 - E3, E2 - E3) * (1 / s3)
        target = hodge_dual(vector(1 / s3, 1 / s3, 1 / s3))
        for p in (p1, p2, p3):
            assert p.allclose(target, 1e-15)
        assert p1.allclose(p2, 1e-15) and p2.allclose(p3, 1e-15)


class TestMultivectorType:
    def test_rejects_non_finite(self):
        for kind in (list, tuple, np.array):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="^multivector coefficients must be finite$"):
                    Multivector(kind([bad, 0, 0, 0, 0, 0, 0, 0]))

    def test_rejects_wrong_length(self):
        for kind in (list, tuple, np.array):
            with pytest.raises(ValueError, match=r"^expected 8 blade coefficients, got shape \(2,\)$"):
                Multivector(kind([1.0, 2.0]))
            with pytest.raises(ValueError, match=r"^expected 8 blade coefficients, got shape \(8, 2\)$"):
                Multivector(kind([(1.0, 2.0)] * 8))

    def test_coefficients_are_read_only(self):
        for kind in (list, tuple, np.array):
            a = Multivector(kind([1, 2, 3, 4, 5, 6, 7, 8]))
            c = a.coeffs
            assert c.dtype == np.float64 and c.shape == (8,)
            assert c.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
            assert all(type(x) is float for x in a.to_json())
            with pytest.raises(ValueError):
                c[0] = 9.0
            # a fresh array on each access
            assert a.coeffs is not c

    def test_index_reads_one_float(self):
        for kind in (list, tuple, np.array):
            m = Multivector(kind([1, -2, 3.5, -0.0, 0.25, -6, 7, 8]))
            for idx, value in ((3, -0.0), (-1, 8.0), (np.int64(2), 3.5)):
                assert type(m[idx]) is float and m[idx].hex() == value.hex()
            with pytest.raises(IndexError):
                m[8]

    def test_json_round_trip(self):
        a = Multivector([1, -2, 3.5, 0, 0.25, -6, 7, 8])
        blob = json.dumps(a.to_json())
        assert Multivector(json.loads(blob)) == a
        assert len(a.to_json()) == 8

    def test_text_rendering(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(Multivector([1, 2, 0, 0, -0.5, 0, 0, 0])) == "1 + 2 e1 - 0.5 e23"
        assert str(-E123) == "-1 e123"
        assert len(BLADE_NAMES) == 8

    def test_repr(self):
        assert repr(Multivector([1, -2, 0, 0, 0.25, 0, 0, -0.0])) == (
            "Multivector([1.0, -2.0, 0.0, 0.0, 0.25, 0.0, 0.0, -0.0])")

    @pytest.mark.parametrize("operation", [
        lambda: E1 + "x", lambda: "x" + E1, lambda: E1 - "x", lambda: "x" - E1,
        lambda: E1 * "x", lambda: "x" * E1, lambda: E1 / "x", lambda: Rotor.identity() * E1,
    ], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rotor-mul"])
    def test_foreign_operands_raise_type_error(self, operation):
        # each operator hands an operand it does not know back to Python
        with pytest.raises(TypeError):
            operation()

    def test_equal_only_to_multivectors(self):
        assert (E1 == 1.0) is False and E1 != [0, 1, 0, 0, 0, 0, 0, 0]
        assert (ONE == 1.0) is False and (Rotor.identity() == ONE) is False

    def test_operator_sugar_matches_functions(self):
        rng = np.random.default_rng(67)
        a, b = random_mv(rng), random_mv(rng)
        assert a * b == gp(a, b)
        assert (a + b).coeffs.tolist() == (a.coeffs + b.coeffs).tolist()
        assert (a - b).coeffs.tolist() == (a.coeffs - b.coeffs).tolist()
        assert (a * 2.5).coeffs.tolist() == (2.5 * a.coeffs).tolist()
        assert 2.5 * a == a * 2.5
