import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gatss import algebra, matrixqm, spinor, twostate
from gatss.cli import main
from gatss.conformance import SuiteResult, suite_rabi_triangle
from gatss.algebra import (
    E1,
    E2,
    E3,
    E12,
    E123,
    ONE,
    Multivector,
    Rotor,
    _norm3,
    _unit_defect,
    commutator,
    gp,
    hodge_dual,
    norm,
    reverse,
    rotor_axis_angle,
    sandwich,
    vector,
)
from gatss.spinor import NORM_TOL, basis_eps, from_amplitudes, inner, left_mul, to_amplitudes
from per_row_oracle import hexes, reference_eigensystem, reference_polar_state
from test_conformance import check_fields
from gatss.twostate import (
    EigenSystem,
    FieldConfig,
    Hamiltonian,
    eigensystem,
    evolution_rotor,
    evolve,
    expectation,
    hamiltonian_from_field,
    polar_angles,
    polar_state,
    probability,
    rabi_probability,
    spin_vectors,
    _BLOCK_ROWS,
    _coupling_rows,
    time_grid,
    trajectory,
    u_vector_closed_form,
)

EPS_PLUS, EPS_MINUS = basis_eps()

# the worked example used throughout: H = e1 + e3
H_EXAMPLE = Hamiltonian(0.0, (1.0, 0.0, 1.0))
COS_PI_8 = math.cos(math.pi / 8)
SIN_PI_8 = math.sin(math.pi / 8)


def random_field(rng, span=5.0):
    b = rng.uniform(-span, span, 3)
    while np.linalg.norm(b) < 1e-6:
        b = rng.uniform(-span, span, 3)
    return FieldConfig(B=tuple(b))


def random_hamiltonian(rng, span=5.0, with_scalar=True):
    h0 = rng.uniform(-span, span) if with_scalar else 0.0
    return Hamiltonian(h0, tuple(rng.uniform(-span, span, 3)))


class TestHamiltonianType:
    def test_fields_and_norm(self):
        h = Hamiltonian(2, (3, 0, 4))
        assert h.h0 == 2.0 and h.h == (3.0, 0.0, 4.0)
        assert h.r_norm == 5.0
        assert h.vector_part().coeffs.tolist() == [0, 3, 0, 4, 0, 0, 0, 0]
        assert h.as_multivector().coeffs.tolist() == [2, 3, 0, 4, 0, 0, 0, 0]

    def test_rejections(self):
        with pytest.raises(ValueError):
            Hamiltonian(0.0, (1.0, 2.0))
        with pytest.raises(ValueError):
            Hamiltonian(math.nan, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Hamiltonian(0.0, (math.inf, 0.0, 0.0))

    def test_vector_part_containers(self):
        # lists, tuples and 1-D arrays; str, bytes, sets and mappings would
        # each give three numbers from their characters, bytes or keys
        for v in ([3, 0, 4], (3, 0, 4), np.array([3.0, 0.0, 4.0])):
            assert Hamiltonian(0, v).h == (3.0, 0.0, 4.0)
        for v in ("100", b"100", {1.0, 2.0, 3.0}, {1: 0, 2: 0, 3: 0}, np.zeros((1, 3))):
            with pytest.raises(ValueError, match="^vector part must be a list, tuple or 1-D "):
                Hamiltonian(0, v)
        # numeric text stays a number; a bool, which float takes as 0 or 1, does not
        assert Hamiltonian("1", ("0", 2, "1e3")) == Hamiltonian(1.0, (0.0, 2.0, 1000.0))
        with pytest.raises(ValueError, match=r"^h0 must be a number, got True$"):
            Hamiltonian(True, (0, 1, 0))
        message = r"^vector part component must be a number, got False$"
        with pytest.raises(ValueError, match=message):
            Hamiltonian(0, (0, False, 1))
        # numpy's bools are refused as Python's are
        message = r"^vector part component must be a number, got np\.True_$"
        with pytest.raises(ValueError, match=message):
            Hamiltonian(0, np.array([True, False, True]))
        with pytest.raises(ValueError, match=r"^h0 must be a number, got np\.False_$"):
            Hamiltonian(np.bool_(False), (0, 1, 0))


class TestNorm3:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-1e100, 1e100)] * 3))
    def test_in_range_keeps_the_plain_sum(self, v):
        squares = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        assume(squares >= sys.float_info.min or not any(v))
        assert _norm3(*v).hex() == math.sqrt(squares).hex()

    @pytest.mark.parametrize("v, expected", [
        ((0.0, 1e200, 1e200), 1.414213562373095e200),  # a square overflows
        ((1e154, 1e154, 1e154), 1.7320508075688772e154),  # the sum overflows
        ((1e300, 0.0, 0.0), 1e300),
        ((-1e308, 1e308, 0.0), 1.4142135623730951e308),
        ((0.0, 1e-200, 1e-200), 1.414213562373095e-200),  # the squares underflow
        ((5e-324, 0.0, 0.0), 5e-324),
        ((0.0, -0.0, 0.0), 0.0),
    ])
    def test_out_of_range(self, v, expected):
        assert _norm3(*v) == expected
        assert Hamiltonian(0.0, v).r_norm == expected
        assert FieldConfig(B=v).b_norm == expected

    def test_squares_with_x_times_x(self):
        # x * x is correctly rounded; Python's x ** 2 is C pow, which on
        # glibc 2.36 is not for the third component and gives ...f7p+0
        v = (0.4526609927989247, -0.7759648301892232, -1.4119752588045307)
        assert _norm3(*v).hex() == "0x1.ac6c5c8a9e0f6p+0"


class TestFieldConfig:
    def test_defaults_and_derived(self):
        cfg = FieldConfig(B=(0.0, 3.0, 4.0))
        assert (cfg.q, cfg.m, cfg.hbar) == (1.0, 1.0, 1.0)
        assert cfg.b_norm == 5.0
        assert cfg.omega == 5.0
        assert cfg.omega_axial == 4.0

    def test_scaling(self):
        cfg = FieldConfig(B=(0.0, 0.0, 6.0), q=-2.0, m=4.0, hbar=0.5)
        assert cfg.omega == -3.0
        assert cfg.omega_axial == -3.0

    def test_omega_where_q_b_overflows(self):
        # q |B| = 1e310 overflows, but the frequency is 1e10: omega is the
        # closed forms' angle at t = 1, with its (q / m) |B| fallback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = FieldConfig(B=(0.0, 0.0, 1e10), q=1e300, m=1e300)
            assert cfg.omega == cfg.omega_axial == 1e10
            assert FieldConfig(B=(0.0, 0.0, -1e10), q=1e300, m=1e300).omega_axial == -1e10
            # an infinite frequency stays inf, and nothing raises
            cfg = FieldConfig(B=(0.0, 0.0, 1e10), q=1e300, m=1e-300)
            assert cfg.omega == cfg.omega_axial == math.inf

    def test_rejections(self):
        with pytest.raises(ValueError):
            FieldConfig(B=(1.0, 2.0))
        with pytest.raises(ValueError):
            FieldConfig(B=(0.0, 0.0, math.nan))
        with pytest.raises(ValueError):
            FieldConfig(B=(0.0, 0.0, 1.0), m=0.0)
        with pytest.raises(ValueError):
            FieldConfig(B=(0.0, 0.0, 1.0), hbar=-1.0)

    def test_field_containers(self):
        for b in ([1, 2, 3], (1, 2, 3), np.array([1.0, 2.0, 3.0])):
            assert FieldConfig(B=b).B == (1.0, 2.0, 3.0)
        for b in ("123", b"123", {1.0, 2.0, 3.0}, {1: 0, 2: 0, 3: 0}, iter((1, 2, 3))):
            with pytest.raises(ValueError, match="^field must be a list, tuple or 1-D array, "):
                FieldConfig(B=b)
        # numeric text stays a number; a bool, which float takes as 0 or 1, does not
        assert FieldConfig(B=[1, "2", 3], q="2") == FieldConfig(B=(1.0, 2.0, 3.0), q=2.0)
        with pytest.raises(ValueError, match=r"^field component must be a number, got True$"):
            FieldConfig(B=[True, "2", 3])
        for name in ("q", "m", "hbar"):
            with pytest.raises(ValueError, match=rf"^{name} must be a number, got True$"):
                FieldConfig(B=(1, 2, 3), **{name: True})
        # numpy's bools are refused as Python's are
        with pytest.raises(ValueError, match=r"^field component must be a number, got np\.True_$"):
            FieldConfig(B=np.array([True, False, True]))
        for name in ("q", "m", "hbar"):
            with pytest.raises(ValueError, match=rf"^{name} must be a number, got np\.True_$"):
                FieldConfig(B=(1, 2, 3), **{name: np.bool_(True)})


class TestRecords:
    """The records are named tuples that keep their dataclass contract: the
    repr, read-only fields, hashing and equality by field, a default for
    degenerate, and checks on every construction, _make and _replace too."""

    RECORDS = [
        Hamiltonian(0.3, (1, 2, 3)),
        FieldConfig(B=(1, 0, 0), q=2),
        EigenSystem(1.0, -1.0, Rotor.identity(), *basis_eps()),
        SuiteResult("diag", 0.5, 1e-9, 3),
    ]

    def test_repr(self):
        assert [repr(r) for r in self.RECORDS[::3]] == [
            "Hamiltonian(h0=0.3, h=(1.0, 2.0, 3.0))",
            "SuiteResult(name='diag', worst=0.5, tol=1e-09, count=3)",
        ]
        assert repr(self.RECORDS[1]) == "FieldConfig(B=(1.0, 0.0, 0.0), q=2.0, m=1.0, hbar=1.0)"
        eigen = repr(eigensystem(Hamiltonian(2.0, (0, 0, 0))))
        assert eigen.startswith("EigenSystem(e_plus=2.0, e_minus=2.0, rotor=Rotor([1.0, ")
        assert eigen.endswith("), psi_minus=AlgebraicSpinor(c_plus=(0, 0), c_minus=(1, 0)), "
                              "degenerate=True)")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.other = 1.0

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_a_wrapped_init_gets_the_arguments(self, monkeypatch, record):
        # perfbench's tracer counts constructions by wrapping __init__
        cls, seen = type(record), []
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            seen.append(args)
            return init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapper)
        assert cls(*record) == cls._make(record) == record
        assert seen == [tuple(record)] * 2

    def test_hash_and_equality_by_field(self):
        a, b = Hamiltonian(1, [0, 0, 1]), Hamiltonian(1.0, np.array([0.0, 0.0, 1.0]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Hamiltonian(1.0, (0.0, 0.0, 2.0))
        assert FieldConfig(B=(0, 0, 1)) == FieldConfig((0.0, 0.0, 1.0), 1.0, 1.0, 1.0)
        assert {FieldConfig(B=(0, 0, 1)): 1}[FieldConfig(B=[0, 0, 1])] == 1
        assert SuiteResult("diag", 0.5, 1e-9, 3) == self.RECORDS[3]
        # a record is a tuple of its fields, and equal to that plain tuple
        assert a == (1.0, (0.0, 0.0, 1.0)) and tuple(a) == (a.h0, a.h)

    def test_degenerate_default_and_passed(self):
        assert self.RECORDS[2].degenerate is False
        assert self.RECORDS[3].passed is False and self.RECORDS[3]._replace(worst=0.0).passed

    def test_make_and_replace_check(self):
        h = Hamiltonian(1.0, (0, 0, 1))
        with pytest.raises(ValueError, match="^Hamiltonian coefficients must be finite$"):
            h._replace(h0=math.nan)
        with pytest.raises(ValueError, match="^h0 must be a number, got True$"):
            Hamiltonian._make([True, (0, 0, 1)])
        assert h._replace(h=[0, "2", 0]) == Hamiltonian(1.0, (0.0, 2.0, 0.0))
        cfg = FieldConfig(B=(0, 0, 1))
        for m in (0.0, -1.0):
            with pytest.raises(ValueError, match="^mass and hbar must be positive$"):
                cfg._replace(m=m)
        with pytest.raises(ValueError, match="^field must have 3 components$"):
            FieldConfig._make([(0, 1), 1.0, 1.0, 1.0])
        assert cfg._replace(q=-2) == FieldConfig(B=(0.0, 0.0, 1.0), q=-2.0)

    def test_integers_past_the_double_range_are_not_finite(self):
        # float refuses them with OverflowError; _real takes them as +-inf,
        # which the records' finite checks refuse, as they refuse inf
        with pytest.raises(ValueError, match="^Hamiltonian coefficients must be finite$"):
            Hamiltonian(10 ** 400, (0, 0, 0))
        with pytest.raises(ValueError, match="^field configuration must be finite$"):
            FieldConfig(B=(1, 2, 3), q=-10 ** 400)
        with pytest.raises(ValueError, match="^field configuration must be finite$"):
            FieldConfig(B=(10 ** 400, 0, 0))

    def test_eigensystems_equal_field_by_field(self):
        # a record compares its rotor and spinors by their coefficients
        h = Hamiltonian(0.3, (1, 2, 3))
        assert eigensystem(h) == eigensystem(Hamiltonian(0.3, [1.0, 2.0, 3.0]))
        assert eigensystem(h) != eigensystem(Hamiltonian(0.3, (1, 2, -3)))


class TestPolarAngles:
    def test_axis_cases(self):
        assert polar_angles(Hamiltonian(0, (0, 0, 1))) == (0.0, 0.0)
        assert polar_angles(Hamiltonian(0, (0, 0, -1))) == (math.pi, 0.0)
        assert polar_angles(Hamiltonian(0, (1, 0, 0))) == (math.pi / 2, 0.0)
        assert polar_angles(Hamiltonian(0, (0, 1, 0))) == (math.pi / 2, math.pi / 2)
        assert polar_angles(Hamiltonian(7.0, (0, 0, 0))) == (0.0, 0.0)

    @pytest.mark.parametrize("signs", [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0)
                                       for c in (1.0, -1.0)])
    def test_vanishing_vector_part_whatever_its_signs(self, signs):
        # atan2 of signed zeros gives pi or -0.0; a zero vector part has no direction
        h = Hamiltonian(0.5, tuple(math.copysign(0.0, s) for s in signs))
        assert [x.hex() for x in polar_angles(h)] == [0.0.hex()] * 2

    @pytest.mark.parametrize("h3, theta", [(1.0, 0.0), (-1.0, math.pi)])
    @pytest.mark.parametrize("h1, h2", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_e3_axis_whatever_the_signs_of_its_zeros(self, h1, h2, h3, theta):
        # atan2(0.0, -0.0) is pi and atan2(-0.0, 0.0) is -0.0: the azimuth
        # of the e3 axis is +0.0 however its zeros are signed
        h = Hamiltonian(0.5, (h1, h2, h3))
        assert [x.hex() for x in polar_angles(h)] == [theta.hex(), 0.0.hex()]

    def test_example_field(self):
        theta, phi = polar_angles(H_EXAMPLE)
        assert theta == math.pi / 4 and phi == 0.0

    def test_azimuth_half_open_interval(self):
        # atan2 would give -pi on the negative e1 ray approached from below
        theta, phi = polar_angles(Hamiltonian(0, (-2.0, -0.0, 0.0)))
        assert theta == math.pi / 2
        assert phi == math.pi

    def test_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            theta, phi = polar_angles(random_hamiltonian(rng))
            assert 0.0 <= theta <= math.pi
            assert -math.pi < phi <= math.pi


class TestDiagonalizingRotor:
    def test_example_coefficients(self):
        r = eigensystem(H_EXAMPLE).rotor
        expected = np.zeros(8)
        expected[0] = COS_PI_8
        expected[5] = -SIN_PI_8
        assert np.max(np.abs(r.mv.coeffs - expected)) <= 1e-15

    def test_zero_vector_part_gives_identity(self):
        assert eigensystem(Hamiltonian(3.0, (0, 0, 0))).rotor.mv == ONE

    def test_sends_e3_to_field_direction(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            h = random_hamiltonian(rng)
            if h.r_norm < 1e-6:
                continue
            r = eigensystem(h).rotor
            out = sandwich(r, E3)
            n = np.array(h.h) / h.r_norm
            assert np.max(np.abs(np.array([out[1], out[2], out[3]]) - n)) <= 1e-12


def axial_form(h):
    """h0 + |h| e3, the diagonal form of h."""
    return Hamiltonian(h.h0, (0.0, 0.0, h.r_norm)).as_multivector()


class TestDiagonalize:
    """reverse(R) H R = h0 + |h| e3 for the eigensystem's rotor R."""

    def test_returns_axial_form(self):
        r = eigensystem(H_EXAMPLE).rotor
        assert isinstance(r, Rotor)
        via = sandwich(r.reverse(), H_EXAMPLE.as_multivector())
        assert abs(via[3] - math.sqrt(2.0)) <= 1e-15
        assert np.max(np.abs(via.coeffs - axial_form(H_EXAMPLE).coeffs)) <= 1e-15

    def test_sandwich_route_agrees(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            h = random_hamiltonian(rng)
            r = eigensystem(h).rotor
            via = sandwich(r.reverse(), h.as_multivector())
            assert np.max(np.abs(via.coeffs - axial_form(h).coeffs)) <= 1e-12

    def test_degenerate(self):
        h = Hamiltonian(2.5, (0, 0, 0))
        r = eigensystem(h).rotor
        assert r.mv == ONE
        assert sandwich(r.reverse(), h.as_multivector()) == axial_form(h)


# signed magnitudes log-uniform in [1e-300, 1e308], half of them near the
# top, where sums and spans can overflow
wide_float = st.tuples(
    st.one_of(st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
              st.floats(1e307, sys.float_info.max)),
    st.sampled_from([1.0, -1.0]),
).map(lambda m: m[0] * m[1])


def eigen_bits(es):
    """An eigensystem's values by float.hex, and its flag."""
    return [x.hex() for x in (es.e_plus, es.e_minus, *es.rotor.mv._c,
                              *es.psi_plus.mv._c, *es.psi_minus.mv._c)] + [es.degenerate]


def state_bits(psi):
    return [x.hex() for x in psi.mv._c]


def route_outcome(bits, f, *args):
    """bits of f(*args), or the message of its ValueError."""
    try:
        return bits(f(*args))
    except ValueError as exc:
        return str(exc)


# signed magnitudes log-uniform over 1e-300 to 1e300, alone and with the
# signed zeros
signed_magnitude = st.tuples(
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.sampled_from([1.0, -1.0]),
).map(lambda m: m[0] * m[1])
signed_zero = st.sampled_from([0.0, -0.0])
tiny_to_huge = st.one_of(signed_magnitude, signed_zero)


class TestEigensystem:
    def test_example_eigenvalues(self):
        es = eigensystem(H_EXAMPLE)
        assert abs(es.e_plus - math.sqrt(2.0)) <= 1e-12
        assert abs(es.e_minus + math.sqrt(2.0)) <= 1e-12
        assert not es.degenerate

    def test_example_amplitudes(self):
        es = eigensystem(H_EXAMPLE)
        cp, cm = to_amplitudes(es.psi_plus)
        assert abs(cp.real - COS_PI_8) <= 1e-15 and cp.imag == 0.0
        assert abs(cm.real - SIN_PI_8) <= 1e-15 and cm.imag == 0.0
        cp, cm = to_amplitudes(es.psi_minus)
        assert abs(cp.real + SIN_PI_8) <= 1e-15 and cp.imag == 0.0
        assert abs(cm.real - COS_PI_8) <= 1e-15 and cm.imag == 0.0

    def test_eigen_relation(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            h = random_hamiltonian(rng)
            es = eigensystem(h)
            hm = h.as_multivector()
            for psi, e in ((es.psi_plus, es.e_plus), (es.psi_minus, es.e_minus)):
                residual = norm(
                    Multivector(left_mul(hm, psi).mv.coeffs - e * psi.mv.coeffs)
                )
                assert residual <= 1e-11 * (1.0 + abs(e))

    def test_ordering_and_orthonormality(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            es = eigensystem(random_hamiltonian(rng))
            assert es.e_plus >= es.e_minus
            assert abs(inner(es.psi_plus, es.psi_plus) - 1.0) <= 1e-12
            assert abs(inner(es.psi_minus, es.psi_minus) - 1.0) <= 1e-12
            assert abs(inner(es.psi_plus, es.psi_minus)) <= 1e-12

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            h = random_hamiltonian(rng)
            es = eigensystem(h)
            vals, (v_plus, v_minus) = matrixqm.eigen_hermitian(
                matrixqm.rep(h.as_multivector())
            )
            cap = max(1.0, abs(vals[0]), abs(vals[1]))
            assert abs(es.e_plus - vals[0]) <= 1e-12 * cap
            assert abs(es.e_minus - vals[1]) <= 1e-12 * cap
            if not es.degenerate and abs(vals[0] - vals[1]) > 1e-6:
                for psi, v in ((es.psi_plus, v_plus), (es.psi_minus, v_minus)):
                    overlap = abs(np.vdot(v, matrixqm.spinor_rep(psi)))
                    assert abs(overlap - 1.0) <= 1e-10

    def test_degenerate_case(self):
        es = eigensystem(Hamiltonian(4.0, (0, 0, 0)))
        assert es.degenerate
        assert es.e_plus == es.e_minus == 4.0
        assert es.psi_plus == EPS_PLUS and es.psi_minus == EPS_MINUS
        assert es.rotor.mv == ONE

    @settings(max_examples=150, deadline=None)
    @given(*[st.one_of(wide_float, st.just(0.0))] * 4)
    @example(1e308, 1e308, 0.0, 0.0)
    @example(1e308, 0.0, 0.0, -1e308)
    def test_raises_exactly_where_an_eigenvalue_overflows(self, h0, h1, h2, h3):
        r = _norm3(h1, h2, h3)
        if math.isfinite(h0 + r) and math.isfinite(h0 - r):
            es = eigensystem(Hamiltonian(h0, (h1, h2, h3)))
            assert (es.e_plus, es.e_minus) == ((h0, h0) if r == 0.0 else (h0 + r, h0 - r))
        else:
            with pytest.raises(ValueError, match=r"^eigenvalues h0 \+/- \|h\| overflow$"):
                eigensystem(Hamiltonian(h0, (h1, h2, h3)))

    @pytest.mark.parametrize("h", [
        Hamiltonian(0.3, (1.0, -2.0, 0.5)),
        Hamiltonian(-0.5, (0.0, 0.0, -1.0)),
        Hamiltonian(4.0, (0.0, 0.0, 0.0)),
        Hamiltonian(1e300, (1e300, -1e-300, 0.0)),
    ])
    def test_makes_no_numpy_call(self, monkeypatch, h):
        expected = eigen_bits(eigensystem(h))
        for module in ("algebra", "spinor", "twostate"):
            # spinor needs no numpy at all, and has no `np` to patch
            monkeypatch.setattr(f"gatss.{module}.np", None, raising=False)
        assert eigen_bits(eigensystem(h)) == expected

    def test_builds_the_azimuth_rotor_once(self, monkeypatch):
        # three exponentials: the azimuth's, about the dual of E3 first,
        # then the two tilts about the dual of E2
        calls = []
        exp_coeffs = twostate._exp_coeffs

        def counted(*bivector):
            calls.append(bivector)
            return exp_coeffs(*bivector)

        h = Hamiltonian(0.3, (1.0, -2.0, 0.5))
        theta, phi = polar_angles(h)
        monkeypatch.setattr(twostate, "_exp_coeffs", counted)
        eigensystem(h)
        assert calls == [(hodge_dual(axis) * (-0.5 * angle))._c[4:7] for axis, angle in
                         ((E3, phi), (E2, theta), (E2, theta + math.pi))]

    # the tuple route against the object route it replaced: magnitudes
    # log-uniform over 1e-300 to 1e300 with signs and signed zeros in
    # every slot, axis-aligned vector parts and the phi = +/-pi seam; for
    # polar_state also multiples of pi, and angles that are not finite
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(*[tiny_to_huge] * 4),
        st.tuples(tiny_to_huge, signed_zero, signed_zero, signed_magnitude),
        st.tuples(tiny_to_huge, signed_magnitude.map(lambda x: -abs(x)), signed_zero,
                  tiny_to_huge),
    ), st.tuples(*[st.one_of(tiny_to_huge, st.floats(-7.0, 7.0), st.sampled_from(
        [math.pi, -math.pi, 2.0 * math.pi, math.inf, -math.inf, math.nan]))] * 2))
    @example((0.5, 0.0, 0.0, -2.0), (math.pi, 0.0))
    @example((0.0, -1.0, -0.0, 0.0), (math.pi / 2.0, -math.pi))
    @example((0.0, 1e-300, -2e-300, 3e-300), (1e-300, -0.0))
    @example((1e8, 0.3, -0.5, 0.8), (-0.0, math.inf))
    @example((-0.0, -0.0, 0.0, -0.0), (0.0, math.nan))
    def test_tuple_route_is_the_object_route_bit_for_bit(self, h, angles):
        h = Hamiltonian(h[0], h[1:])
        assert route_outcome(eigen_bits, eigensystem, h) == route_outcome(
            eigen_bits, reference_eigensystem, h)
        assert route_outcome(state_bits, polar_state, *angles) == route_outcome(
            state_bits, reference_polar_state, *angles)


class TestFieldCoupling:
    def test_unit_axial_field(self):
        h = hamiltonian_from_field(FieldConfig(B=(0.0, 0.0, 1.0)))
        assert h == Hamiltonian(0.0, (0.0, 0.0, -0.5))

    def test_zero_charge(self):
        h = hamiltonian_from_field(FieldConfig(B=(1.0, 2.0, 3.0), q=0.0))
        assert h == Hamiltonian(0.0, (0.0, 0.0, 0.0))

    def test_parameter_scaling(self):
        h = hamiltonian_from_field(FieldConfig(B=(2.0, -4.0, 6.0), q=3.0, m=2.0, hbar=0.5))
        assert h == Hamiltonian(0.0, (-0.75, 1.5, -2.25))

    def test_rows_match_the_object_coupling(self):
        rng = np.random.default_rng(67)
        fields = rng.uniform(-5.0, 5.0, (20, 3))
        fields[0] = (0.0, -0.0, 0.0)
        q, m, hbar = 1.5, 0.7, 0.9
        h_rows, bivectors = _coupling_rows(fields, q, m, hbar)
        for b, h_row, bivector in zip(fields, h_rows, bivectors):
            h = hamiltonian_from_field(FieldConfig(B=tuple(b), q=q, m=m, hbar=hbar))
            assert hexes(h_row) == hexes(h.as_multivector().coeffs)
            assert hexes(bivector) == hexes(hodge_dual(h.vector_part()).coeffs)


class TestEvolutionRotor:
    def test_axial_example(self):
        # B = (0,0,1) couples as -(1/2) e3, so U(t) = cos(t/2) + sin(t/2) e12
        h = hamiltonian_from_field(FieldConfig(B=(0.0, 0.0, 1.0)))
        for t in (0.0, 0.3, 1.7, -2.5):
            u = evolution_rotor(h, t)
            expected = np.zeros(8)
            expected[0] = math.cos(0.5 * t)
            expected[6] = math.sin(0.5 * t)
            assert np.max(np.abs(u.mv.coeffs - expected)) <= 1e-15

    def test_rejects_scalar_part(self):
        with pytest.raises(ValueError):
            evolution_rotor(Hamiltonian(1.0, (0.0, 0.0, 1.0)), 0.5)

    def test_rejects_bad_time_or_hbar(self):
        h = Hamiltonian(0.0, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            evolution_rotor(h, math.nan)
        with pytest.raises(ValueError):
            evolution_rotor(h, 1.0, hbar=0.0)

    @pytest.mark.parametrize("b, t, hbar, q, message", [
        ((1.0, 0.0, 0.0), 1e10, 1e-300, 1.0, "multivector"),  # -t / hbar is -inf and 0 * -inf NaN
        ((1e150, 0.0, 0.0), 1e200, 1.0, 1.0, "multivector"),  # the product overflows
        ((1.0, 0.0, 0.0), 1.0, 1e300, 1e300, "Hamiltonian"),  # q hbar is inf and 0 * inf NaN
        ((1e300, 1e300, 0.0), 1.0, 1.0, 1e10, "Hamiltonian"),  # the coupling overflows
    ])
    def test_exponent_out_of_range_raises_without_warning(self, b, t, hbar, q, message):
        # evolution_rotor raises the multivector message on the exponent,
        # hamiltonian_from_field the Hamiltonian one on a coupling out of
        # range; the same row fails trajectory with the multivector message
        cfg = FieldConfig(B=b, q=q, hbar=hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message == "Hamiltonian":
                with pytest.raises(ValueError, match="^Hamiltonian coefficients must be finite$"):
                    hamiltonian_from_field(cfg)
            else:
                h = hamiltonian_from_field(FieldConfig(B=b, q=q))
                with pytest.raises(ValueError, match="^multivector coefficients must be finite$"):
                    evolution_rotor(h, t, hbar)
            with pytest.raises(ValueError, match="^multivector coefficients must be finite$"):
                trajectory(cfg, EPS_PLUS, [t])

    def test_phase_overflow(self):
        # at t = 2.1 each exponent component is a finite 1.05e308, their
        # length is not
        cfg = FieldConfig(B=(1e308, 1e308, 1e308))
        message = r"^phase \|h\| t / hbar overflows at t = 2\.1: "
        with pytest.raises(ValueError, match=message):
            evolution_rotor(hamiltonian_from_field(cfg), 2.1)
        with pytest.raises(ValueError, match=message):
            trajectory(cfg, EPS_PLUS, [2.1])

    def test_unitarity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            h = random_hamiltonian(rng, with_scalar=False)
            u = evolution_rotor(h, rng.uniform(-10, 10))
            assert norm(Multivector(gp(u.mv, reverse(u.mv)).coeffs - ONE.coeffs)) <= 1e-12

    def test_composition(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            h = random_hamiltonian(rng, with_scalar=False)
            t, s = rng.uniform(-5, 5, 2)
            lhs = (evolution_rotor(h, t) * evolution_rotor(h, s)).mv
            rhs = evolution_rotor(h, t + s).mv
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            h = random_hamiltonian(rng, with_scalar=False)
            t = rng.uniform(-10, 10)
            hbar = rng.uniform(0.3, 2.0)
            u_mat = matrixqm.rep(evolution_rotor(h, t, hbar).mv)
            expected = matrixqm.mat_exp(
                matrixqm.rep(h.as_multivector()) * (-1j * t / hbar)
            )
            assert np.max(np.abs(u_mat - expected)) <= 1e-12


class TestEvolve:
    def test_axial_field_puts_phase_on_eps_plus(self):
        h = hamiltonian_from_field(FieldConfig(B=(0.0, 0.0, 1.0)))
        t = 0.7
        psi_t = evolve(EPS_PLUS, evolution_rotor(h, t))
        cp, cm = to_amplitudes(psi_t)
        assert abs(cp - complex(math.cos(t / 2), math.sin(t / 2))) <= 1e-15
        assert cm == complex(0.0, 0.0)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            cfg = random_field(rng)
            h = hamiltonian_from_field(cfg)
            t = rng.uniform(0.0, 10.0)
            psi0 = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            got = matrixqm.spinor_rep(evolve(psi0, evolution_rotor(h, t)))
            expected = matrixqm.evolve_matrix(
                matrixqm.spinor_rep(psi0), matrixqm.rep(h.as_multivector()), t
            )
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_rejects_unnormalized(self):
        h = Hamiltonian(0.0, (0.0, 0.0, 1.0))
        bad = from_amplitudes(2.0, 0.0)
        with pytest.raises(ValueError):
            evolve(bad, evolution_rotor(h, 0.1))


class TestExpectation:
    def test_basis_values_exact(self):
        assert expectation(E3, EPS_PLUS) == 1.0
        assert expectation(E3, EPS_MINUS) == -1.0
        assert expectation(E1, EPS_PLUS) == 0.0
        assert expectation(E2, EPS_PLUS) == 0.0

    def test_hbar_scaling(self):
        s1, s2, s3 = spin_vectors(0.7)
        assert expectation(s3, EPS_PLUS) == 0.35

    def test_polar_state_components(self):
        for theta in (0.0, 0.4, math.pi / 2, 2.9):
            psi = polar_state(theta)
            assert abs(expectation(E3, psi) - math.cos(theta)) <= 1e-15
            assert abs(expectation(E1, psi) - math.sin(theta)) <= 1e-15
            assert abs(expectation(E2, psi)) <= 1e-15

    def test_scalar_part_shifts_linearly(self):
        psi = polar_state(0.8, 0.3)
        base = expectation(Hamiltonian(0.0, (1.0, -2.0, 0.5)), psi)
        shifted = expectation(Hamiltonian(3.0, (1.0, -2.0, 0.5)), psi)
        assert abs(shifted - (base + 3.0)) <= 1e-12

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            h = random_hamiltonian(rng)
            psi = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            got = expectation(h, psi)
            expected = matrixqm.expectation_matrix(
                matrixqm.rep(h.as_multivector()), matrixqm.spinor_rep(psi)
            )
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_bounded_by_vector_norm(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            h = random_hamiltonian(rng, with_scalar=False)
            psi = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            assert abs(expectation(h, psi)) <= h.r_norm + 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            expectation(E12, EPS_PLUS)
        with pytest.raises(ValueError):
            expectation(E123, EPS_PLUS)
        with pytest.raises(ValueError):
            expectation(E3, from_amplitudes(2.0, 0.0))


class TestProbability:
    def test_basis_cases_exact(self):
        assert probability(EPS_PLUS, EPS_PLUS) == 1.0
        assert probability(EPS_MINUS, EPS_PLUS) == 0.0

    def test_equals_squared_inner(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            u = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            psi = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            assert abs(probability(u, psi) - abs(inner(u, psi)) ** 2) <= 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            psi = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            total = probability(EPS_PLUS, psi) + probability(EPS_MINUS, psi)
            assert abs(total - 1.0) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            probability(from_amplitudes(2.0, 0.0), EPS_PLUS)


class TestRabi:
    def test_zero_time_and_zero_field(self):
        assert rabi_probability(FieldConfig(B=(1.0, 2.0, 3.0)), 0.0) == 0.0
        assert rabi_probability(FieldConfig(B=(0.0, 0.0, 0.0)), 5.0) == 0.0

    def test_peak_value(self):
        # 45-degree field peaks at sin^2(pi/4) = 1/2 when omega t = pi
        cfg = FieldConfig(B=(1.0, 0.0, 1.0))
        t_peak = math.pi / cfg.omega
        assert abs(rabi_probability(cfg, t_peak) - 0.5) <= 1e-15

    def test_axial_field_never_flips(self):
        cfg = FieldConfig(B=(0.0, 0.0, 2.0))
        for t in np.linspace(0, 10, 50):
            assert rabi_probability(cfg, t) == 0.0

    @pytest.mark.parametrize("cfg, t, bad", [
        (FieldConfig(B=(10.0, 0.0, 0.0)), 1e308, 1e308),  # the angle overflows
        (FieldConfig(B=(1.0, 1.0, 0.0), q=1e300, m=1e-10), 1.0, 1.0),
        (FieldConfig(B=(0.0, 3.0, 4.0)), math.inf, math.inf),
        (FieldConfig(B=(0.0, 3.0, 4.0)), math.nan, math.nan),
    ])
    def test_closed_forms_name_a_non_finite_angle(self, cfg, t, bad):
        # one time raises; an array of times gets NaN rows (TestUVector)
        message = f"precession angle q |B| t / m is not finite at t = {bad!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for closed_form in (u_vector_closed_form, rabi_probability):
                with pytest.raises(ValueError) as exc:
                    closed_form(cfg, t)
                assert str(exc.value) == message

    def test_closed_forms_where_q_b_overflows(self):
        # q |B| = 1e310 overflows, but q / m = 1 and the angle is |B| t <= 10:
        # the closed forms take q / m first and give the q = m = 1 bits
        big = FieldConfig(B=(1e10, 0.0, 0.0), q=1e300, m=1e300)
        unit = FieldConfig(B=(1e10, 0.0, 0.0))
        t = np.linspace(0.0, 1e-9, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hexes(np.concatenate(u_vector_closed_form(big, t))) == hexes(
                np.concatenate(u_vector_closed_form(unit, t)))
            for x in t.tolist():
                assert hexes(u_vector_closed_form(big, x)) == hexes(u_vector_closed_form(unit, x))
                assert rabi_probability(big, x).hex() == rabi_probability(unit, x).hex()
        assert rabi_probability(big, 1e-9) > 0.9

    def test_matches_rotor_route(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            cfg = random_field(rng)
            t = rng.uniform(0.0, 10.0)
            h = hamiltonian_from_field(cfg)
            psi_t = evolve(EPS_PLUS, evolution_rotor(h, t, cfg.hbar))
            assert abs(probability(EPS_MINUS, psi_t) - rabi_probability(cfg, t)) <= 1e-12


def spin_rows(theta0, cfg, grid):
    """(t, <S1>, <S2>, <S3>) rows of the state tilted by theta0 in the e3 e1
    plane, evolved in cfg."""
    table = trajectory(cfg, polar_state(theta0), grid)
    return list(zip(table["t"], table["s1"], table["s2"], table["s3"]))


class TestPrecession:
    def test_closed_form(self):
        for b3, hbar in ((1.0, 1.0), (3.0, 1.0), (0.5, 0.7)):
            cfg = FieldConfig(B=(0.0, 0.0, b3), hbar=hbar)
            theta0 = 0.9
            w = cfg.omega_axial
            grid = np.linspace(0.0, 10.0, 101)
            for t, s1, s2, s3 in spin_rows(theta0, cfg, grid):
                assert abs(s1 - 0.5 * hbar * math.sin(theta0) * math.cos(w * t)) <= 1e-12
                assert abs(s2 + 0.5 * hbar * math.sin(theta0) * math.sin(w * t)) <= 1e-12
                assert abs(s3 - 0.5 * hbar * math.cos(theta0)) <= 1e-12

    def test_pole_is_stationary(self):
        cfg = FieldConfig(B=(0.0, 0.0, 2.0))
        for t, s1, s2, s3 in spin_rows(0.0, cfg, [0.0, 1.0, 2.0]):
            assert abs(s1) <= 1e-15 and abs(s2) <= 1e-15
            assert abs(s3 - 0.5) <= 1e-15


def spin_vector(r, hbar=1.0):
    """Spin direction of R eps_plus by sandwich: R (hbar/2) e3 reverse(R)."""
    v = sandwich(r, E3 * (hbar / 2))
    return v[1], v[2], v[3]


class TestSpinVector:
    def test_tilted_rotor(self):
        for theta in (0.0, 0.6, math.pi / 2, 2.2):
            s = spin_vector(rotor_axis_angle(E2, theta))
            assert abs(s[0] - 0.5 * math.sin(theta)) <= 1e-15
            assert abs(s[1]) <= 1e-15
            assert abs(s[2] - 0.5 * math.cos(theta)) <= 1e-15

    def test_hbar_scaling(self):
        s = spin_vector(Rotor.identity(), hbar=0.7)
        assert s == (0.0, 0.0, 0.35)

    def test_matches_expectation_route(self):
        rng = np.random.default_rng(67)
        s_ops = spin_vectors()
        for _ in range(200):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            r = rotor_axis_angle(E3, phi) * rotor_axis_angle(E2, theta)
            via_sandwich = spin_vector(r)
            psi = polar_state(theta, phi)
            via_state = tuple(expectation(op, psi) for op in s_ops)
            assert max(abs(a - b) for a, b in zip(via_sandwich, via_state)) <= 1e-12


def u_vector(cfg, t):
    """The precessing axis u(t) at one time, from the trajectory columns."""
    table = trajectory(cfg, EPS_PLUS, [t])
    return table["u1"][0], table["u2"][0], table["u3"][0]


class TestUVector:
    def test_zero_field_gives_e3(self):
        # at any t, even where q |B| t / m would be 0 * inf, as
        # rabi_probability gives 0 there
        for q in (1.0, -2.0):
            cfg = FieldConfig(B=(0.0, 0.0, 0.0), q=q)
            for t in (1.0, math.inf, math.nan):
                assert hexes(u_vector_closed_form(cfg, t)) == hexes((0.0, 0.0, 1.0))
                assert rabi_probability(cfg, t) == 0.0
            u = u_vector_closed_form(cfg, np.array([-2.0, 0.0, 3.5, math.inf, math.nan]))
            assert hexes(np.concatenate(u)) == hexes([0.0] * 10 + [1.0] * 5)

    @pytest.mark.parametrize("cfg, t", [
        (FieldConfig(B=(0.0, 3.0, 4.0)), [0.5, math.inf, math.nan]),
        (FieldConfig(B=(10.0, 0.0, 0.0)), [1.0, -1e308, 1e308]),  # the angle overflows
    ], ids=["inf_and_nan", "overflow"])
    def test_array_of_times_gives_nan_rows(self, cfg, t):
        # as the oracle's stacks: NaN in the rows whose angle is not
        # finite, the call at that time in the others
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = u_vector_closed_form(cfg, t)
            assert np.isnan(u).tolist() == [[False, True, True]] * 3
            assert hexes([c[0] for c in u]) == hexes(u_vector_closed_form(cfg, t[0]))

    # every double, the angle overflowing in most fields at the top
    @settings(max_examples=200, deadline=None)
    @given(check_fields, st.lists(st.one_of(
        wide_float, st.floats(), st.sampled_from([1e308, -sys.float_info.max])), max_size=6))
    def test_array_is_the_call_at_each_time(self, cfg, ts):
        u = u_vector_closed_form(cfg, ts)
        for row, t in enumerate(ts):
            try:
                expected = u_vector_closed_form(cfg, t)
            except ValueError:
                expected = (math.nan,) * 3
            assert hexes([c[row] for c in u]) == hexes(expected)

    def test_initial_axis(self):
        cfg = FieldConfig(B=(1.0, 2.0, 3.0))
        assert u_vector(cfg, 0.0) == (0.0, 0.0, 1.0)
        assert u_vector_closed_form(cfg, 0.0) == (0.0, 0.0, 1.0)

    def test_axial_field_fixes_axis(self):
        cfg = FieldConfig(B=(0.0, 0.0, 2.0))
        for t in (0.3, 1.0, 4.7):
            u = u_vector(cfg, t)
            assert abs(u[0]) <= 1e-15 and abs(u[1]) <= 1e-15
            assert abs(u[2] - 1.0) <= 1e-15

    def test_unit_length(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            cfg = random_field(rng)
            u = u_vector(cfg, rng.uniform(0, 10))
            assert abs(math.hypot(*u) - 1.0) <= 1e-12

    def test_closed_form_matches_sandwich(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            cfg = FieldConfig(
                B=tuple(rng.uniform(-5, 5, 3)),
                q=rng.uniform(0.5, 2.0),
                m=rng.uniform(0.5, 2.0),
                hbar=rng.uniform(0.5, 2.0),
            )
            if cfg.b_norm < 1e-6:
                continue
            t = rng.uniform(0, 10)
            a = u_vector(cfg, t)
            b = u_vector_closed_form(cfg, t)
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12

    def test_precession_direction(self):
        # du/dt = (q/m) u x B, checked by central difference at several times
        cfg = FieldConfig(B=(1.0, 0.0, 1.0))
        delta = 1e-4
        for t in (0.0, 0.9, 2.4):
            up = np.array(u_vector(cfg, t + delta))
            um = np.array(u_vector(cfg, t - delta))
            deriv = (up - um) / (2 * delta)
            expected = np.cross(np.array(u_vector(cfg, t)), np.array(cfg.B))
            assert np.max(np.abs(deriv - expected)) <= 1e-6


class TestTrajectory:
    CFG = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9)

    def test_columns_match_closed_forms(self):
        grid = np.linspace(0.0, 12.0, 61)
        table = trajectory(self.CFG, EPS_PLUS, grid)
        assert list(table) == ["t", "p_plus", "p_minus", "s1", "s2", "s3", "u1", "u2", "u3"]
        assert table["t"] == grid.tolist()
        for i, t in enumerate(table["t"]):
            assert abs(table["p_minus"][i] - rabi_probability(self.CFG, t)) <= 1e-12
            assert abs(table["p_plus"][i] + table["p_minus"][i] - 1.0) <= 1e-12
            u = u_vector_closed_form(self.CFG, t)
            for k in range(3):
                assert abs(table[f"u{k + 1}"][i] - u[k]) <= 1e-12
                # out of eps_plus the spin follows the axis: s = (hbar/2) u
                assert abs(table[f"s{k + 1}"][i] - 0.5 * self.CFG.hbar * u[k]) <= 1e-12


class TestTimeGrid:
    @settings(max_examples=150, deadline=None)
    @given(wide_float, wide_float, st.integers(1, 6))
    @example(-1.5e308, 1.5e308, 5)
    @example(-1.5e308, 1.5e308, 2)
    @example(sys.float_info.max, -sys.float_info.max, 3)
    def test_linspace_or_exact_where_the_span_overflows(self, t_start, t_end, steps):
        grid = time_grid(t_start, t_end, steps)
        if math.isfinite(t_end - t_start):
            with np.errstate(over="ignore"):  # a span near the top
                assert hexes(grid) == hexes(np.linspace(t_start, t_end, steps))
            return
        t = grid.tolist()
        assert len(t) == steps and all(map(math.isfinite, t))
        assert t == sorted(t, reverse=t_end < t_start)
        assert t[0] == t_start and (steps == 1 or t[-1] == t_end)

    @pytest.mark.parametrize("t_start, t_end, steps, expected", [
        (0.0, 10.0, 7, ["0x0.0p+0", "0x1.aaaaaaaaaaaabp+0", "0x1.aaaaaaaaaaaabp+1",
                        "0x1.4000000000000p+2", "0x1.aaaaaaaaaaaabp+2", "0x1.0aaaaaaaaaaabp+3",
                        "0x1.4000000000000p+3"]),
        (-0.3, 2.9, 6, ["-0x1.3333333333333p-2", "0x1.5c28f5c28f5c1p-2", "0x1.f5c28f5c28f5ap-1",
                        "0x1.9eb851eb851eap+0", "0x1.2147ae147ae14p+1", "0x1.7333333333333p+1"]),
        # the span overflows: twice the grid of the halved ends
        (-1.5e308, 1.5e308, 5, ["-0x1.ab36d48e1acf0p+1023", "-0x1.ab36d48e1acf0p+1022",
                                "0x0.0p+0", "0x1.ab36d48e1acf0p+1022",
                                "0x1.ab36d48e1acf0p+1023"]),
        (-1.7e308, 1.1e308, 4, ["-0x1.e42d130773b76p+1023", "-0x1.b4b5344cfef5cp+1022",
                                "0x1.7bbef5d3a60d0p+1020", "0x1.394a579b68fe3p+1023"]),
    ], ids=["unit", "offset", "halved", "halved-asymmetric"])
    def test_grid_bits_are_pinned(self, t_start, t_end, steps, expected):
        # the t column is np.linspace's bits, which numpy does not promise
        # across versions; a numpy that rounds the grid differently fails
        # here by name, before it moves an evolve golden
        assert [t.hex() for t in time_grid(t_start, t_end, steps).tolist()] == expected


def reference_rotor(cfg, t):
    """evolution_rotor of cfg's coupling at t.  Where the coupling
    overflows, which hamiltonian_from_field refuses, the rotor's exponent
    (-t / hbar) e123 h is not finite at every finite t, so evolution_rotor
    would fail its time check or refuse that exponent."""
    try:
        h = hamiltonian_from_field(cfg)
    except ValueError:
        if not math.isfinite(t):
            raise ValueError("need finite t and positive finite hbar") from None
        raise ValueError("multivector coefficients must be finite") from None
    return evolution_rotor(h, t, cfg.hbar)


def reference_table(cfg, psi0, t_grid):
    """trajectory's columns from a loop over the object API, row by row."""
    table = {name: [] for name in ("t", "p_plus", "p_minus", "s1", "s2", "s3", "u1", "u2", "u3")}
    # the object path's numpy scalars warn on overflow; its checks raise
    with np.errstate(all="ignore"):
        for t in t_grid:
            u = reference_rotor(cfg, t)
            psi = evolve(psi0, u)
            axis = sandwich(u, E3)
            row = (
                float(t),
                probability(EPS_PLUS, psi),
                probability(EPS_MINUS, psi),
                *(expectation(op, psi) for op in spin_vectors(cfg.hbar)),
                axis[1],
                axis[2],
                axis[3],
            )
            for column, value in zip(table.values(), row):
                column.append(value)
    return table


def outcome(make_table):
    """The table with every value as float.hex, or the ValueError's text."""
    try:
        return {name: [v.hex() for v in column] for name, column in make_table().items()}
    except ValueError as exc:
        return f"ValueError: {exc}"


field_component = st.floats(-5.0, 5.0)
fields = st.builds(
    FieldConfig,
    B=st.one_of(
        st.tuples(field_component, field_component, field_component),
        st.tuples(field_component, field_component, field_component),
        st.tuples(st.just(0.0), st.just(0.0), field_component),  # axial
        st.just((0.0, 0.0, 0.0)),
    ),
    q=st.floats(0.2, 3.0),
    m=st.floats(0.2, 3.0),
    hbar=st.one_of(st.floats(0.05, 20.0), st.sampled_from([1e-300, 1e300])),
)
amplitude = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
polar_states = st.builds(polar_state, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
amplitude_states = (
    st.tuples(amplitude, amplitude)
    .filter(lambda cs: abs(cs[0]) + abs(cs[1]) > 1e-3)
    .map(lambda cs: from_amplitudes(*cs).normalized())
)
# one draw in five is not normalized, which fails the first row of any grid
states = st.one_of(
    polar_states, polar_states, amplitude_states, amplitude_states,
    st.just(from_amplitudes(1.0, 1.0)),
)
times = st.one_of(
    st.sampled_from([0.0, -0.0]),  # the exponential's series branch
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    # out of the domain: the phase or -t / hbar overflows, or t is not finite
    st.sampled_from([1e300, 3e155, 1e10, math.inf, -math.inf, math.nan]),
)

# the whole range: magnitudes log-uniform over 1e-300..1e300
magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
signed = st.builds(float.__mul__, magnitude, st.sampled_from([1.0, -1.0]))
wide_fields = st.builds(
    FieldConfig, B=st.tuples(signed, signed, signed), q=signed, m=magnitude, hbar=magnitude,
)
wide_times = st.one_of(
    signed, st.sampled_from([1e308, -1e308, 1.5e308, math.inf, -math.inf, math.nan]),
)


def near_bound(psi, side, offset):
    """psi rescaled to the squared norm 1 + side (NORM_TOL + offset): just
    inside or just past the normalization bound on that side."""
    scale = math.sqrt(1.0 + side * (NORM_TOL + offset))
    return from_amplitudes(*(scale * z for z in to_amplitudes(psi)))


bound_states = st.builds(
    near_bound, st.one_of(polar_states, amplitude_states), st.sampled_from([1.0, -1.0]),
    st.floats(-1.1e-9, 1.1e-9),
)


class TestTrajectoryMatchesObjectPath:
    """The blocked kernel of trajectory against a per-row loop over the
    public object API: values bit for bit, errors by message."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(fields, wide_fields), st.one_of(states, bound_states),
           st.lists(st.one_of(times, wide_times), min_size=1, max_size=6))
    # one example per error of the object API's replay: a bad time, a
    # coupling that overflows, -t / hbar that overflows, the phase that
    # overflows, and psi0 not normalized
    @example(FieldConfig(B=(0.4, -1.1, 2.2)), EPS_PLUS, [1.0, math.nan])
    @example(FieldConfig(B=(1e300, 1e300, 0.0), q=1e10), EPS_PLUS, [1.0])
    @example(FieldConfig(B=(1.0, 0.0, 0.0), hbar=1e-300), EPS_PLUS, [1e10])
    @example(FieldConfig(B=(1.5e308,) * 3), EPS_PLUS, [1.0, 1.5])
    @example(FieldConfig(B=(0.4, -1.1, 2.2)), from_amplitudes(1.0, 1.0), [1.0])
    # at the largest hbar, S_i = (hbar/2) e_i: the expectations that the
    # replay skips stay finite (within hbar/2), as the reference's do
    @example(FieldConfig(B=(0.4, -1.1, 1.5), hbar=sys.float_info.max), EPS_PLUS, [0.0, 1.0, -2.5])
    @example(FieldConfig(B=(1.0, 0.0, 0.0), hbar=sys.float_info.max), polar_state(0.7, -0.3),
             [2.0])
    @example(FieldConfig(B=(0.4, -1.1, 1.5), hbar=sys.float_info.max), EPS_PLUS,
             [0.5, math.inf, 1.0])
    def test_rows_and_errors(self, cfg, psi0, t_grid):
        assert outcome(lambda: trajectory(cfg, psi0, t_grid)) == outcome(
            lambda: reference_table(cfg, psi0, t_grid)
        )

    @pytest.mark.parametrize("t_grid", [[], [0.0], [2.5]], ids=["empty", "zero", "single"])
    def test_short_grids(self, t_grid):
        cfg = FieldConfig(B=(0.4, -1.1, 2.2), hbar=0.9)
        table = trajectory(cfg, EPS_PLUS, t_grid)
        assert outcome(lambda: table) == outcome(lambda: reference_table(cfg, EPS_PLUS, t_grid))
        assert all(len(column) == len(t_grid) for column in table.values())

    def test_empty_grid_checks_nothing(self):
        # as in the row loop, an empty grid never tests the initial state
        table = trajectory(FieldConfig(B=(1.0, 0.0, 0.0)), from_amplitudes(1.0, 1.0), [])
        assert list(table) == ["t", "p_plus", "p_minus", "s1", "s2", "s3", "u1", "u2", "u3"]
        assert all(column == [] for column in table.values())

    def test_grid_longer_than_a_block(self):
        cfg = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9)
        psi0 = polar_state(0.7, -0.3)
        grid = np.linspace(0.0, 40.0, 2 * _BLOCK_ROWS + 3)
        assert outcome(lambda: trajectory(cfg, psi0, grid)) == outcome(
            lambda: reference_table(cfg, psi0, grid)
        )

    def test_error_in_a_later_block(self):
        # at t = 1.5 each exponent component is a finite 1.125e308, their
        # length is not
        cfg = FieldConfig(B=(1.5e308, 1.5e308, 1.5e308))
        grid = [1.0] * (_BLOCK_ROWS + 2) + [1.5, math.inf]
        with pytest.raises(ValueError, match=r"phase \|h\| t / hbar overflows at t = 1\.5: "
                           r"the rotor exponential needs it below about 1\.8e308"):
            trajectory(cfg, EPS_PLUS, grid)

    def test_any_iterable(self):
        cfg = FieldConfig(B=(0.4, -1.1, 2.2))
        grid = [0.0, 1.5, 3.0]
        assert trajectory(cfg, EPS_PLUS, iter(grid)) == trajectory(cfg, EPS_PLUS, grid)


def first_scale_past_bound(psi, step):
    """The first scale k from 1 in the direction of step for which k psi is
    not normalized: the first double past NORM_TOL, by bisection."""
    inside, past = 1.0, 1.0 + step
    while math.nextafter(inside, past) != past:
        mid = 0.5 * (inside + past)
        if from_amplitudes(*(mid * z for z in to_amplitudes(psi))).is_normalized():
            inside = mid
        else:
            past = mid
    return past


def off_unit_rotors(monkeypatch, factor):
    """A defect of the row exponential: every rotor scaled by factor, with
    its deviation from unit norm measured as before."""
    exp_rows = twostate._exp_bivector_rows

    def scaled(c):
        rotor = exp_rows(c)[0] * factor
        return rotor, _unit_defect(*rotor[:, [0, 4, 5, 6]].T, np.sqrt)[1]

    monkeypatch.setattr(twostate, "_exp_bivector_rows", scaled)


class TestTrajectoryFlags:
    """The three flags of the row kernel, each caught where only it bites."""

    @pytest.mark.parametrize("psi", [EPS_PLUS, polar_state(0.7, -0.3)], ids=["eps_plus", "tilted"])
    @pytest.mark.parametrize("step", [1e-8, -1e-8], ids=["above", "below"])
    def test_psi0_just_past_the_bound(self, psi, step):
        # evolving can round the state back within the bound, so only the
        # psi0 flag marks these rows
        k = first_scale_past_bound(psi, step)
        psi0 = from_amplitudes(*(k * z for z in to_amplitudes(psi)))
        cfg = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7)
        for t in np.linspace(0.1, 10.0, 40).tolist():
            with pytest.raises(ValueError, match="^initial state must be normalized$"):
                trajectory(cfg, psi0, [t])

    def test_rotor_off_unit_norm(self, monkeypatch):
        # |R~R - 1| = 1.5e-9 on a psi0 of squared norm 1 - 0.9e-9: the
        # state stays within the bound, so only the rotor flag marks it
        psi0 = near_bound(EPS_PLUS, -1.0, -0.1e-9)
        cfg = FieldConfig(B=(0.4, -1.1, 2.2))
        assert trajectory(cfg, psi0, [0.5])["t"] == [0.5]
        off_unit_rotors(monkeypatch, math.sqrt(1.0 + 1.5e-9))
        message = r"^the row kernel rejected t = 0\.5, which the object API accepts$"
        with pytest.raises(ArithmeticError, match=message):
            trajectory(cfg, psi0, [0.5])

    def test_a_defect_of_the_row_exponential_fails_every_caller(self, monkeypatch, capsys):
        off_unit_rotors(monkeypatch, 1.0 + 1e-8)
        with pytest.raises(ArithmeticError, match=r"^the row kernel rejected t = 0\.0, "):
            trajectory(FieldConfig(B=(0.4, -1.1, 2.2)), EPS_PLUS, [0.0, 1.0])
        assert math.isnan(suite_rabi_triangle(np.random.default_rng(3), 20).worst)
        # a failed internal check, not an input error: exit 2
        assert main(["evolve", "--B=1,2,3", "--t-end=10", "--steps=11"]) == 2
        assert "the row kernel rejected t = 0.0" in capsys.readouterr().err


def test_valid_rows_stay_off_the_object_path(monkeypatch):
    # counters on the object path's product, rotor and exponential, in
    # every module that imports them by name
    calls = dict.fromkeys(["gp", "evolution_rotor", "exp_bivector"], 0)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    cfg, psi0 = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9), polar_state(0.7, -0.3)
    grid = np.linspace(0.0, 40.0, 1000)
    for name in calls:
        original = getattr(algebra, name, None) or getattr(twostate, name)
        for module in (algebra, spinor, twostate):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    table = trajectory(cfg, psi0, grid)
    # one product per block, psi0.is_normalized()'s
    blocks = -(-len(grid) // _BLOCK_ROWS)
    assert len(table["t"]) == 1000 and blocks == 4
    assert calls == {"gp": blocks, "evolution_rotor": 0, "exp_bivector": 0}


class TestSpinCommutators:
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_algebra_closes_exactly(self, hbar):
        s = spin_vectors(hbar)
        eps = {(0, 1): (1, 2), (1, 2): (1, 0), (2, 0): (1, 1), (1, 0): (-1, 2), (2, 1): (-1, 0), (0, 2): (-1, 1)}
        for i in range(3):
            for j in range(3):
                got = commutator(s[i], s[j])
                if i == j:
                    assert got.coeffs.tolist() == [0.0] * 8
                else:
                    sign, k = eps[(i, j)]
                    expected = gp(E123, s[k]) * (sign * hbar)
                    assert got == expected


class TestSchrodingerResidual:
    def test_central_difference(self):
        # dPsi/dt + (1/hbar) e123 H Psi should vanish along the flow
        rng = np.random.default_rng(79)
        delta = 1e-5
        for _ in range(20):
            cfg = random_field(rng)
            h = hamiltonian_from_field(cfg)
            hm = h.as_multivector()
            psi0 = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            t = rng.uniform(0.1, 10.0)
            psi_t = evolve(psi0, evolution_rotor(h, t, cfg.hbar))
            psi_p = evolve(psi0, evolution_rotor(h, t + delta, cfg.hbar))
            psi_m = evolve(psi0, evolution_rotor(h, t - delta, cfg.hbar))
            deriv = (psi_p.mv.coeffs - psi_m.mv.coeffs) / (2 * delta)
            drift = gp(E123, gp(hm, psi_t.mv)).coeffs / cfg.hbar
            assert np.max(np.abs(deriv + drift)) <= 1e-8

    def test_norm_conserved(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            cfg = random_field(rng)
            h = hamiltonian_from_field(cfg)
            psi0 = polar_state(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            psi_t = evolve(psi0, evolution_rotor(h, rng.uniform(0, 10), cfg.hbar))
            assert abs(inner(psi_t, psi_t) - 1.0) <= 1e-12
