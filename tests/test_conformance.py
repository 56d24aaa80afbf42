import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gatss import algebra, conformance, matrixqm, spinor, twostate
from gatss.algebra import Multivector, commutator, gp, hodge_dual, norm
from gatss.conformance import (
    SuiteResult,
    _associativity_devs,
    _homomorphism_devs,
    _rabi_devs,
    check,
    eigensystem_residuals,
    rabi_deviation,
    run_all,
    suite_associativity,
    suite_commutators,
    suite_homomorphism,
    suite_rabi_triangle,
    trajectory_deviations,
)
from gatss.matrixqm import STATE_NORM_TOL, pauli, rep, spinor_rep
from gatss.spinor import basis_eps
from gatss.twostate import (
    _BLOCK_ROWS,
    FieldConfig,
    Hamiltonian,
    eigensystem,
    evolution_rotor,
    evolve,
    hamiltonian_from_field,
    polar_state,
    probability,
    rabi_probability,
    trajectory,
    u_vector_closed_form,
)
from per_row_oracle import (
    hexes,
    reference_evolve,
    reference_expectation,
    reference_probability,
    reference_rabi_probability,
)

EPS_PLUS, EPS_MINUS = basis_eps()
TILTED = FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9)


class TestRunAll:
    def test_all_suites_pass(self):
        results = run_all(seed=42, count=100)
        assert [r.name for r in results] == [
            "homomorphism",
            "associativity",
            "commutators",
            "rabi_triangle",
        ]
        for r in results:
            assert isinstance(r, SuiteResult)
            assert r.passed, f"{r.name} failed with worst={r.worst:.3e}"
            assert r.worst <= r.tol

    def test_deterministic_per_seed(self):
        a = run_all(seed=7, count=50)
        b = run_all(seed=7, count=50)
        assert a == b

    def test_seed_changes_stream(self):
        a = run_all(seed=1, count=50)
        b = run_all(seed=2, count=50)
        assert [r.worst for r in a] != [r.worst for r in b]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_all(seed=0, count=0)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="^seed must be at least 0$"):
            run_all(seed=-1, count=1)
        with pytest.raises(ValueError, match="^count must be at least 1$"):
            run_all(seed=-1, count=0)


class TestIndividualSuites:
    def test_commutators_exact(self):
        r = suite_commutators()
        assert r.passed and r.worst == 0.0 and r.count == 9

    def test_homomorphism_counts(self):
        r = suite_homomorphism(np.random.default_rng(0), 25)
        assert r.count == 25 and r.passed


class TestOracleChecks:
    @pytest.mark.parametrize("cfg", [TILTED, FieldConfig(B=(0.0, 0.0, 0.0))])
    @pytest.mark.parametrize("psi0", [EPS_PLUS, polar_state(0.7, -1.2)])
    def test_trajectory_deviations(self, cfg, psi0):
        table = trajectory(cfg, psi0, np.linspace(0.0, 12.0, 41))
        devs = trajectory_deviations(cfg, psi0, table)
        assert list(devs) == ["dev_p", "dev_s", "dev_u"]
        for column in devs.values():
            assert len(column) == 41 and max(column) <= 1e-10

    def test_trajectory_deviations_see_a_wrong_row(self):
        table = trajectory(TILTED, EPS_PLUS, np.linspace(0.0, 3.0, 7))
        table["s2"][4] += 1e-6
        devs = trajectory_deviations(TILTED, EPS_PLUS, table)
        assert abs(devs["dev_s"][4] - 1e-6) <= 1e-9
        assert max(devs["dev_s"][:4] + devs["dev_s"][5:]) <= 1e-10

    def test_rabi_deviation(self):
        table = trajectory(TILTED, EPS_PLUS, np.linspace(0.0, 12.0, 41))
        gaps = rabi_deviation(TILTED, table)
        assert len(gaps) == 41 and max(gaps) <= 1e-12
        table["p_minus"][7] -= 1e-6
        gaps = rabi_deviation(TILTED, table)
        assert abs(gaps[7] - 1e-6) <= 1e-9
        assert max(gaps[:7] + gaps[8:]) <= 1e-12

    def test_rabi_deviation_where_the_field_length_overflows(self):
        # |B| is inf from finite components, so sin(theta) is inf / inf
        cfg = FieldConfig(B=(1.3e308, 1.3e308, 0.0))
        table = trajectory(cfg, EPS_PLUS, [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = rabi_deviation(cfg, table)
        assert len(gaps) == 1 and math.isnan(gaps[0])

    @pytest.mark.parametrize(
        "h",
        [
            Hamiltonian(0.3, (1.2, -0.7, 0.4)),
            Hamiltonian(-2.0, (0.0, 0.0, -1.5)),
            Hamiltonian(5.0, (0.0, 0.0, 0.0)),
        ],
        ids=["generic", "axial", "degenerate"],
    )
    def test_eigensystem_residuals(self, h):
        residuals = eigensystem_residuals(h, eigensystem(h))
        assert list(residuals) == [
            "residual_eigen_relation",
            "residual_oracle_eigenvalues",
            "residual_oracle_overlap",
        ]
        assert max(residuals.values()) <= 1e-9

    def test_eigensystem_residuals_see_a_wrong_eigenvalue(self):
        h = Hamiltonian(0.3, (1.2, -0.7, 0.4))
        es = eigensystem(h)
        residuals = eigensystem_residuals(h, es._replace(e_plus=es.e_plus + 1e-3))
        assert residuals["residual_oracle_eigenvalues"] >= 1e-3 - 1e-12
        assert residuals["residual_eigen_relation"] >= 1e-4


class TestPassRule:
    @pytest.mark.parametrize("position", range(4))
    def test_nan_anywhere_fails(self, position):
        devs = [1e-16, 0.0, 3e-15, 2e-16]
        devs[position] = float("nan")
        result = check("check", [devs], 1e-10)
        assert np.isnan(result.worst) and result.count == len(devs)
        assert not result.passed

    def test_nan_in_a_column_fails(self):
        columns = [[0.0, 1e-16], [2e-16, float("nan")], [0.0, 0.0]]
        result = check("check", columns, 1e-10)
        assert np.isnan(result.worst) and result.count == 6
        assert not result.passed

    def test_empty_is_zero(self):
        assert check("check", [], 0.0) == SuiteResult("check", 0.0, 0.0, 0)
        assert check("check", [[], np.empty((0, 3))], 0.0).passed

    @pytest.mark.parametrize("blocks, worst, count", [
        ([[-1.0]], 0.0, 1),
        ([[1, 2.5]], 2.5, 2),
        ([[np.float64(2.0), 1.0]], 2.0, 2),
        ([[float("inf"), 1.0]], float("inf"), 2),
        ([[], []], 0.0, 0),
        ([[1.0], np.array([5.0, 0.5])], 5.0, 3),
        ([np.array([[1.0, 3.0], [2.0, 0.0]])], 3.0, 2),
        (iter([[0.5], [1.5]]), 1.5, 2),
        ([[3.0, np.float64("nan")]], float("nan"), 2),
        ([[0.0], np.array([1.0, np.nan])], float("nan"), 3),
    ], ids=["negative", "int", "numpy_scalar", "inf", "empty_parts", "mixed_parts",
            "array", "iterator", "numpy_nan", "nan_in_array_part"])
    def test_as_numpy_max_with_initial_zero(self, blocks, worst, count):
        # lists reduce in Python, arrays by numpy, to the same value; the
        # parts are blocks, one of them an array, and the blocks may come
        # from an iterator
        result = check("check", blocks, 0.0)
        assert (result.worst.hex(), result.count) == (worst.hex(), count)

    def test_worst_at_tol_passes(self):
        result = check("check", [[1e-12, 3e-12, 2e-12]], 3e-12)
        assert result.worst == 3e-12 and result.passed
        assert not check("check", [[float("inf")]], 1e-10).passed

    @pytest.mark.parametrize("first", [[math.nan], np.array([[math.nan, 0.0]])])
    def test_nan_is_worst_across_blocks(self, first):
        # NaN in one block and a larger finite value in another, either way
        # round: a fold by the builtin max keeps 5.0 in one order or both
        later = np.array([[5.0, 1.0]])
        for blocks in ([first, later], [later, first]):
            result = check("check", blocks, 10.0)
            assert math.isnan(result.worst) and result.count == 2
            assert not result.passed


def reference_check(entries):
    """check's worst value, from the flat entries in pure Python."""
    if any(math.isnan(x) for x in entries):
        return math.nan
    worst = 0.0
    for x in entries:
        if x > worst:
            worst = x
    return worst


check_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]),
    st.floats(-1e300, 0.0),
    st.floats(allow_nan=False),
    st.floats(0.0, 2.2e-308),
)
block_shapes = st.sampled_from([None, (), (3,), (2, 2)])  # None: a list


@st.composite
def check_blocks(draw):
    """Blocks of cases as check reads them, and their flat entries."""
    blocks, entries = [], []
    for shape in draw(st.lists(block_shapes, max_size=5)):
        cases = draw(st.integers(0, 4))
        size = cases * math.prod(shape or ())
        values = draw(st.lists(check_entries, min_size=size, max_size=size))
        entries += values
        blocks.append(values if shape is None else np.array(values).reshape((cases, *shape)))
    return blocks, entries


class TestCheckMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(check_blocks())
    @example(([[-0.0], np.array([-0.0, -1.0])], [-0.0, -0.0, -1.0]))
    @example(([np.array([[math.nan, 1.0, 2.0]]), [math.inf]], [math.nan, 1.0, 2.0, math.inf]))
    def test_worst_and_count(self, blocks_and_entries):
        blocks, entries = blocks_and_entries
        result = check("check", iter(blocks), 0.0)
        assert result.worst.hex() == reference_check(entries).hex()
        assert result.count == sum(map(len, blocks))
        assert result.passed == (result.worst == 0.0)


# Per-draw references: the suites and checks as they ran before they took
# blocks, one draw or row at a time through the object API and the per-row
# oracle.  A check that raised there is NaN here, as in the batched code.


def nan_on_error(compute, shape, dtype=float):
    with np.errstate(all="ignore"):
        try:
            return np.asarray(compute(), dtype=dtype)
        except (ValueError, ArithmeticError, OverflowError):
            return np.full(shape, np.nan, dtype=dtype)


def object_homomorphism(a, b):
    ma, mb = Multivector(a), Multivector(b)
    return np.abs(rep(gp(ma, mb)) - rep(ma) @ rep(mb))


def reference_homomorphism(a, b):
    return nan_on_error(lambda: object_homomorphism(a, b), (2, 2))


def object_associativity(a, b, c):
    ma, mb, mc = Multivector(a), Multivector(b), Multivector(c)
    lhs = gp(gp(ma, mb), mc)
    rhs = gp(ma, gp(mb, mc))
    return np.abs(lhs.coeffs - rhs.coeffs) / max(1.0, norm(ma) * norm(mb) * norm(mc))


def reference_associativity(a, b, c):
    return nan_on_error(lambda: object_associativity(a, b, c), 8)


def reference_rabi(b, t):
    cfg = FieldConfig(B=tuple(b))
    h = hamiltonian_from_field(cfg)
    p_closed = nan_on_error(lambda: reference_rabi_probability(cfg.B, cfg.q, cfg.m, float(t)), ())
    p_rotor = nan_on_error(
        lambda: probability(EPS_MINUS, evolve(EPS_PLUS, evolution_rotor(h, t, cfg.hbar))), ())
    p_matrix = nan_on_error(lambda: reference_probability(
        spinor_rep(EPS_MINUS),
        reference_evolve(spinor_rep(EPS_PLUS), rep(h.as_multivector()), t, cfg.hbar),
    ), ())
    return np.abs([p_closed - p_rotor, p_rotor - p_matrix, p_closed - p_matrix])


def reference_run_all(seed, count):
    """The worst of each randomized suite, drawing per draw as before."""
    rng = np.random.default_rng(seed)
    span = 10.0
    hom = [reference_homomorphism(rng.uniform(-span, span, 8), rng.uniform(-span, span, 8))
           for _ in range(count)]
    assoc = [reference_associativity(*(rng.uniform(-span, span, 8) for _ in range(3)))
             for _ in range(count)]
    rabi = [reference_rabi(rng.uniform(-5.0, 5.0, 3), rng.uniform(0.0, 10.0))
            for _ in range(count)]
    return [reference_check(np.ravel(devs).tolist()).hex() for devs in (hom, assoc, rabi)]


def reference_deviations(cfg, psi0, table):
    h_mat = rep(hamiltonian_from_field(cfg).as_multivector())
    psi0_col = spinor_rep(psi0)
    s_mats = [0.5 * cfg.hbar * pauli(k) for k in (1, 2, 3)]
    devs = {"dev_p": [], "dev_s": [], "dev_u": []}
    for i, t in enumerate(table["t"]):
        col_t = nan_on_error(lambda: reference_evolve(psi0_col, h_mat, t, cfg.hbar), 2, complex)
        if abs(np.linalg.norm(col_t) - 1.0) <= STATE_NORM_TOL:
            p_ref = (abs(col_t[0]) ** 2, abs(col_t[1]) ** 2)
            s_ref = [nan_on_error(lambda: reference_expectation(s, col_t), ()) for s in s_mats]
        else:
            p_ref, s_ref = (np.nan,) * 2, (np.nan,) * 3
        refs = (
            ("dev_p", ("p_plus", "p_minus"), p_ref),
            ("dev_s", ("s1", "s2", "s3"), s_ref),
            ("dev_u", ("u1", "u2", "u3"),
             nan_on_error(lambda: u_vector_closed_form(cfg, t), 3)
             if cfg.b_norm > 0.0 else (0.0, 0.0, 1.0)),
        )
        for dev, columns, ref in refs:
            devs[dev].append(reference_check([abs(table[c][i] - r) for c, r in zip(columns, ref)]))
    return devs


def signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


# draws of the suites' own ranges, and out of them up to where products
# overflow, so that draws the per-draw object path rejects come into play
coefficient = st.one_of(
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
    signed(st.floats(-5.0, 200.0).map(lambda e: 10.0 ** e)),
)
coefficient_rows = st.lists(coefficient, min_size=8, max_size=8)
# fields of the suite's range (zero included) and beyond, up to where the
# closed form's angle |B| t, and then the rotor's phase (half of it), are
# not finite; such a draw has NaN gaps and the others keep theirs
field_component = st.one_of(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
    signed(st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)),
)
field_rows = st.tuples(field_component, field_component, field_component)


def blade(k, value):
    """A coefficient row with value at blade k and 0.0 elsewhere."""
    return [value if i == k else 0.0 for i in range(8)]


def assert_draws_match_objects(got, draws, compute, tol):
    """A row that the per-draw object path accepts equals its gaps by
    float.hex; a row that it rejects has a NaN or +inf worst gap, which
    fails check at tol."""
    for row, draw in zip(got, draws, strict=True):
        try:
            with np.errstate(all="ignore"):
                expected = compute(*draw)
        except ValueError:
            result = check("draw", [row[None]], tol)
            assert math.isnan(result.worst) or result.worst == math.inf, (draw, row)
            assert not result.passed
        else:
            assert hexes(row) == hexes(expected), draw


class TestBatchedSuitesMatchPerDraw:
    """Each suite's deviations, row by row, against the per-draw loop, by
    float.hex; a row whose per-draw computation raises is NaN, or, for the
    product suites, fails with its own NaN or inf gaps."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(coefficient_rows, coefficient_rows), min_size=1, max_size=6))
    @example([(blade(1, 1e200), blade(2, 1e200)), (blade(0, 1.0), blade(3, 2.0))])  # a b overflows
    def test_homomorphism(self, pairs):
        assert_draws_match_objects(_homomorphism_devs(np.array(pairs)), pairs,
                                   object_homomorphism, conformance.HOMOMORPHISM_TOL)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(coefficient_rows, coefficient_rows, coefficient_rows),
                    min_size=1, max_size=6))
    # (a b) c overflows in e123 alone, where a (b c) does too: NaN there, 0 elsewhere
    @example([(blade(7, 1e27), blade(7, 1e100), blade(7, 1e182))])
    @example([(blade(1, 1e200), blade(1, 1e200), [0.0] * 8)])  # a b overflows, c is zero
    def test_associativity(self, triples):
        assert_draws_match_objects(_associativity_devs(np.array(triples)), triples,
                                   object_associativity, conformance.ASSOCIATIVITY_TOL)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(field_rows, st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e6))),
                    min_size=1, max_size=6))
    @example([((1e308, 0.0, 0.0), 2.0), ((1.0, 2.0, 3.0), 0.5)])  # angle 2e308
    def test_rabi(self, draws):
        got = _rabi_devs(np.array([[*b, t] for b, t in draws]))
        assert [hexes(row) for row in got] == [hexes(reference_rabi(b, t)) for b, t in draws]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_run_all_draws_the_same_stream(self, seed, count):
        assert [r.worst.hex() for r in run_all(seed, count) if r.name != "commutators"] == (
            reference_run_all(seed, count))

    def test_run_all_across_blocks(self):
        count = _BLOCK_ROWS + 17
        assert [r.worst.hex() for r in run_all(11, count) if r.name != "commutators"] == (
            reference_run_all(11, count))


def test_memory_flat_in_count():
    # each suite draws and checks a block of rows at a time; drawing all
    # 40,000 draws at once would hold about 8 MB
    def peak(count):
        tracemalloc.start()
        try:
            run_all(0, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_all(0, 1)  # numpy's lazy set-up, outside the measurement
    assert peak(40_000) <= 1.1 * peak(2_000)


def test_homomorphism_sees_every_sign_flip(monkeypatch):
    # the tamper check: a single wrong sign in the product's term list
    left, right, sign, reversion = algebra._row_arrays()
    for term in range(64):
        flipped = sign.copy()
        flipped[term] = -flipped[term]
        monkeypatch.setattr(algebra, "_row_arrays", lambda: (left, right, flipped, reversion))
        result = suite_homomorphism(np.random.default_rng(term), 5)
        assert not result.passed, f"term {term}: worst={result.worst:.3e}"
    monkeypatch.undo()
    assert suite_homomorphism(np.random.default_rng(0), 5).passed


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("suite", [suite_homomorphism, suite_associativity])
def test_a_product_that_is_not_finite_fails_its_suite(monkeypatch, suite, bad):
    # the suites hold no mask of their own: a product coefficient that is
    # not finite, in one row of a draw in the suites' range, fails the suite
    # through that row's own gaps
    def tampered(a, b):
        out = algebra._gp_rows(a, b)
        out[3, 5] = bad
        return out

    monkeypatch.setattr(conformance, "_gp_rows", tampered)
    result = suite(np.random.default_rng(0), 20)
    assert result.count == 20 and not result.passed
    assert math.isnan(result.worst) if math.isnan(bad) else not math.isfinite(result.worst)


def test_commutator_gaps_are_the_object_paths(monkeypatch):
    # the nine gap rows, pair (i, j) in row-major order, bit for bit
    blocks = []
    monkeypatch.setattr(conformance, "check", lambda name, gaps, tol: blocks.extend(gaps))
    suite_commutators()
    s = twostate.spin_vectors(1.0)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    expected = []
    for i in range(3):
        for j in range(3):
            k = (3 - i - j) % 3  # any k where i = j, whose eps_ijk is 0
            gap = commutator(s[i], s[j]) - hodge_dual(s[k]) * eps[i, j, k]
            expected.append(np.abs(gap.coeffs))
    assert len(blocks) == 1 and hexes(blocks[0]) == hexes(expected)


def test_commutators_see_a_sign_flip(monkeypatch):
    # the suite reads the row kernels' term list: e1 e2 = -e12 must fail it
    left, right, sign, reversion = algebra._row_arrays()
    term = 8 * 1 + 6  # the term of blade e12 whose left factor is e1
    assert right[term] == 2
    flipped = sign.copy()
    flipped[term] = -flipped[term]
    monkeypatch.setattr(algebra, "_row_arrays", lambda: (left, right, flipped, reversion))
    result = suite_commutators()
    assert not result.passed, f"worst={result.worst:.3e}"
    monkeypatch.undo()
    assert suite_commutators().passed


def test_suites_stay_off_the_object_path(monkeypatch):
    # counters on the object path's product and length, in every module
    # that imports them by name
    calls = dict.fromkeys(["gp", "_norm3"], 0)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        original = getattr(algebra, name)
        for module in (algebra, spinor, twostate, matrixqm, conformance):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    suite_commutators()
    assert calls == {"gp": 0, "_norm3": 0}
    run_all(7, 300)
    # in-range fields take no Python length, and the products left are the
    # one of each Rabi block's psi0.is_normalized(), two blocks here
    assert calls["_norm3"] == 0 and calls["gp"] <= 2


class RecordingRng:
    """A seeded Generator whose uniform draws are recorded as they are made."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def uniform(self, low, high, size):
        self.draws.append(self.rng.uniform(low, high, size))
        return self.draws[-1]


def test_first_draws_are_pinned():
    # NumPy keeps PCG64's bit stream stable, but not Generator.uniform's
    # algorithm (NEP 19); a numpy that rounds its draws differently fails
    # here by name, before it moves a conformance golden
    rng = RecordingRng(2020)
    for suite in (suite_homomorphism, suite_associativity, suite_rabi_triangle):
        suite(rng, 1)
    assert [[float(x).hex() for x in draw.ravel()[:4]] for draw in rng.draws] == [
        ["-0x1.4487dfa66d520p-1", "0x1.25ba98c9b20c0p-2", "0x1.d1e7ae176e4b0p+2",
         "0x1.18d0b0a1c0ceap+2"],
        ["0x1.a165375a6f3acp+2", "0x1.1a8e6979e7ec8p+0", "-0x1.581fe9d8d447dp+2",
         "0x1.3517fcff393c6p+3"],
        ["-0x1.33d5f77c533c5p+2", "0x1.1cc1ac628c73ap+2", "0x1.3ba927c943b06p+2",
         "0x1.b45c12e863e1cp+2"],
    ]


class StubRng:
    """Hands out the given blocks in turn and records the sizes asked for."""

    def __init__(self, *blocks):
        self.blocks = [np.array(b, dtype=float) for b in blocks]
        self.sizes = []

    def uniform(self, low, high, size):
        assert np.array_equal(low, [-5.0, -5.0, -5.0, 0.0])
        assert np.array_equal(high, [5.0, 5.0, 5.0, 10.0])
        self.sizes.append(size)
        return self.blocks.pop(0)


class TestRabiDraws:
    # two zero fields, one of them with a -0.0
    BLOCK = [[0.5, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0, 3.0],
             [0.0, -0.0, 0.0, 4.0]]

    def test_one_block_and_zero_fields_are_valid(self):
        rng = StubRng(self.BLOCK)
        result = suite_rabi_triangle(rng, 4)
        assert rng.sizes == [(4, 4)]
        expected = reference_check(
            np.ravel([reference_rabi(row[:3], row[3]) for row in self.BLOCK]).tolist())
        assert (result.count, result.worst.hex()) == (4, expected.hex())
        # closed form, rotor route and matrix route all give probability 0
        gaps = _rabi_devs(np.array(self.BLOCK))
        assert gaps[[1, 3]].tolist() == [[0.0, 0.0, 0.0]] * 2

    def test_a_nan_in_the_second_block_fails_the_suite(self):
        # the draw whose angle |B| t = 2e308 is not finite has NaN gaps; a
        # fold that dropped NaN would pass on the finite first block
        first = [self.BLOCK[i % 4] for i in range(_BLOCK_ROWS)]
        second = [[1.0, 2.0, 3.0, 0.5], [1e308, 0.0, 0.0, 2.0]] + self.BLOCK[:2]
        rng = StubRng(first, second)
        result = suite_rabi_triangle(rng, _BLOCK_ROWS + 4)
        assert rng.sizes == [(_BLOCK_ROWS, 4), (4, 4)]
        assert math.isnan(result.worst) and result.count == _BLOCK_ROWS + 4
        assert not result.passed
        assert suite_rabi_triangle(StubRng(first), _BLOCK_ROWS).passed


# the closed form alone, beyond the suite's range: zero fields (one with a
# -0.0), subnormal and 1e300 components, couplings where q |B| overflows,
# and times at which the angle is not finite
closed_component = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    signed(st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e)),
)
closed_fields = st.one_of(
    st.sampled_from([(0.0, 0.0, 0.0), (0.0, -0.0, 0.0)]),
    st.tuples(closed_component, closed_component, closed_component),
)
couplings = st.sampled_from([
    (1.0, 1.0), (2.5, 0.3), (-1.5, 0.7), (1e300, 1e300), (-1e300, 1e300), (1e300, 1e-10),
])
closed_times = st.one_of(
    st.floats(-10.0, 10.0), st.floats(),
    st.sampled_from([0.0, -0.0, 1e-9, 1e308, math.inf, -math.inf, math.nan]),
)


def outcome(compute):
    """A closed form's float as float.hex, or the message it raised."""
    try:
        return float(compute()).hex()
    except ValueError as exc:
        return str(exc)


class TestClosedRabiMatchesPerDraw:
    """rabi_probability, the closed-form column of the Rabi suite and
    rabi_deviation against the per-draw formula of per_row_oracle, by
    float.hex, their raised messages included."""

    @settings(max_examples=300, deadline=None)
    @given(closed_fields, couplings, closed_times)
    @example((0.0, 0.0, 0.0), (1.0, 1.0), math.inf)
    @example((0.0, -0.0, 0.0), (1e300, 1e300), math.nan)
    @example((1e10, 0.0, 0.0), (1e300, 1e300), 1e-9)  # q |B| overflows
    @example((10.0, 0.0, 0.0), (1.0, 1.0), 1e308)  # the angle overflows
    @example((5e-324, 1e300, -2.5e-310), (2.5, 0.3), 0.7)
    def test_rabi_probability(self, b, qm, t):
        cfg = FieldConfig(B=b, q=qm[0], m=qm[1])
        assert outcome(lambda: rabi_probability(cfg, t)) == outcome(
            lambda: reference_rabi_probability(b, *qm, t))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(closed_fields, closed_times), min_size=1, max_size=6))
    @example([((0.0, 0.0, 0.0), math.inf), ((1.0, 2.0, 3.0), 0.5)])
    @example([((1.0, 2.0, 3.0), 0.5), ((10.0, 0.0, 0.0), 1e308), ((1.0, 0.0, 0.0), math.nan)])
    def test_suite_closed_column(self, draws):
        closed = []

        def spy(*args):
            closed.append(twostate._rabi_rows(*args))
            return closed[-1]

        with mock.patch.object(conformance, "_rabi_rows", spy):
            gaps = _rabi_devs(np.array([[*b, t] for b, t in draws]))
        # NaN where the per-draw formula raises, and in that draw's gaps
        expected = [nan_on_error(lambda: reference_rabi_probability(b, 1.0, 1.0, t), ())
                    for b, t in draws]
        assert hexes(closed[0]) == hexes(expected)
        assert np.isnan(gaps[np.isnan(expected)][:, [0, 2]]).all()

    @settings(max_examples=150, deadline=None)
    @given(closed_fields, couplings,
           st.lists(st.tuples(closed_times, st.floats(0.0, 1.0)), max_size=6))
    @example((0.0, 0.0, 0.0), (1.0, 1.0), [(math.inf, 0.25), (1.0, 0.0)])
    @example((1e10, 0.0, 0.0), (1e300, 1e300), [(1e-9, 0.5)])
    def test_rabi_deviation(self, b, qm, rows):
        cfg = FieldConfig(B=b, q=qm[0], m=qm[1])
        table = {"t": [t for t, _ in rows], "p_minus": [p for _, p in rows]}
        # NaN where the per-draw formula raises
        assert hexes(rabi_deviation(cfg, table)) == hexes([
            nan_on_error(lambda: abs(p - reference_rabi_probability(b, *qm, t)), ())
            for t, p in rows])


check_fields = st.one_of(
    st.just(FieldConfig(B=(0.0, 0.0, 0.0))),
    st.builds(lambda b3, hbar: FieldConfig(B=(0.0, 0.0, b3), hbar=hbar),
              st.floats(-5.0, 5.0), st.sampled_from([1.0, 0.9, 1e6])),
    st.builds(lambda b, q, hbar: FieldConfig(B=b, q=q, hbar=hbar),
              st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
              st.floats(0.2, 3.0), st.sampled_from([1.0, 0.9, 1e6])),
)
check_times = st.one_of(
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e9, 1e30]),
)


def hex_columns(devs):
    return {name: [v.hex() for v in column] for name, column in devs.items()}


class TestDeviationsMatchPerRow:
    """trajectory_deviations on blocks against the per-row oracle loop, by
    float.hex: the dev_* columns of evolve --check."""

    @settings(max_examples=150, deadline=None)
    @given(check_fields, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi),
           st.lists(check_times, min_size=1, max_size=6))
    # past a phase of about 9e307 the closed form breaks down: dev_u is 0, 2^-55, NaN
    @example(FieldConfig(B=(1e308, 0.0, 0.0)), 0.7, -1.2, [0.0, 0.5, 1.9])
    def test_rows(self, cfg, theta0, phi0, t_grid):
        psi0 = polar_state(theta0, phi0)
        try:
            table = trajectory(cfg, psi0, t_grid)
        except ValueError:
            assume(False)
        assert hex_columns(trajectory_deviations(cfg, psi0, table)) == hex_columns(
            reference_deviations(cfg, psi0, table))

    @pytest.mark.parametrize("cfg", [
        FieldConfig(B=(0.0, 0.0, 0.0)),
        FieldConfig(B=(0.0, 0.0, -1.3), hbar=0.9),
        FieldConfig(B=(0.4, -1.1, 2.2), q=1.5, m=0.7, hbar=0.9),
    ], ids=["zero", "axial", "general"])
    def test_grid_longer_than_a_block(self, cfg):
        psi0 = polar_state(0.7, -1.2)
        table = trajectory(cfg, psi0, np.linspace(-3.0, 40.0, 2 * _BLOCK_ROWS + 5))
        assert hex_columns(trajectory_deviations(cfg, psi0, table)) == hex_columns(
            reference_deviations(cfg, psi0, table))

    def test_empty_table(self):
        cfg = FieldConfig(B=(1.0, 0.0, 0.0))
        table = trajectory(cfg, EPS_PLUS, [])
        assert trajectory_deviations(cfg, EPS_PLUS, table) == {
            "dev_p": [], "dev_s": [], "dev_u": []}
