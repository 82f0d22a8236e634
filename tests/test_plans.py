"""Interned languages, restriction plans, column fills, column arithmetic,
clopen-set algebra, matrix stacks, the stage routines, positive-element
stacks and fiber grouping against the word-at-a-time rules they replaced
(``tests/oracles.py``), and the close test against ``np.isclose``."""

import json
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    OracleNotHermitian,
    PositiveElementOracle,
    allclose_oracle,
    approximate_oracle,
    basis_element_oracle,
    basis_slots_oracle,
    beta_boundary_oracle,
    binary_oracle,
    class_leq_oracle,
    compose_shift_oracle,
    conj_oracle,
    cuntz_leq_oracle,
    eps_cut_oracle,
    equal_exact_oracle,
    equal_oracle,
    factor_oracle,
    first_difference_oracle,
    form_key,
    gamma_component_oracle,
    lift_oracle,
    lift_series_oracle,
    matrix_restrict_oracle,
    matrix_stack_oracle,
    matrix_table_of,
    matrix_value_oracle,
    matrix_values_on_oracle,
    phi_range_oracle,
    project_oracle,
    rc_witness_oracle,
    repair_gluing_oracle,
    scale_oracle,
    series_adjoint_oracle,
    series_json,
    series_mul_oracle,
    series_of,
    set_form,
    setop_oracle,
    shift_oracle,
    table_of,
    tower_unions_oracle,
    translates_oracle,
    unit_disc_oracle,
    values_on_oracle,
    vanishes_on_oracle,
    words_on_oracle,
)
from rokhlin import rsh
from rokhlin.crossed import (
    CylinderFunction,
    FormalElement,
    _unit_disc,
    approximate_with_vanishing,
    gamma_component,
    gamma_symbolic,
    project_to_subalgebra,
    sample_subalgebra_element,
)
from rokhlin.cuntz import (
    CuntzClass,
    PositiveElement,
    cuntz_leq,
    eps_cut,
    rc_witness_test,
)
from rokhlin.errors import (
    BoundSearchExceeded,
    NonPrimitive,
    NotHermitian,
    PathMismatch,
    PeriodicSystem,
    WindowTooSmall,
)
from rokhlin.matrixfn import MatrixCylinderFunction, close
from rokhlin.rsh import (
    StageElement,
    _repair_gluing,
    _stage_windows,
    beta_boundary,
    build_approximating_system,
    lift,
    phi_range_check,
    sample_stage_element,
    stage_from_gamma,
)
from rokhlin.subshift import ClopenSet, SubstitutionSystem, Window
from rokhlin.towers import admissible_sequences, build_towers

STANDARD_RULES = [
    {"0": "01", "1": "0"},
    {"0": "01", "1": "00"},
    {"0": "01", "1": "10"},
    {"0": "01", "1": "02", "2": "0"},
    {"a": "ab", "b": "ac", "c": "db", "d": "dc"},
]


def _system(rules):
    try:
        return SubstitutionSystem(sorted(rules), rules)
    except (NonPrimitive, PeriodicSystem):
        assume(False)


@st.composite
def _rules(draw):
    """Rules on 2-3 letters with images of length 1-3."""
    alphabet = "abc"[:draw(st.integers(2, 3))]
    image = st.text(alphabet=alphabet, min_size=1, max_size=3)
    return {a: draw(image) for a in alphabet}


@st.composite
def _cylinder_union(draw, system):
    """A union of cylinders over a window of length 1-3 at ``lo`` in -3..2."""
    length = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 2))
    words = sorted(system.language(length))
    picked = draw(st.sets(st.sampled_from(words), max_size=len(words)))
    return ClopenSet(system, Window(lo, lo + length - 1), picked)


@st.composite
def _cover(draw, C):
    """A window covering ``C``'s, padded by 0-3 coordinates on each side."""
    return Window(C.window.lo - draw(st.integers(0, 3)),
                  C.window.hi + draw(st.integers(0, 3)))


@st.composite
def _function(draw, system):
    """A cylinder function on a window of length 1-3 at ``lo`` in -2..2,
    zero on a drawn subset of its words."""
    length = draw(st.integers(1, 3))
    lo = draw(st.integers(-2, 2))
    words = sorted(system.language(length))
    values = {w: complex(k + 1, -k) for k, w in enumerate(words)
              if draw(st.booleans())}
    return CylinderFunction(system, Window(lo, lo + length - 1), values)


class TestLanguagePrefixes:
    @pytest.mark.parametrize("rules", STANDARD_RULES)
    def test_standard_systems_match_long_word(self, rules):
        system = SubstitutionSystem(sorted(rules), rules)
        for length in range(40, 0, -1):
            assert system.language(length) == factor_oracle(rules, length)

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None)
    @given(_rules())
    def test_drawn_systems_match_long_word(self, rules):
        system = _system(rules)
        for length in range(40, 0, -1):
            assert system.language(length) == factor_oracle(rules, length)


class TestUnitDisc:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 987654321])
    def test_array_draw_equals_scalar_draws_bit_for_bit(self, seed):
        for count in (0, 1, 2, 9, 1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _unit_disc(rng, count)
            want = np.array([unit_disc_oracle(ref) for _ in range(count)],
                            dtype=complex)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestRestrictionPlans:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_words_on_matches_filter(self, data):
        system = _system(data.draw(_rules()))
        C = data.draw(_cylinder_union(system))
        window = data.draw(_cover(C))
        assert C.words_on(window) == words_on_oracle(C, window)
        words = system.lexicon(window.length)[0][C.indices_on(window)]
        assert list(words) == sorted(words_on_oracle(C, window))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_vanishes_on_matches_tabulation(self, data):
        system = _system(data.draw(_rules()))
        C = data.draw(_cylinder_union(system))
        f = data.draw(_function(system))
        assert f.vanishes_on(C) == vanishes_on_oracle(f, C)
        cut = f * CylinderFunction.indicator(C.complement())
        assert cut.vanishes_on(C) and vanishes_on_oracle(cut, C)
        if not C.is_empty():
            hull = f.window.hull(C.window)
            word = data.draw(st.sampled_from(sorted(words_on_oracle(C, hull))))
            poke = cut + CylinderFunction.indicator(system.cylinder(hull, word))
            assert not poke.vanishes_on(C)
            assert not vanishes_on_oracle(poke, C)


def _bitwise(A, B) -> bool:
    return A.shape == B.shape and A.tobytes() == B.tobytes()


def _assert_lift_matches(S, b):
    a = lift(S, b)
    want = lift_oracle(S, b)
    assert list(a.terms) == list(want)
    for n, (window, values) in want.items():
        f = a.terms[n]
        assert f.window == window
        assert {w: v for w, v in f.values.items() if v != 0} == values


class TestColumnFills:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(_rules(), st.integers(1, 2), st.integers(0, 63),
           st.sampled_from(["full", "standard"]), st.integers(0, 2**32 - 1))
    def test_gamma_and_lift_match_entry_rules(self, rules, length, pick,
                                              variant, seed):
        system = _system(rules)
        words = sorted(system.language(length))
        Y = system.cylinder(Window(0, length - 1), words[pick % len(words)])
        try:
            S = build_towers(Y, variant)
        except BoundSearchExceeded:
            assume(False)
        assume(max(S.heights) <= 12)
        rng = np.random.default_rng(seed)
        a = sample_subalgebra_element(system, S.Y, rng, max(S.heights) + 1,
                                      max_support=3)
        for i in range(S.m + 1):
            comp = gamma_component(a, S, i)
            window, values = gamma_component_oracle(a, S, i)
            assert comp.window == window
            assert set(comp.values) == set(values)
            assert all(_bitwise(comp.values[w], M) for w, M in values.items())
        _assert_lift_matches(S, stage_from_gamma(a, S))
        _assert_lift_matches(S, sample_stage_element(S, rng))


    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(_rules(), st.integers(0, 63), st.integers(0, 2**32 - 1),
           st.integers(0, 2), st.integers(0, 2),
           st.sampled_from([0.0, -0.0, 1e-13, 1e-10, float("nan"),
                            float("inf")]),
           st.sampled_from([0.0, 1e-12, 1e-9]))
    def test_allclose_matches_word_rule(self, rules, pick, seed, left, right,
                                        delta, atol):
        system = _system(rules)
        words = sorted(system.language(1))
        Y = system.cylinder(Window(0, 0), words[pick % len(words)])
        try:
            S = build_towers(Y, "full")
        except BoundSearchExceeded:
            assume(False)
        assume(max(S.heights) <= 12)
        rng = np.random.default_rng(seed)
        a, b = (sample_stage_element(S, rng) for _ in range(2))
        for l in range(S.m + 1):
            f = a.components[l]
            # f re-tabulated on a wider window, one entry moved by delta
            wide = Window(f.window.lo - left, f.window.hi + right)
            table = {w: f.value(w, wide) for w in f.base.words_on(wide)}
            moved = sorted(table)[pick % len(table)]
            table[moved] = table[moved] + delta
            g = MatrixCylinderFunction(f.base, wide, f.size, table)
            for x, y in ((f, g), (g, f), (f, b.components[l])):
                assert x.allclose(y, atol=atol) is allclose_oracle(x, y, atol)


SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]


@st.composite
def _float_function(draw, system):
    """A cylinder function on a window of length 1-3 at ``lo`` in -2..2 with
    random values on the unit disc, signed zeros at some words and no
    value (zero) at others."""
    length = draw(st.integers(1, 3))
    lo = draw(st.integers(-2, 2))
    words = sorted(system.language(length))
    disc = _unit_disc(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      len(words)).tolist()
    values = {}
    for w, v in zip(words, disc):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            continue
        values[w] = draw(st.sampled_from(SIGNED_ZEROS)) if kind == 1 else v
    return CylinderFunction(system, Window(lo, lo + length - 1), values)


@st.composite
def _series(draw, system):
    """A series with 1-3 terms at distinct degrees in -3..3."""
    degrees = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))
    return FormalElement(system, {n: draw(_float_function(system))
                                  for n in sorted(degrees)})


def _values_json(values) -> dict:
    return {w: [v.real, v.imag] for w, v in sorted(values.items())}


def _table_bytes(f) -> bytes:
    """A function's window and table as JSON, signed zeros and every bit of
    each value included."""
    return json.dumps({"window": [f.window.lo, f.window.hi],
                       "values": _values_json(f.values)}).encode()


def _series_bytes(a: FormalElement, want: dict) -> tuple:
    """The library series' ``to_json`` bytes, and the oracle's in that shape."""
    return (json.dumps(a.to_json()).encode(),
            json.dumps(series_json(want)).encode())


class TestColumnArithmetic:
    """Sums, products, scaling, conjugation, shifts, re-windowing and
    projection on complex columns equal the word-by-word CPython arithmetic
    byte for byte: a product computed with a fused multiply-add differs in
    the last bit of some values."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_function_arithmetic_matches_tables(self, data):
        system = _system(data.draw(_rules()))
        f = data.draw(_float_function(system))
        g = data.draw(_float_function(system))
        tf, tg = table_of(f), table_of(g)
        for got, op in ((f + g, operator.add), (f - g, operator.sub),
                        (f * g, operator.mul)):
            assert _table_bytes(got) == _table_bytes(binary_oracle(tf, tg, op))
        c = data.draw(st.sampled_from([-1.0, 0.5j, complex(-0.0, 2.0)])
                      | st.complex_numbers(max_magnitude=4.0))
        assert _table_bytes(f.scale(c)) == _table_bytes(scale_oracle(tf, c))
        assert _table_bytes(f.conj()) == _table_bytes(conj_oracle(tf))
        j = data.draw(st.integers(-4, 4))
        assert (_table_bytes(f.compose_shift(j))
                == _table_bytes(compose_shift_oracle(tf, j)))
        window = data.draw(_cover(f))
        got = f.values_on(window)
        assert list(got) == sorted(got)
        assert (json.dumps(_values_json(got)).encode()
                == json.dumps(_values_json(values_on_oracle(tf, window))).encode())
        for h in (f, f - f, f - f.conj(), f + f.conj()):
            assert h.is_zero() == all(v == 0 for v in h.values.values())
        assert f.sup_norm() == max(abs(v) for v in tf.values.values())

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_series_arithmetic_matches_tables(self, data):
        system = _system(data.draw(_rules()))
        a = data.draw(_series(system))
        b = data.draw(_series(system))
        Y = data.draw(_cylinder_union(system))
        ta, tb = series_of(a), series_of(b)
        for got, want in ((a * b, series_mul_oracle(ta, tb)),
                          (a.adjoint(), series_adjoint_oracle(ta)),
                          (project_to_subalgebra(a, Y), project_oracle(ta, Y))):
            left, right = _series_bytes(got, want)
            assert left == right


class TestClopenSetAlgebra:
    """Set operations, shifts, translates and tower unions equal the word-set
    rules in ``(window, sorted words)``, so in canonical form as well."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_set_algebra_matches_word_sets(self, data):
        system = _system(data.draw(_rules()))
        sets = [data.draw(_cylinder_union(system)) for _ in range(2)]
        sets += [system.full_set(), system.empty_set()]
        for C in sets:
            F = set_form(C)
            for j in (-3, -1, 0, 2):
                assert form_key(C.shift(j)) == form_key(shift_oracle(F, j))
            for n in (-3, -1, 0, 1, 3):
                assert (form_key(C.translates(n))
                        == form_key(translates_oracle(F, n)))
            for D in sets:
                G = set_form(D)
                for got, op in ((C & D, operator.and_), (C | D, operator.or_),
                                (C - D, operator.sub)):
                    assert form_key(got) == form_key(setop_oracle(F, G, op))
                assert (C == D) is equal_oracle(F, G)

    @staticmethod
    def _assert_unions_match_fold(S):
        want = tower_unions_oracle(S)
        assert form_key(S.tower_union(-1)) == ((0, 0), [])
        assert ([form_key(S.tower_union(l)) for l in range(S.m + 1)]
                == [form_key(X) for X in want])

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(_rules(), st.integers(1, 2), st.integers(0, 63),
           st.sampled_from(["full", "standard"]))
    def test_tower_unions_match_level_fold(self, rules, length, pick, variant):
        system = _system(rules)
        words = sorted(system.language(length))
        Y = system.cylinder(Window(0, length - 1), words[pick % len(words)])
        try:
            S = build_towers(Y, variant)
        except BoundSearchExceeded:
            assume(False)
        assume(max(S.heights) <= 12)
        self._assert_unions_match_fold(S)

    @pytest.mark.parametrize("rules", STANDARD_RULES)
    def test_standard_tower_unions_match_level_fold(self, rules):
        system = SubstitutionSystem(sorted(rules), rules)
        for word in sorted(system.language(2))[:3]:
            for variant in ("full", "standard"):
                self._assert_unions_match_fold(
                    build_towers(system.cylinder(Window(0, 1), word), variant))

    def test_hand_built_tower_unions_match_level_fold(self, pd101_defects):
        for S in pd101_defects.values():
            self._assert_unions_match_fold(S)


def _table_of_matrices(table: dict) -> bytes:
    """A word -> matrix table as bytes, word after word in sorted order,
    signed zeros and every bit of each entry included."""
    return b"".join(w.encode() + np.asarray(M, dtype=complex).tobytes()
                    for w, M in sorted(table.items()))


def _rewritten(b: StageElement, rewrite) -> StageElement:
    """``b`` with every matrix replaced by ``rewrite`` of a writable copy."""
    return StageElement(tuple(
        MatrixCylinderFunction(f.base, f.window, f.size,
                               {w: rewrite(M.copy()) for w, M in f.values.items()})
        for f in b.components))


def _free_components(S, rng) -> list:
    """Random components over the stage windows, not yet glued: normal
    entries, a third of them signed zeros in both parts and a sixth real
    with a signed zero imaginary part."""
    out = []
    for T, window, r in zip(S.bases, _stage_windows(S), S.heights):
        table = {}
        for w in sorted(words_on_oracle(T, window)):
            re, im = rng.standard_normal((2, r, r))
            kind = rng.integers(6, size=(r, r))
            re[kind < 2] = np.copysign(0.0, rng.standard_normal(r * r)).reshape(r, r)[kind < 2]
            im[kind < 3] = np.copysign(0.0, rng.standard_normal(r * r)).reshape(r, r)[kind < 3]
            M = table[w] = np.empty((r, r), dtype=complex)
            M.real, M.imag = re, im
        out.append(MatrixCylinderFunction(T, window, r, table))
    return out


def _stage_elements(S, free, rng) -> list:
    """The free components repaired into the gluing, so signed zeros sit
    where lift reads; the same moved by about 1e-14 per entry, so that
    overlapping paths glue values that differ in their last bits; and a
    sparse element from the evaluation with random signs on its zero parts.
    All three are stage elements: -0.0 equals 0.0, and 1e-14 is inside the
    gluing tolerance."""
    def signed(M):
        for part in (M.real, M.imag):
            part[(part == 0) & (rng.random(M.shape) < 0.5)] = -0.0
        return M

    def nudged(M):
        return M + 1e-14 * (rng.standard_normal(M.shape)
                            + 1j * rng.standard_normal(M.shape))

    a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1,
                                  max_support=2)
    repaired = _repair_gluing(S, free)
    return [repaired, _rewritten(repaired, nudged),
            _rewritten(stage_from_gamma(a, S), signed)]


class TestStageTables:
    """Reads of a matrix function's stack, its restrictions, the glued
    boundaries, the gluing repair and ``lift`` equal the word-table rules
    byte for byte, signed zeros included: a row map or a plan offset that
    is off, a boundary where the last path wins, or a lift that copies a
    signed zero each fail here."""

    @staticmethod
    def _assert_reads_match(S, l, f, rng):
        t = matrix_table_of(f)
        wide = Window(f.window.lo - int(rng.integers(3)),
                      f.window.hi + int(rng.integers(3)))
        words = sorted(words_on_oracle(f.base, wide))
        index = S.system.lexicon(wide.length)[1]
        picked = [words[int(k)] for k in rng.integers(len(words), size=6)]
        got = f.stack(np.array([index[w] for w in picked], dtype=int), wide)
        assert _bitwise(got, matrix_stack_oracle(t, picked, wide))
        for w in picked[:2]:
            assert _bitwise(f.value(w, wide), matrix_value_oracle(t, w, wide))
        assert (_table_of_matrices(f.values_on(wide))
                == _table_of_matrices(matrix_values_on_oracle(t, wide)))
        off_base = sorted(set(S.system.language(wide.length)) - set(words))
        if off_base:
            with pytest.raises(PathMismatch):
                f.stack(np.array([index[off_base[0]]]), wide)
        subsets = [S.boundaries[l]]
        subsets += [path.path_set for path in admissible_sequences(S, l)]
        for subset in subsets:
            got = f.restrict(subset)
            window, want = matrix_restrict_oracle(t, subset)
            assert got.window == window
            assert _table_of_matrices(got.values) == _table_of_matrices(want)

    def _assert_tables_match(self, S, seed):
        rng = np.random.default_rng(seed)
        paths = [admissible_sequences(S, l) for l in range(S.m + 1)]
        free = _free_components(S, rng)
        want = repair_gluing_oracle([matrix_table_of(f) for f in free], paths)
        for got, t in zip(_repair_gluing(S, free).components, want):
            assert got.window == t.window
            assert _table_of_matrices(got.values) == _table_of_matrices(t.values)
        for b in _stage_elements(S, free, rng):
            tables = [matrix_table_of(f) for f in b.components]
            for l, f in enumerate(b.components):
                self._assert_reads_match(S, l, f, rng)
            for l in range(1, S.m + 1):
                D = S.boundaries[l]
                if D.is_empty():
                    continue
                got = beta_boundary(S, l, b)
                window, want = beta_boundary_oracle(D, paths[l], tables)
                assert got.window == window
                assert _table_of_matrices(got.values) == _table_of_matrices(want)
            a = lift(S, b)
            want = lift_series_oracle(S, b)
            assert list(a.terms) == list(want)
            left, right = _series_bytes(a, want)
            assert left == right

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(_rules(), st.integers(1, 2), st.integers(0, 63),
           st.sampled_from(["full", "standard"]), st.integers(0, 2**32 - 1))
    def test_drawn_systems_match_word_tables(self, rules, length, pick,
                                             variant, seed):
        system = _system(rules)
        words = sorted(system.language(length))
        Y = system.cylinder(Window(0, length - 1), words[pick % len(words)])
        try:
            S = build_towers(Y, variant)
        except BoundSearchExceeded:
            assume(False)
        assume(max(S.heights) <= 12)
        self._assert_tables_match(S, seed)

    def test_word_reads_build_no_plan(self, rudin):
        # word reads on fresh windows, as the evaluate operations make them,
        # use the table and no restriction plan
        rng = np.random.default_rng(3)
        a = sample_subalgebra_element(rudin.system, rudin.Y, rng,
                                      max(rudin.heights) + 1)
        comps = [gamma_component(a, rudin, i) for i in range(rudin.m + 1)]
        kept = len(rudin.system._restrictions)
        for f in comps:
            wide = Window(f.window.lo - 2, f.window.hi + 1)
            word = sorted(words_on_oracle(f.base, wide))[0]
            assert f.value(word, wide) is f.values[
                word[2 : 2 + f.window.length]]
        assert len(rudin.system._restrictions) == kept

    @pytest.mark.parametrize("seed", [0, 1])
    def test_overlapping_paths_match_word_tables(self, rudin, seed):
        # Rudin-Shapiro has boundary words on several paths, so the first
        # path's value and the last one's differ on the nudged sample
        self._assert_tables_match(rudin, seed)


class TestCloseTest:
    """``matrixfn.close`` is ``np.isclose(a, b, rtol=0, atol=atol)`` at
    every pair of complex values built from signed zeros, infinities, NaN
    and differences exactly at ``atol`` and one ulp beyond it."""

    @pytest.mark.parametrize("atol", [0.0, 1e-12, 1e-9])
    def test_matches_isclose_entry_for_entry(self, atol):
        parts = [0.0, -0.0, 1.0, -1.0, 1e-13, float("inf"), float("-inf"),
                 float("nan"), atol, -atol, np.nextafter(atol, np.inf),
                 1.0 + atol, np.nextafter(1.0 + atol, np.inf)]
        values = np.array([complex(re, im) for re in parts for im in parts])
        a, b = np.meshgrid(values, values)
        got = close(a, b, atol)
        want = np.isclose(a, b, rtol=0.0, atol=atol)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)


# -- exact comparison and the matrix-unit basis ---------------------------------

# entries planted on both sides of an exact comparison: signed zeros in either
# part, infinities, NaN, and two values one ulp apart
SPECIAL = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0,
           np.nextafter(1.0, 2.0), float("inf"), float("-inf"),
           complex(0.0, float("inf")), float("nan"), complex(1.0, float("nan"))]


def _planted(f, row: int, j: int, k: int, value, window) -> MatrixCylinderFunction:
    """``f`` with entry ``(j, k)`` of its ``row``-th word set to ``value``,
    tabulated on ``window``, which covers ``f.window``."""
    stack = f._stack.copy()
    stack[row, j, k] = value
    g = MatrixCylinderFunction._from_stack(f.base, f.window, stack)
    return MatrixCylinderFunction._from_stack(
        f.base, window, g.stack(f.base.indices_on(window), window))


def _replaced(b: StageElement, l: int, f) -> StageElement:
    return StageElement((*b.components[:l], f, *b.components[l + 1:]))


def _comparison_pairs(S, rng, count: int) -> list:
    """Pairs of stage elements drawn around one sample ``b``: entries from
    ``SPECIAL`` planted at the same or at different words, each side on its
    own window widened by 0-2 coordinates a side; and pairs that differ in
    their level count, in one component's size or in one component's base."""
    b = sample_stage_element(S, rng)
    pairs = []
    for _ in range(count):
        l = int(rng.integers(S.m + 1))
        f = b.components[l]
        r = f.size
        sides = []
        for _ in range(2):
            row = int(rng.integers(len(f._stack))) if rng.random() < 0.3 else 0
            wide = Window(f.window.lo - int(rng.integers(3)),
                          f.window.hi + int(rng.integers(3)))
            value = SPECIAL[int(rng.integers(len(SPECIAL)))]
            sides.append(_replaced(b, l, _planted(f, row, 0, r - 1, value, wide)))
        pairs.append(tuple(sides))
    for l in range(S.m + 1):
        f = b.components[l]
        pairs.append((b, b.truncate(l - 1) if l else StageElement(())))
        pairs.append((b, _replaced(b, l, MatrixCylinderFunction.identity(
            f.base, f.size + 1))))
        pairs.append((b, _replaced(b, l, MatrixCylinderFunction.constant(
            S.system.full_set(), f._stack[0]))))
    return pairs


def _comparison_systems(reference_systems, tm):
    systems = [build_towers(Y, "full") for _, _, _, Y in reference_systems]
    return systems + [build_towers(tm.cylinder(Window(0, 3), "0110"), "full")]


class TestExactComparison:
    """``first_difference`` and ``equal_exact`` decide as the level check
    plus per-component ``allclose(atol=0.0)`` did, and name the first
    differing block that a word-by-word ``np.isclose`` finds."""

    def test_sweep_matches_the_allclose_rule(self, reference_systems, tm):
        rng = np.random.default_rng(17)
        verdicts = set()
        for S in _comparison_systems(reference_systems, tm):
            for left, right in _comparison_pairs(S, rng, 40):
                for x, y in ((left, right), (right, left)):
                    want = equal_exact_oracle(x, y)
                    verdicts.add(want)
                    assert x.equal_exact(y) is want
                    assert x.first_difference(y) == first_difference_oracle(x, y)
        assert verdicts == {True, False}

    def test_special_entries_compare_as_close_at_zero(self, pd_full):
        # every ordered pair of SPECIAL values at one entry of the top
        # component, one side widened: -0.0 equals 0.0, inf equals itself,
        # NaN equals nothing
        b = StageElement.identity(pd_full)
        f = b.components[1]
        wide = Window(f.window.lo - 1, f.window.hi + 2)
        for x in SPECIAL:
            for y in SPECIAL:
                left = _replaced(b, 1, _planted(f, 0, 1, 0, x, f.window))
                right = _replaced(b, 1, _planted(f, 0, 1, 0, y, wide))
                same = bool(close(np.array(x), np.array(y), 0.0))
                assert left.equal_exact(right) is same
                assert equal_exact_oracle(left, right) is same
                assert (left.first_difference(right) is None) is same


class TestBasisRows:
    """The matrix units addressed by ``(tower, row, j, k)`` are, in order and
    byte for byte, the word-addressed units on words that no path set of
    their own tower covers, repaired word by word; every word-addressed unit
    left out repairs to the zero element, and every one kept is nonzero."""

    def test_row_addressed_basis_matches_word_addressed(self, reference_systems,
                                                        tm, pd):
        systems = _comparison_systems(reference_systems, tm)
        systems.append(build_towers(pd.cylinder(Window(0, 2), "101"), "full"))
        dropped_total = 0
        for S in systems:
            windows = _stage_windows(S)
            paths = [admissible_sequences(S, l) for l in range(S.m + 1)]
            words = [sorted(words_on_oracle(T, w))
                     for T, w in zip(S.bases, windows)]
            glued = [frozenset().union(*(words_on_oracle(path.path_set, w)
                                         for path in paths[i]))
                     for i, w in enumerate(windows)]
            want_slots = basis_slots_oracle(S.bases, windows, S.heights)
            kept = [slot for slot in want_slots if slot[1] not in glued[slot[0]]]
            dropped = [slot for slot in want_slots if slot[1] in glued[slot[0]]]
            slots = rsh._basis_slots(S)
            assert [(i, words[i][row], j, k) for i, row, j, k in slots] == kept
            for slot, b in zip(kept, rsh.stage_basis_elements(S), strict=True):
                want = basis_element_oracle(S.bases, windows, S.heights,
                                            paths, slot)
                assert any(M.any() for t in want for M in t.values.values())
                for got, t in zip(b.components, want, strict=True):
                    assert got.window == t.window
                    assert (_table_of_matrices(got.values)
                            == _table_of_matrices(t.values))
            for slot in dropped:
                want = basis_element_oracle(S.bases, windows, S.heights,
                                            paths, slot)
                assert not any(M.any() for t in want for M in t.values.values())
            dropped_total += len(dropped)
        assert dropped_total

    def test_pool_is_the_interior_words_times_the_units(self, rudin, pd):
        # the paths of both systems cover every D_l, so the free rows are
        # the interior words T_i^0 on each stage window
        pd101 = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        for S, size in ((rudin, 1352), (pd101, 472)):
            interior = sum(len(T0.indices_on(w)) * r * r for T0, w, r in
                           zip(S.interiors, _stage_windows(S), S.heights))
            assert len(rsh._basis_slots(S)) == interior == size


# -- positive elements ---------------------------------------------------------

# eigenvalues on both sides of the rank tolerance (1e-8) and of the
# negative-eigenvalue tolerance (-1e-10)
EIGENVALUES = [0.0, 0.0, 1e-9, 1e-7, 1e-3, 0.5, 1.0]
NEGATIVE = [-1e-11, -1e-9]


def _psd(rng, n, lam) -> np.ndarray:
    """``V diag(lam) V*`` for a random unitary ``V``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return (Q * np.asarray(lam, dtype=float)) @ Q.conj().T


def _signed_diagonal(rng, n) -> np.ndarray:
    """A real diagonal matrix whose zero entries carry random signs."""
    M = np.diag(rng.choice(EIGENVALUES, size=n)).astype(complex)
    zero = M == 0
    M.real[zero] = np.copysign(0.0, rng.standard_normal(n * n)).reshape(n, n)[zero]
    M.imag[:] = np.copysign(0.0, rng.standard_normal((n, n)))
    return M


def _matrix(rng, n: int, kind: int) -> np.ndarray:
    """Kinds 0-4 are positive: random unitary conjugates of drawn spectra,
    diagonals with signed zeros and projections.  Kinds 5-7 are positive
    only at the tolerance edge or not at all: an entry moved off symmetry,
    an eigenvalue of -1e-11 or -1e-9, and a non-finite entry."""
    if kind <= 1:
        return _psd(rng, n, rng.choice(EIGENVALUES, size=n))
    if kind == 2:
        return _signed_diagonal(rng, n)
    if kind == 3:
        return np.diag((np.arange(n) < rng.integers(n + 1)).astype(float))
    if kind == 4:
        return _psd(rng, n, np.full(n, rng.choice(EIGENVALUES)))
    M = _psd(rng, n, rng.choice(EIGENVALUES, size=n))
    if n == 0:
        return M
    if kind == 5:
        i, j = rng.integers(n, size=2)
        M[i, j] += 1e-9 * (1 if i != j else 1j)
    elif kind == 6:
        M = _psd(rng, n, [rng.choice(NEGATIVE)] + list(rng.choice(EIGENVALUES, size=n - 1)))
    else:
        i, j = rng.integers(n, size=2)
        M[i, j] = rng.choice([np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    return M


@st.composite
def _matrix_table(draw, base, size, bad: bool):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {w: _matrix(rng, size, draw(st.integers(0, 7 if bad else 4)))
            for w in base}


@st.composite
def _base(draw):
    return tuple(draw(st.permutations(["w0", "w1", "w2"]))[:draw(st.integers(1, 3))])


def _outcome(build, *args):
    """The built element, or the kind and message of the error it raised."""
    try:
        return build(*args), None
    except (NotHermitian, OracleNotHermitian) as e:
        return None, ("not Hermitian", str(e))
    except ValueError as e:
        return None, ("value", str(e))


def _float_bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestPositiveStacks:
    """Validation, ranks, cuts, distances, padding, sums and the three
    rank-domination verdicts of stacked positive elements equal the
    word-by-word rules byte for byte, signed zeros included: a check that
    names the last bad word, a rank tolerance of 1e-6 or a batched cut that
    moves a bit each fail here."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_validation_names_the_first_bad_word(self, data):
        base = data.draw(_base())
        size = data.draw(st.integers(0, 4))
        table = data.draw(_matrix_table(base, size, bad=True))
        got, error = _outcome(PositiveElement, base, size, table)
        want, want_error = _outcome(PositiveElementOracle, base, size, table)
        assert error == want_error
        if got is not None:
            assert list(got.values) == list(want.values)
            assert _table_of_matrices(got.values) == _table_of_matrices(want.values)
            assert all(not M.flags.writeable for M in got.values.values())

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_operations_match_word_rules(self, data):
        base = data.draw(_base())
        sizes = [data.draw(st.integers(0, 4)) for _ in range(2)]
        tables = [data.draw(_matrix_table(base, n, bad=False)) for n in sizes]
        tables.append(data.draw(_matrix_table(base, sizes[0], bad=False)))
        sizes.append(sizes[0])
        elems = [PositiveElement(base, n, t) for n, t in zip(sizes, tables)]
        oracles = [PositiveElementOracle(base, n, t)
                   for n, t in zip(sizes, tables)]
        (a, b, c), (oa, ob, oc) = elems, oracles
        for x, ox in zip(elems, oracles):
            assert list(x.rank_profile().items()) == list(ox.rank_profile().items())
        eps = data.draw(st.sampled_from([0.0, 1e-9, 1e-7, 0.3, 0.7, 2.0]))
        extra = data.draw(st.integers(0, 2))
        for got, want in ((eps_cut(a, eps), eps_cut_oracle(oa, eps)),
                          (a.pad_to(a.size + extra), oa.pad_to(oa.size + extra)),
                          (a.direct_sum(b), oa.direct_sum(ob))):
            assert got.size == want.size
            assert _table_of_matrices(got.values) == _table_of_matrices(want.values)
        assert _float_bytes(a.distance(c)) == _float_bytes(oa.distance(oc))
        for (x, ox), (y, oy) in ((pair, other) for pair in zip(elems, oracles)
                                 for other in zip(elems, oracles)):
            assert cuntz_leq(x, y) is cuntz_leq_oracle(ox, oy)
            assert (CuntzClass.of(x) <= CuntzClass.of(y)) is class_leq_oracle(
                ox.rank_profile(), oy.rank_profile())
            for n in (1, 2, 3):
                for m in (0, 1, 2):
                    assert rc_witness_test(n, m, x, y) is rc_witness_oracle(n, m, ox, oy)


# -- fibers of a projection --------------------------------------------------


def _preimage_bytes(preimage):
    return None if preimage is None else [_table_of_matrices(t) for t in preimage]


def _widened(f, rng):
    """``f`` tabulated on a window one or two coordinates wider, each row
    moved by about 1e-14: the rows of one fiber then differ within the
    1e-12 tolerance."""
    wide = Window(f.window.lo - int(rng.integers(1, 3)), f.window.hi + 1)
    stack = f.stack(f.base.indices_on(wide), wide)
    stack = stack + 1e-14 * (rng.standard_normal(stack.shape)
                             + 1j * rng.standard_normal(stack.shape))
    return MatrixCylinderFunction._from_stack(f.base, wide, stack)


def _doubled_top(comps):
    top = comps[-1]
    return comps[:-1] + [MatrixCylinderFunction._from_stack(
        top.base, top.window, 2.0 * top._stack)]


class TestFiberGrouping:
    """``phi_range_check`` and ``approximate_with_vanishing`` group words by
    fiber through one restriction plan; their verdicts, reasons, preimages,
    columns and achievable errors equal the dict and language loops byte for
    byte.  A grouping keyed by a fiber's last row fails on the widened,
    nudged components, whose fibers agree only within the tolerance."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(_rules(), st.integers(1, 2), st.integers(0, 63),
           st.sampled_from(["full", "standard"]), st.integers(0, 2**32 - 1))
    def test_phi_range_matches_fiber_loop(self, rules, length, pick, variant,
                                          seed):
        system = _system(rules)
        words = sorted(system.language(length))
        Y = system.cylinder(Window(0, length - 1), words[pick % len(words)])
        try:
            S = build_towers(Y, variant)
        except BoundSearchExceeded:
            assume(False)
        assume(max(S.heights) <= 12)
        A = build_approximating_system(S, Y.window)
        rng = np.random.default_rng(seed)
        paths = [admissible_sequences(S, l) for l in range(S.m + 1)]
        inside = sample_subalgebra_element(system, Y, rng, max(S.heights) + 1,
                                           max_support=2,
                                           window_lengths=(1,), lo_range=(0, 0))
        wider = sample_subalgebra_element(system, Y, rng, max(S.heights) + 1,
                                          max_support=2,
                                          window_lengths=(1, 2, 3),
                                          lo_range=(-2, 1))
        plain = gamma_symbolic(inside, S)
        cases = [plain, gamma_symbolic(wider, S),
                 [_widened(f, rng) for f in plain], _doubled_top(plain)]
        for comps in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rsh, "gamma_symbolic", lambda a, S: comps)
                got = phi_range_check(S, A, inside)
            reason, preimage = phi_range_oracle(comps, A.proj_windows,
                                                S.bases, paths)
            assert got.reason == reason
            assert got.ok is (preimage is not None)
            assert _preimage_bytes(got.preimage) == _preimage_bytes(preimage)

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_approximation_matches_language_loop(self, data):
        system = _system(data.draw(_rules()))
        B = data.draw(_cylinder_union(system))
        f = data.draw(_float_function(system)) * CylinderFunction.indicator(
            B.complement())
        length = data.draw(st.integers(1, 3))
        lo = data.draw(st.integers(-2, 2))
        I = Window(lo, lo + length - 1)
        err, want = approximate_oracle(table_of(f), B, I, 1e300)
        got = approximate_with_vanishing(f, B, I, 1e300)
        assert got.window == want.window
        assert _table_bytes(got) == _table_bytes(want)
        if err > 0:
            with pytest.raises(WindowTooSmall) as raised:
                approximate_with_vanishing(f, B, I, err)
            assert _float_bytes(raised.value.achievable) == _float_bytes(err)
        else:
            assert approximate_with_vanishing(f, B, I, 1e-300).window == I
