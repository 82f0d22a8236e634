"""Interned languages, restriction plans and column fills against the
word-at-a-time rules they replaced (``tests/oracles.py``)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    factor_oracle,
    gamma_component_oracle,
    lift_oracle,
    unit_disc_oracle,
    vanishes_on_oracle,
    words_on_oracle,
)
from rokhlin.crossed import (
    CylinderFunction,
    _unit_disc,
    gamma_component,
    sample_subalgebra_element,
)
from rokhlin.errors import BoundSearchExceeded, NonPrimitive, PeriodicSystem
from rokhlin.rsh import lift, sample_stage_element, stage_from_gamma
from rokhlin.subshift import ClopenSet, SubstitutionSystem, Window
from rokhlin.towers import build_towers

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
