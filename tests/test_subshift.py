import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_oracle
from rokhlin.errors import NonPrimitive, PeriodicSystem, WindowTooSmall
from rokhlin.subshift import (
    ClopenSet,
    PointWindow,
    SubstitutionSystem,
    Window,
    fibonacci,
)
from conftest import FIB_RULES, PD_RULES, TM_RULES


class TestLanguage:
    def test_fibonacci_small_lengths(self, fib):
        assert fib.language(2) == {"00", "01", "10"}
        assert fib.language(3) == {"001", "010", "100", "101"}

    def test_length_one_is_alphabet(self, fib, pd, tm):
        for system in (fib, pd, tm):
            assert system.language(1) == set(system.alphabet)

    def test_sturmian_complexity(self, fib):
        for n in range(1, 13):
            assert fib.complexity(n) == n + 1

    @pytest.mark.parametrize("rules", [FIB_RULES, PD_RULES, TM_RULES])
    def test_matches_long_word_oracle(self, rules):
        system = SubstitutionSystem(["0", "1"], rules)
        for length in range(1, 9):
            assert system.language(length) == factor_oracle(rules, length)

    @pytest.mark.parametrize("rules", [FIB_RULES, PD_RULES, TM_RULES])
    def test_factor_closure(self, rules):
        system = SubstitutionSystem(["0", "1"], rules)
        for n in range(1, 10):
            longer = system.language(n + 1)
            shorter = system.language(n)
            for w in longer:
                assert w[:-1] in shorter and w[1:] in shorter
            for w in shorter:
                assert any(v[:-1] == w or v[1:] == w for v in longer)

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitive):
            SubstitutionSystem(["0", "1"], {"0": "01", "1": "1"})

    def test_periodic_rejected(self):
        with pytest.raises(PeriodicSystem):
            SubstitutionSystem(["0", "1"], {"0": "01", "1": "01"})

    def test_three_letter_system(self):
        system = SubstitutionSystem(["a", "b", "c"],
                                    {"a": "ab", "b": "ca", "c": "ab"})
        rules = {"a": "ab", "b": "ca", "c": "ab"}
        for length in range(1, 7):
            assert system.language(length) == factor_oracle(rules, length)


class TestClopenSets:
    def test_intersection_forbidden_word(self, fib):
        a = fib.cylinder(Window(0, 0), "1")
        b = fib.cylinder(Window(1, 1), "1")
        assert (a & b).is_empty()

    def test_intersection_idempotent(self, fib):
        c = fib.cylinder(Window(0, 1), "01")
        assert (c & c) == c

    def test_period_doubling_intersection(self, pd):
        a = ClopenSet(pd, Window(0, 1), {"00"})
        b = pd.cylinder(Window(0, 0), "0") & pd.cylinder(Window(2, 2), "0")
        assert (a & b) == pd.cylinder(Window(0, 2), "000")

    def test_shift_moves_constraints(self, fib):
        c = fib.cylinder(Window(0, 0), "1")
        assert c.shift(1) == fib.cylinder(Window(-1, -1), "1")
        assert c.shift(1).shift(-1) == c

    def test_shift_of_full_set(self, fib):
        full = fib.full_set()
        assert full.shift(5) == full

    def test_member(self, fib, pd):
        p = PointWindow(pd, Window(0, 2), "010")
        assert pd.cylinder(Window(0, 0), "0").contains_point(p)
        assert not pd.empty_set().contains_point(p)
        t0 = fib.cylinder(Window(0, 0), "1") & fib.cylinder(Window(2, 2), "1")
        q = PointWindow(fib, Window(0, 3), "0100")
        assert not t0.contains_point(q)

    def test_member_window_too_small(self, fib):
        c = fib.cylinder(Window(0, 0), "1") & fib.cylinder(Window(2, 2), "1")
        assert c.window == Window(0, 2)
        with pytest.raises(WindowTooSmall):
            c.contains_point(PointWindow(fib, Window(0, 1), "01"))

    def test_rejects_inadmissible_words(self, fib):
        with pytest.raises(ValueError):
            ClopenSet(fib, Window(0, 1), {"11"})

    def test_canonical_full_and_empty(self, fib):
        full = ClopenSet(fib, Window(-3, -1), fib.language(3))
        assert full.window == Window(0, 0)
        assert full == fib.full_set()
        empty = ClopenSet(fib, Window(2, 4), set())
        assert empty.window == Window(0, 0)
        assert empty.is_empty()

    def test_unconstrained_sets_ignore_window_position(self, fib):
        # the normalized empty and full sets answer for any window, even one
        # far from their canonical anchor
        far = Window(17, 19)
        assert fib.empty_set().words_on(far) == frozenset()
        assert fib.full_set().words_on(far) == fib.language(3)
        p = PointWindow(fib, far, sorted(fib.language(3))[0])
        assert fib.full_set().contains_point(p)
        assert not fib.empty_set().contains_point(p)

    def test_canonical_trims_forced_coordinates(self, pd):
        # x1 = 1 forces x0 = 0 and x2 = 0, so the window shrinks to [1, 1].
        c = ClopenSet(pd, Window(0, 2), {"010"})
        assert c.window == Window(1, 1)
        assert c.words == {"1"}
        assert c == pd.cylinder(Window(0, 2), "010")

    def test_extend_then_restrict_is_identity(self, fib):
        c = fib.cylinder(Window(0, 1), "10")
        wide = Window(-2, 3)
        again = ClopenSet(fib, wide, c.words_on(wide))
        assert again == c
        assert (again.window, again.words) == (c.window, c.words)


def _explicit_translates(Y, n):
    """``Y_n`` unrolled: ``h^0 .. h^{n-1}`` of ``Y``, or ``h^{-1} .. h^n``."""
    out = Y.system.empty_set()
    for j in (range(n) if n > 0 else range(-1, n - 1, -1)):
        out = out | Y.shift(j)
    return out


class TestTranslates:
    ORDERS = {
        # large |n| first, negative before positive
        "outside-in": sorted(range(-8, 9), key=lambda n: (-abs(n), n)),
        "ascending": list(range(-8, 9)),
        "mixed": [3, -5, 0, 8, -1, 1, -8, 5, 2, -2, 7, -7, 4, -4, 6, -6, -3],
    }

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_matches_explicit_union(self, order, reference_systems):
        for _, _, system, Y in reference_systems:
            for base in (Y, system.full_set(), system.empty_set()):
                fresh = ClopenSet(system, base.window, base.words)
                for n in self.ORDERS[order]:
                    assert fresh.translates(n) == _explicit_translates(base, n)

    def test_zero_and_repeat_calls(self, fib_y):
        Y = ClopenSet(fib_y.system, fib_y.window, fib_y.words)
        assert Y.translates(0).is_empty()
        assert Y.translates(4) is Y.translates(4)
        assert Y.translates(-4) is Y.translates(-4)


def _clopen_sets(system):
    lang3 = sorted(system.language(3))

    @st.composite
    def build(draw):
        lo = draw(st.integers(min_value=-3, max_value=2))
        words = draw(st.frozensets(st.sampled_from(lang3), max_size=len(lang3)))
        return ClopenSet(system, Window(lo, lo + 2), words)

    return build()


FIB = fibonacci()


class TestSetAlgebraLaws:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=_clopen_sets(FIB), b=_clopen_sets(FIB), c=_clopen_sets(FIB))
    def test_boolean_laws(self, a, b, c):
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        assert ((a & b) & c) == (a & (b & c))
        assert (a & (b | c)) == ((a & b) | (a & c))
        assert (a - b) == (a & (FIB.full_set() - b))
        assert (FIB.full_set() - (a | b)) == \
            ((FIB.full_set() - a) & (FIB.full_set() - b))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=_clopen_sets(FIB), b=_clopen_sets(FIB),
           j=st.integers(min_value=-4, max_value=4),
           n=st.integers(min_value=-8, max_value=8))
    def test_shift_equivariance(self, a, b, j, n):
        assert (a & b).shift(j) == (a.shift(j) & b.shift(j))
        assert (a | b).shift(j) == (a.shift(j) | b.shift(j))
        assert a.shift(j).shift(-j) == a
        assert a.shift(j).translates(n) == a.translates(n).shift(j)
        assert a.translates(n) == _explicit_translates(a, n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=_clopen_sets(FIB))
    def test_canonicalization_idempotent(self, a):
        wide = Window(a.window.lo - 2, a.window.hi + 2)
        again = ClopenSet(FIB, wide, a.words_on(wide))
        assert (again.window, again.words) == (a.window, a.words)
