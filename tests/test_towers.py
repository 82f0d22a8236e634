import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    admissible_sequences_oracle,
    boundary_path_cover_oracle,
    gap_oracle,
    partition_identities_oracle,
    return_piece_words,
)
from rokhlin.errors import BoundSearchExceeded, NonPrimitive, PeriodicSystem
from rokhlin import towers
from rokhlin.subshift import SubstitutionSystem, Window, fibonacci
from rokhlin.towers import (
    VARIANTS,
    RokhlinSystem,
    admissible_sequences,
    boundary_path_cover,
    build_towers,
    partition_identities,
    return_profile,
    return_time_bound,
    verify_rokhlin_axioms,
)
from conftest import FIB_RULES, PD_RULES, TM_RULES


class TestReturnTimes:
    def test_fibonacci_bound_and_times(self, fib, fib_y):
        assert return_time_bound(fib_y) == 3
        prof = return_profile(fib_y)
        assert prof.times == (2, 3)
        assert prof.times == tuple(sorted(gap_oracle(FIB_RULES, ["1"])))

    def test_fibonacci_pieces_match_oracle(self, fib, fib_y):
        prof = return_profile(fib_y)
        piece2 = fib.cylinder(Window(0, 0), "1") & fib.cylinder(Window(2, 2), "1")
        assert prof.piece(2) == piece2
        piece3 = (fib.cylinder(Window(0, 0), "1")
                  & fib.cylinder(Window(3, 3), "1")) - piece2
        assert prof.piece(3) == piece3
        for r in (2, 3):
            words = return_piece_words(FIB_RULES, ["1"], r, 4)
            assert prof.piece(r).words_on(Window(0, 3)) == words

    def test_period_doubling_times(self, pd_y):
        assert return_time_bound(pd_y) == 2
        assert return_profile(pd_y).times == (1, 2)
        assert set(return_profile(pd_y).times) == gap_oracle(PD_RULES, ["0"])

    def test_thue_morse_times(self, tm_y):
        assert return_profile(tm_y).times == (1, 2, 3)
        assert set(return_profile(tm_y).times) == gap_oracle(TM_RULES, ["1"])

    def test_full_set_returns_immediately(self, fib):
        Y = fib.full_set()
        assert return_time_bound(Y) == 1
        prof = return_profile(Y)
        assert prof.times == (1,)
        assert prof.piece(1) == Y

    def test_fibonacci_wide_cylinder(self, fib):
        Y = fib.cylinder(Window(0, 2), "100")
        assert return_profile(Y).times == (3, 5)
        assert set(return_profile(Y).times) == gap_oracle(FIB_RULES, ["100"])

    def test_bound_search_exceeded(self):
        shallow = fibonacci(depth=2)
        with pytest.raises(BoundSearchExceeded):
            return_time_bound(shallow.cylinder(Window(0, 0), "1"))


class TestBuildTowers:
    def test_period_doubling_full(self, pd, pd_full):
        S = pd_full
        assert S.heights == (1, 2)
        assert S.m == 1
        assert S.bases[0] == pd.cylinder(Window(0, 1), "00")
        assert S.bases[1] == (pd.cylinder(Window(0, 0), "0")
                              & pd.cylinder(Window(2, 2), "0"))
        assert S.boundaries[1] == pd.cylinder(Window(0, 2), "000")
        assert not S.boundaries[1].is_empty()
        assert S.interiors[1] == pd.cylinder(Window(0, 2), "010")

    def test_fibonacci_full(self, fib, fib_full):
        S = fib_full
        assert S.heights == (2, 3)
        assert S.boundaries[1].is_empty()
        assert S.bases[1] == (fib.cylinder(Window(0, 0), "1")
                              & fib.cylinder(Window(3, 3), "1"))

    def test_full_set_towers(self, fib):
        for variant in ("standard", "full"):
            S = build_towers(fib.full_set(), variant)
            assert S.m == 0
            assert S.heights == (1,)
            assert S.bases[0] == fib.full_set()
            assert S.boundaries[0].is_empty()

    def test_heights_match_gap_oracle(self, reference_systems):
        expected = {"fibonacci": (2, 3), "period_doubling": (1, 2),
                    "thue_morse": (1, 2, 3)}
        for name, rules, system, Y in reference_systems:
            for variant in ("standard", "full"):
                S = build_towers(Y, variant)
                assert S.heights == expected[name]
                pattern = sorted(Y.words)[0]
                assert set(S.heights) == gap_oracle(rules, [pattern])

    def test_standard_inside_full(self, reference_systems):
        for _, _, _, Y in reference_systems:
            std = build_towers(Y, "standard")
            full = build_towers(Y, "full")
            assert std.heights == full.heights
            for a, b, i0, i1 in zip(std.bases, full.bases,
                                    std.interiors, full.interiors):
                assert a.issubset(b)
                assert i0 == i1


class TestAxioms:
    def test_built_systems_pass(self, reference_systems):
        for _, _, _, Y in reference_systems:
            for variant in ("standard", "full"):
                S = build_towers(Y, variant)
                rep = verify_rokhlin_axioms(S)
                assert rep.passed, rep.conditions

    def test_standard_is_irredundant(self, reference_systems):
        for _, _, _, Y in reference_systems:
            assert verify_rokhlin_axioms(build_towers(Y, "standard")).irredundant

    def test_full_variant_irredundancy_tracks_boundaries(self, fib_full, pd_full):
        assert verify_rokhlin_axioms(fib_full).irredundant
        assert not verify_rokhlin_axioms(pd_full).irredundant

    def test_swapped_heights_fail_monotonicity(self, pd, pd_full):
        S = pd_full
        bad = RokhlinSystem(pd, "full", S.Y,
                            bases=(S.bases[1], S.bases[0]),
                            heights=(S.heights[1], S.heights[0]))
        rep = verify_rokhlin_axioms(bad)
        assert not rep.conditions["heights-nondecreasing"]

    def test_wrong_base_fails_return_condition(self, pd, pd_y, pd_full):
        bad = RokhlinSystem(pd, "full", pd_y,
                            bases=(pd_full.bases[0], pd_y),
                            heights=pd_full.heights)
        rep = verify_rokhlin_axioms(bad)
        assert not rep.passed

    def test_full_set_passes_irredundant(self, fib):
        rep = verify_rokhlin_axioms(build_towers(fib.full_set(), "full"))
        assert rep.passed and rep.irredundant


class TestPartitions:
    def test_reference_systems_pass(self, reference_systems):
        for _, _, _, Y in reference_systems:
            for variant in ("standard", "full"):
                rep = partition_identities(build_towers(Y, variant))
                assert rep.passed, rep.identities

    def test_full_set_trivial(self, fib):
        rep = partition_identities(build_towers(fib.full_set(), "full"))
        assert rep.passed

    def test_period_doubling_tower_one_levels(self, pd, pd_full):
        S = pd_full
        level0 = S.level(1, 0)
        level1 = S.level(1, 1)
        assert level0 == pd.cylinder(Window(0, 2), "010")
        assert level1 == pd.cylinder(Window(0, 2), "010").shift(1)
        assert (level0 & level1).is_empty()

    def test_return_time_bounded_on_bases(self, reference_systems):
        # every word of T_l returns within r_l steps
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            prof = return_profile(Y)
            for T, r in zip(S.bases, S.heights):
                early = system.empty_set()
                for time, piece in prof.levels:
                    if time <= r:
                        early = early | piece
                assert T.issubset(early)

    def test_identities_stable_under_wider_window(self, pd_full):
        rep1 = partition_identities(pd_full)
        wide = Window(rep1.window.lo - 3, rep1.window.hi + 3)
        full_words = pd_full.system.language(wide.length)
        levels = [pd_full.level(l, j) for l in range(pd_full.m + 1)
                  for j in range(pd_full.heights[l])]
        seen = set()
        total = 0
        for piece in levels:
            words = piece.words_on(wide)
            total += len(words)
            seen |= words
        assert total == len(seen) == len(full_words)


class TestPaths:
    def test_period_doubling_paths(self, pd, pd_full):
        paths = admissible_sequences(pd_full, 1)
        assert [p.mu for p in paths] == [(0, 0)]
        assert paths[0].path_set == pd.cylinder(Window(0, 2), "000")
        assert paths[0].path_set.issubset(pd_full.boundaries[1])

    def test_fibonacci_no_composition(self, fib_full):
        assert admissible_sequences(fib_full, 1) == []

    def test_level_zero_empty(self, pd_full):
        assert admissible_sequences(pd_full, 0) == []

    def test_lexicographic_order(self, tm_full):
        paths = admissible_sequences(tm_full, 2)
        mus = [p.mu for p in paths]
        assert mus == sorted(mus)
        assert (0, 1) in mus and (1, 0) in mus
        # (0, 0, 0) composes the height but no point follows it
        compositions = {mu: path_set for mu, _, path_set
                        in admissible_sequences_oracle(tm_full, 2)}
        assert compositions[(0, 0, 0)].is_empty()
        for p in paths:
            assert sum(tm_full.heights[i] for i in p.mu) == tm_full.heights[2]
            assert p.path_set.issubset(tm_full.boundaries[2])

    def test_boundary_cover(self, reference_systems):
        for _, _, _, Y in reference_systems:
            for variant in ("standard", "full"):
                S = build_towers(Y, variant)
                for l in range(S.m + 1):
                    assert boundary_path_cover(S, l)

    def test_period_doubling_boundary_is_single_path(self, pd_full):
        paths = admissible_sequences(pd_full, 1)
        assert paths[0].path_set == pd_full.boundaries[1]

    def test_unrealized_heights_give_no_paths(self, pd):
        # 10,946 compositions of 20 into 1s and 2s, none followed by a point
        S = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        S = RokhlinSystem(S.system, S.variant, S.Y, S.bases, (1, 2, 20))
        assert admissible_sequences(S, 2) == []


def _explicit_union(sets, system):
    out = system.empty_set()
    for C in sets:
        out = out | C
    return out


class TestStoredData:
    def _systems(self, reference_systems, rudin, pd101_defects):
        out = [build_towers(Y, variant) for _, _, _, Y in reference_systems
               for variant in ("standard", "full")]
        return out + [rudin, *pd101_defects.values()]

    def test_levels_and_unions_match_explicit_loops(
            self, reference_systems, rudin, pd101_defects):
        for S in self._systems(reference_systems, rudin, pd101_defects):
            for l in range(S.m + 1):
                for j in range(S.heights[l]):
                    assert S.level(l, j) == S.interiors[l].shift(j)
                closed = [S.bases[i].shift(j) for i in range(l + 1)
                          for j in range(S.heights[i])]
                assert S.tower_union(l) == _explicit_union(closed, S.system)

    def test_level_outside_the_tower_raises(self, pd_full):
        with pytest.raises(IndexError):
            pd_full.level(1, pd_full.heights[1])
        with pytest.raises(IndexError):
            pd_full.level(1, -1)

    @pytest.mark.parametrize(
        "heights", [(0, 6, 14), (2, 0, 14), (2, 6, -1), (-3, 6, 14)],
        ids=["zero-bottom", "zero-middle", "negative-top", "negative-bottom"])
    def test_heights_below_one_rejected(self, pd101_defects, heights):
        S = pd101_defects["short-top"]
        with pytest.raises(ValueError):
            RokhlinSystem(S.system, S.variant, S.Y, S.bases, heights)

    def test_built_system_keeps_its_profile(self, pd_y, monkeypatch):
        calls = []

        def counted(Y):
            calls.append(Y)
            return return_profile(Y)

        monkeypatch.setattr(towers, "return_profile", counted)
        S = build_towers(pd_y, "full")
        assert S.profile is S.profile
        assert verify_rokhlin_axioms(S).passed
        assert calls == [pd_y]

    def test_hand_built_system_profiles_its_own_y(self, pd101_defects):
        for S in pd101_defects.values():
            built = return_profile(S.Y)
            assert S.profile is S.profile
            assert S.profile.Y is S.Y and S.profile.bound == built.bound
            assert S.profile.times == built.times
            assert all(piece == want for (_, piece), (_, want)
                       in zip(S.profile.levels, built.levels))

    def test_planted_wrong_height_fails_axioms(self, pd101_defects):
        # true heights (2, 6, 14): the middle tower's height 7 is no return
        # time, so its top leaves Y and the profile has no fiber for it
        S = pd101_defects["tall-middle"]
        rep = verify_rokhlin_axioms(S)
        assert not rep.passed
        assert {k for k, v in rep.conditions.items() if not v} == {
            "tops-return-to-Y", "interior-return-time-exact",
            "height-attained-on-base"}

    def test_paths_are_built_once(self, rudin):
        for l in range(rudin.m + 1):
            assert admissible_sequences(rudin, l) is \
                admissible_sequences(rudin, l)


class TestNegativeControls:
    """Each planted defect makes exactly these identities and path levels
    fail, so the checks can tell a broken system from a sound one."""

    EXPECTED = {
        "short-top": ({"backward-union-partition", "levels-partition-X",
                       "orbit-of-Y-covers-X", "tops-partition-Y",
                       "complement-partition"}, [2]),
        "tall-middle": ({"forward-union-partition",
                         "backward-union-partition", "levels-partition-X",
                         "tops-partition-Y", "complement-partition"}, [1, 2]),
        "no-top": ({"interiors-partition-Y", "levels-partition-X",
                    "tops-partition-Y", "forward-union-partition",
                    "backward-union-partition", "orbit-of-Y-covers-X",
                    "complement-partition"}, []),
        # the one defect the identities miss; at level 2 the path cover and
        # the tiling hold, and only the interior levels meeting X_1 fail it
        "stray-boundary": (set(), [1, 2]),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_defect_is_caught(self, name, pd101_defects):
        S = pd101_defects[name]
        identities, levels = self.EXPECTED[name]
        rep = partition_identities(S)
        assert {k for k, v in rep.identities.items() if not v} == identities
        assert [l for l in range(S.m + 1)
                if not boundary_path_cover(S, l)] == levels


def _hand_built_variants(S):
    """``S`` with each height moved by one either way, and with each base
    dropped, as far as every height stays at least 1 and a base is left."""
    out = []
    for i in range(S.m + 1):
        for step in (-1, 1):
            heights = list(S.heights)
            heights[i] += step
            if heights[i] >= 1:
                out.append(RokhlinSystem(S.system, S.variant, S.Y, S.bases,
                                         heights))
        if S.m > 0:
            out.append(RokhlinSystem(S.system, S.variant, S.Y,
                                     S.bases[:i] + S.bases[i + 1:],
                                     S.heights[:i] + S.heights[i + 1:]))
    return out


def _check_verdicts(S):
    """The identities and the per-level boundary verdicts of ``S``, from the
    one-pass checks and from the pairwise oracles."""
    levels = range(S.m + 1)
    checks = (partition_identities(S).identities,
              [boundary_path_cover(S, l) for l in levels])
    oracles = (partition_identities_oracle(S),
               [boundary_path_cover_oracle(S, l, admissible_sequences(S, l))
                for l in levels])
    return checks, oracles


class TestChecksMatchPairwiseOracles:
    """The one-pass tower checks give the booleans of the pairwise
    definitions, identity by identity and level by level, on sound and on
    broken systems."""

    @pytest.fixture(scope="class")
    def systems(self, reference_systems, rudin, pd101_defects, pd, tm):
        out = [build_towers(Y, variant) for _, _, _, Y in reference_systems
               for variant in ("standard", "full")]
        out += [rudin, *pd101_defects.values()]
        for Y, heights in ((pd.cylinder(Window(0, 2), "101"), (2, 6, 14)),
                           (tm.cylinder(Window(0, 3), "0110"), (4, 6, 8))):
            S = build_towers(Y, "full")
            assert S.heights == heights
            out += _hand_built_variants(S)
        return out

    def test_paths_match_oracle(self, systems):
        for S in systems:
            for l in range(S.m + 1):
                got = [(p.mu, p.offsets, p.path_set)
                       for p in admissible_sequences(S, l)]
                want = [entry for entry in admissible_sequences_oracle(S, l)
                        if not entry[2].is_empty()]
                assert got == want, (S, l)

    def test_verdicts_match(self, systems):
        failing = 0
        for S in systems:
            checks, oracles = _check_verdicts(S)
            assert checks == oracles, S
            identities, levels = checks
            failing += not (all(identities.values()) and all(levels))
        # the hand-built variants break the checks, so agreement is not vacuous
        assert 0 < failing < len(systems)


@st.composite
def _small_substitutions(draw):
    """Rules on 2-3 letters with images of length 1-3, a cylinder length of
    1-2, an index into that length's language and a tower variant."""
    alphabet = "abc"[:draw(st.integers(2, 3))]
    image = st.text(alphabet=alphabet, min_size=1, max_size=3)
    rules = {a: draw(image) for a in alphabet}
    return (rules, draw(st.integers(1, 2)), draw(st.integers(0, 63)),
            draw(st.sampled_from(VARIANTS)))


class TestSmallSubstitutionSweep:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(_small_substitutions())
    def test_towers_match_gaps_and_pass_checks(self, drawn):
        rules, length, pick, variant = drawn
        try:
            system = SubstitutionSystem(sorted(rules), rules)
            words = sorted(system.language(length))
            word = words[pick % len(words)]
            Y = system.cylinder(Window(0, length - 1), word)
            S = build_towers(Y, variant)
        except (NonPrimitive, PeriodicSystem, BoundSearchExceeded):
            assume(False)
        assert S.heights == tuple(sorted(gap_oracle(rules, [word])))
        checks, oracles = _check_verdicts(S)
        assert checks == oracles
        identities, levels = checks
        assert all(identities.values()) and all(levels), identities

    # half the budget of the sweep above: each draw checks up to 3 (m + 1)
    # hand-built systems against the pairwise oracles, and a variant with
    # two towers of height 1 under a tall one has millions of paths (heights
    # (1, 1, 5, 8, 11, 15, 22): 7.3 million), so the cost of this test
    # depends on what is drawn
    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(_small_substitutions())
    def test_broken_variants_match_oracles(self, drawn):
        rules, length, pick, variant = drawn
        try:
            system = SubstitutionSystem(sorted(rules), rules)
            words = sorted(system.language(length))
            Y = system.cylinder(Window(0, length - 1),
                                words[pick % len(words)])
            S = build_towers(Y, variant)
        except (NonPrimitive, PeriodicSystem, BoundSearchExceeded):
            assume(False)
        for broken in _hand_built_variants(S):
            checks, oracles = _check_verdicts(broken)
            assert checks == oracles, broken
