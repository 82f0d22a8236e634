import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rokhlin
from oracles import gluing_violations_oracle
from rokhlin import rsh
from rokhlin.crossed import (
    CylinderFunction,
    FormalElement,
    gamma_component,
    in_ob_subalgebra,
    sample_subalgebra_element,
)
from rokhlin.errors import (
    InvariantViolated,
    NotInStageAlgebra,
    NotProductWindowSet,
    PathMismatch,
)
from rokhlin.matrixfn import MatrixCylinderFunction
from rokhlin.rsh import (
    STAGE_TOL,
    StageElement,
    beta_boundary,
    beta_path,
    build_approximating_system,
    in_stage_algebra,
    lift,
    phi_range_check,
    pullback_isomorphism_check,
    sample_stage_element,
    stage_basis_elements,
    stage_from_gamma,
    stage_violations,
)
from rokhlin.subshift import ClopenSet, PointWindow, Window
from rokhlin.towers import admissible_sequences, build_towers


def _unconstrained(S, count, rng):
    """A tuple of random components on the first ``count`` tower bases, with
    no gluing imposed."""
    comps = []
    for i in range(count):
        r = S.heights[i]
        values = {w: rng.normal(size=(r, r)) for w in sorted(S.bases[i].words)}
        comps.append(MatrixCylinderFunction(
            S.bases[i], S.bases[i].window, r, values))
    return StageElement(tuple(comps))


def _broken_rudin(rudin):
    """Rudin-Shapiro components on towers 0..2 that violate their own gluing."""
    return _unconstrained(rudin, 3, np.random.default_rng(77))


class TestBetaPath:
    def test_identity_blocks(self, pd, pd_full):
        path = admissible_sequences(pd_full, 1)[0]
        ident = StageElement.identity(pd_full).truncate(0)
        x = PointWindow(pd, Window(0, 3), "0001")
        assert np.array_equal(beta_path(pd_full, 1, path, ident, x), np.eye(2))

    def test_scalar_blocks_read_along_orbit(self, pd, pd_full):
        path = admissible_sequences(pd_full, 1)[0]
        window = Window(0, 2)
        values = {w: [[complex(i + 1)]]
                  for i, w in enumerate(sorted(pd_full.bases[0].words_on(window)))}
        b0 = MatrixCylinderFunction(pd_full.bases[0], window, 1, values)
        x = PointWindow(pd, Window(0, 3), "0001")
        M = beta_path(pd_full, 1, path, StageElement((b0,)), x)
        v = {w: values[w][0][0] for w in values}
        assert M[0, 0] == v["000"] and M[1, 1] == v["001"]
        assert M[0, 1] == 0 and M[1, 0] == 0

    def test_zero_blocks(self, pd, pd_full):
        path = admissible_sequences(pd_full, 1)[0]
        zero = StageElement.zero(pd_full).truncate(0)
        x = PointWindow(pd, Window(0, 3), "0001")
        assert np.array_equal(beta_path(pd_full, 1, path, zero, x),
                              np.zeros((2, 2)))

    def test_point_outside_path_set(self, pd, pd_full):
        path = admissible_sequences(pd_full, 1)[0]
        ident = StageElement.identity(pd_full).truncate(0)
        x = PointWindow(pd, Window(0, 3), "0100")
        with pytest.raises(PathMismatch):
            beta_path(pd_full, 1, path, ident, x)


class TestMatrixCylinderFunction:
    def test_value_table_is_read_only(self, pd_full):
        f = MatrixCylinderFunction.identity(pd_full.bases[1], 2)
        word = next(iter(f.values))
        with pytest.raises(TypeError):
            f.values[word] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            f.values[word][0, 0] = 0.0

    def test_allclose_compares_every_word(self, pd_full):
        f = MatrixCylinderFunction.identity(pd_full.bases[1], 2)
        values = dict(f.values)
        word = sorted(values)[-1]
        values[word] = values[word] + 2e-12
        g = MatrixCylinderFunction(f.base, f.window, 2, values)
        assert g.allclose(f) is False
        assert g.allclose(f, atol=1e-11) is True
        assert g.allclose(g, atol=0.0) is True


class TestBetaBoundary:
    def test_identity_boundary(self, pd_full):
        out = beta_boundary(pd_full, 1, StageElement.identity(pd_full).truncate(0))
        for M in out.values.values():
            assert np.array_equal(M, np.eye(2))

    def test_agrees_with_gamma_restriction(self, reference_systems):
        rng = np.random.default_rng(12)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(20):
                a = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                stage = stage_from_gamma(a, S)
                for l in range(1, S.m + 1):
                    if S.boundaries[l].is_empty():
                        continue
                    glued = beta_boundary(S, l, stage.truncate(l - 1))
                    direct = gamma_component(a, S, l).restrict(S.boundaries[l])
                    assert glued.allclose(direct, atol=0.0)

    def test_gluing_violation_detected(self, pd, pd_full):
        bad0 = MatrixCylinderFunction.constant(pd_full.bases[0], [[2.0]])
        # level-zero component alone is a valid stage element, but gluing a
        # top component that ignores it must fail
        top = MatrixCylinderFunction.identity(pd_full.bases[1], 2)
        stage = StageElement((bad0, top))
        assert not in_stage_algebra(pd_full, stage)
        level, mu, word = stage_violations(pd_full, stage)[0]
        assert (level, mu, word) == (1, (0, 0), "000")

    def test_raises_on_broken_lower_levels(self, rudin):
        # lower components that already violate their own gluing are rejected
        # before any boundary value is computed; needs a system whose
        # intermediate levels have nonempty path sets
        with pytest.raises(NotInStageAlgebra) as err:
            beta_boundary(rudin, 3, _broken_rudin(rudin))
        assert err.value.violation is not None

    def test_broken_lower_levels_reported_as_on_the_truncation(self, rudin):
        # the first violation below the boundary level, read from the whole
        # element's list, is the first one of the truncated element
        b = _broken_rudin(rudin)
        for l in (2, 3):
            expected = stage_violations(rudin, b.truncate(l - 1))[0]
            for element in (b, b.truncate(l - 1)):
                with pytest.raises(NotInStageAlgebra) as err:
                    beta_boundary(rudin, l, element)
                assert str(err.value) == ("components below the boundary "
                                          "level violate their own gluing")
                assert err.value.violation == expected

    def test_disagreeing_paths_named_in_word_order(self, rudin, monkeypatch):
        # with the lower-level check bypassed, broken lower components glue
        # different values on overlapping paths; the first clash in path
        # order, least word first, is the one a word-by-word replay finds
        b = _broken_rudin(rudin)
        l = 3
        paths = admissible_sequences(rudin, l)
        window = rudin.boundaries[l].window
        for path in paths:
            window = rsh._path_eval_window(path, b.components, window)
        first, clashes = {}, []
        for path in paths:
            for w in sorted(path.path_set.words_on(window)):
                M = beta_path(rudin, l, path, b,
                              PointWindow(rudin.system, window, w))
                if w not in first:
                    first[w] = (path.mu, M)
                elif not np.allclose(first[w][1], M, rtol=0.0, atol=STAGE_TOL):
                    clashes.append((l, (first[w][0], path.mu), w))
        assert clashes
        monkeypatch.setattr(rsh, "checked_violations", lambda S, b: ())
        with pytest.raises(NotInStageAlgebra) as err:
            beta_boundary(rudin, l, b)
        _, (mu, nu), w = clashes[0]
        assert err.value.violation == clashes[0]
        assert str(err.value) == f"paths {mu} and {nu} disagree at {w!r}"

    def test_wrong_size_above_the_boundary_level_rejected(self, pd_full):
        # every component's size is checked, not only those below the level
        b = StageElement((StageElement.identity(pd_full).components[0],
                          MatrixCylinderFunction.identity(pd_full.bases[1], 3)))
        with pytest.raises(ValueError, match="component 1 has size 3"):
            beta_boundary(pd_full, 1, b)


class TestStageMembership:
    def test_gamma_images_members(self, reference_systems):
        rng = np.random.default_rng(13)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(25):
                a = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                assert in_stage_algebra(S, stage_from_gamma(a, S))

    def test_identity_member(self, pd_full, fib_full, tm_full):
        for S in (pd_full, fib_full, tm_full):
            assert in_stage_algebra(S, StageElement.identity(S))

    def test_random_unconstrained_fails(self, pd_full):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(20):
            stage = _unconstrained(pd_full, pd_full.m + 1, rng)
            if not in_stage_algebra(pd_full, stage):
                hits += 1
                level, mu, word = stage_violations(pd_full, stage)[0]
                assert level == 1 and mu == (0, 0)
        assert hits == 20

    def test_violations_match_per_word_oracle(self, rudin, pd_full):
        rng = np.random.default_rng(14)
        cases = [(rudin, _broken_rudin(rudin))]
        cases += [(pd_full, _unconstrained(pd_full, pd_full.m + 1, rng))
                  for _ in range(20)]
        for S, b in cases:
            paths = [admissible_sequences(S, l) for l in range(b.level + 1)]
            expected = gluing_violations_oracle(b.components, paths, STAGE_TOL)
            assert expected
            assert stage_violations(S, b) == expected

    def test_violations_computed_once_per_element(self, pd, monkeypatch):
        S = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        b = sample_stage_element(S, np.random.default_rng(3))
        calls = []

        def counting(*args):
            calls.append(args)
            return stage_violations(*args)

        monkeypatch.setattr(rsh, "stage_violations", counting)
        assert in_stage_algebra(S, b)
        for l in range(1, S.m + 1):
            beta_boundary(S, l, b)
        lift(S, b)
        assert len(calls) == 1
        other = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        assert in_stage_algebra(other, b)
        assert len(calls) == 2

    def test_sampled_elements_are_members(self, reference_systems):
        rng = np.random.default_rng(15)
        for _, _, _, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(10):
                assert in_stage_algebra(S, sample_stage_element(S, rng))


class TestLift:
    def test_identity_round_trip(self, pd_full):
        ident = StageElement.identity(pd_full)
        a = lift(pd_full, ident)
        assert in_ob_subalgebra(a, pd_full.Y)
        assert stage_from_gamma(a, pd_full).equal_exact(ident)

    def test_single_tower_scalar_case(self, fib):
        S = build_towers(fib.full_set(), "full")
        window = Window(0, 1)
        values = {w: [[complex(i, i)]]
                  for i, w in enumerate(sorted(fib.language(2)))}
        b = StageElement((MatrixCylinderFunction(S.bases[0], window, 1, values),))
        a = lift(S, b)
        assert a.support == (0,)
        assert stage_from_gamma(a, S).equal_exact(b)

    def test_round_trip_gamma_images(self, reference_systems):
        rng = np.random.default_rng(16)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(15):
                a0 = sample_subalgebra_element(system, Y, rng,
                                               max(S.heights) + 1)
                stage = stage_from_gamma(a0, S)
                a = lift(S, stage)
                assert stage_from_gamma(a, S).equal_exact(stage)

    def test_round_trip_repaired_samples(self, reference_systems):
        rng = np.random.default_rng(17)
        for _, _, _, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(10):
                b = sample_stage_element(S, rng)
                assert stage_from_gamma(lift(S, b), S).equal_exact(b)

    def test_round_trip_basis(self, pd_full, fib_full):
        for S in (pd_full, fib_full):
            for b in stage_basis_elements(S):
                assert stage_from_gamma(lift(S, b), S).equal_exact(b)

    def test_rejects_non_members(self, pd_full):
        bad0 = MatrixCylinderFunction.constant(pd_full.bases[0], [[2.0]])
        top = MatrixCylinderFunction.identity(pd_full.bases[1], 2)
        with pytest.raises(NotInStageAlgebra):
            lift(pd_full, StageElement((bad0, top)))

    def test_accepts_gluing_within_tolerance(self, pd):
        # a top component that misses its glued boundary value by less than
        # STAGE_TOL is still a stage element; its lift carries the glued value
        S = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        assert S.heights == (2, 6, 14)
        b = sample_stage_element(S, np.random.default_rng(0))
        top = b.components[2]
        values = dict(top.values)
        word = sorted(S.boundaries[2].words_on(top.window))[0]
        values[word] = values[word].copy()
        values[word][0, 0] += 1e-13
        b2 = StageElement((*b.components[:2], MatrixCylinderFunction(
            top.base, top.window, top.size, values)))
        assert not b2.equal_exact(b)
        assert in_stage_algebra(S, b2)
        assert stage_from_gamma(lift(S, b2), S).equal_exact(b)

    def test_equal_exact_guards_and_windows(self, pd_full):
        T0, T1 = pd_full.bases
        ident = StageElement.identity(pd_full)
        assert not ident.equal_exact(ident.truncate(0))
        one = MatrixCylinderFunction.identity(T0, 1)
        assert not StageElement((one,)).equal_exact(
            StageElement((MatrixCylinderFunction.identity(T0, 2),)))
        assert not StageElement((one,)).equal_exact(
            StageElement((MatrixCylinderFunction.identity(T1, 1),)))
        # the same values tabulated on a wider window, with negative zeros
        wide = Window(T1.window.lo - 1, T1.window.hi + 2)
        top = ident.components[1]
        signed = MatrixCylinderFunction(T1, wide, 2, {
            w: top.value(w, wide) - np.zeros((2, 2))
            for w in T1.words_on(wide)})
        assert StageElement((ident.components[0], signed)).equal_exact(ident)

    # A hand-built height-2 tower over the whole space: both of its levels are
    # the whole space, so every word lies on two levels at once.
    OVERLAPPING_LEVELS = """
from rokhlin import (InvariantViolated, MatrixCylinderFunction, RokhlinSystem,
                     StageElement, lift, period_doubling)
pd = period_doubling()
full = pd.full_set()
S = RokhlinSystem(pd, "full", full, [full], [2])
try:
    lift(S, StageElement((MatrixCylinderFunction.identity(full, 2),)))
except InvariantViolated:
    print("InvariantViolated")
"""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
    def test_overlapping_levels_raise_invariant_violated(self, flags):
        src = str(Path(rokhlin.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, *flags, "-c", self.OVERLAPPING_LEVELS],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert done.stdout == "InvariantViolated\n"


class TestPullback:
    def test_reference_systems(self, reference_systems):
        for _, _, _, Y in reference_systems:
            for variant in ("standard", "full"):
                S = build_towers(Y, variant)
                rep = pullback_isomorphism_check(S, samples=40, seed=2)
                assert rep.passed, rep.to_json()

    def test_full_set_trivial(self, fib):
        S = build_towers(fib.full_set(), "full")
        rep = pullback_isomorphism_check(S, samples=20, seed=0)
        assert rep.passed

    def test_basis_limit_builds_only_the_kept_elements(self, tm_full,
                                                       monkeypatch):
        from rokhlin import rsh
        limit = 10
        full = list(stage_basis_elements(tm_full))
        stride = len(full) / limit
        expected = [full[int(i * stride)] for i in range(limit)]
        built = []
        original = rsh._basis_element

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(rsh, "_basis_element", recording)
        rep = pullback_isomorphism_check(tm_full, samples=0,
                                         basis_limit=limit)
        assert rep.passed and rep.samples == limit
        assert len(built) == limit < len(full)
        assert all(b.equal_exact(e) for b, e in zip(built, expected))

    def test_uncovered_boundary_raises(self, pd101_defects):
        # the boundary verdict rests on the path sets covering D_l, and
        # decompose runs no paths check, so the pullback check tests the
        # cover once per level and names the levels where it fails
        with pytest.raises(InvariantViolated,
                           match=r"boundary_path_cover fails at levels \[1, 2\]"):
            pullback_isomorphism_check(pd101_defects["tall-middle"],
                                       samples=0, basis_limit=1)

    def test_tolerance_band_is_compatible(self, rudin, monkeypatch):
        # path p glues 0.6 STAGE_TOL above a stage element's top component
        # and every other path 0.6 STAGE_TOL below, so on an overlap two paths
        # lie within STAGE_TOL of b_l but 1.2 STAGE_TOL apart: the violation
        # list is empty, beta_boundary raises, and the pullback check keeps
        # the verdict its docstring states, compatible
        l, p = next((l, p) for l in range(1, rudin.m + 1)
                    for p in admissible_sequences(rudin, l)
                    if any(q is not p and not (p.path_set & q.path_set).is_empty()
                           for q in admissible_sequences(rudin, l)))
        b = sample_stage_element(rudin, np.random.default_rng(5))
        # the offset is planted where every gluing is read: each entry of a
        # level's plan knows its path by index
        q = admissible_sequences(rudin, l).index(p)
        glue = rsh._glue
        monkeypatch.setattr(rsh, "_glue", lambda plan, flat: glue(plan, flat) + (
            np.where((plan.level == l) & (plan.path == q), 0.6, -0.6)
            * STAGE_TOL)[:, None, None])
        assert stage_violations(rudin, b) == []
        with pytest.raises(NotInStageAlgebra) as err:
            beta_boundary(rudin, l, b)
        assert err.value.violation[0] == l and p.mu in err.value.violation[1]
        monkeypatch.setattr(rsh, "_basis_element",
                            lambda S, *slot: StageElement(b.components))
        rep = pullback_isomorphism_check(rudin, samples=0, basis_limit=1)
        assert rep.boundary_compatible and rep.passed and rep.samples == 1


class TestApproximatingSystem:
    def test_period_doubling_window_one(self, pd, pd_full):
        A = build_approximating_system(pd_full, Window(0, 0))
        assert A.passed, A.checks
        assert A.proj_windows == (Window(0, 1), Window(0, 2))
        assert A.spaces[0] == pd_full.bases[0].words_on(Window(0, 1))
        assert A.path_images[(1, (0, 0))] == frozenset({"000"})

    @pytest.mark.parametrize("width", [2, 3])
    def test_period_doubling_wider_windows(self, pd, width):
        window = Window(0, width - 1)
        word = sorted(pd.language(width))[0]
        S = build_towers(pd.cylinder(window, word), "full")
        A = build_approximating_system(S, window)
        assert A.passed, A.checks

    def test_diagram_fails_when_the_shift_goes_the_wrong_way(self, pd,
                                                              monkeypatch):
        # planted defect: ClopenSet.shift moves constraints forward, so the
        # image h^off of a path set no longer projects onto the sliced words
        S = build_towers(pd.cylinder(Window(0, 2), "101"), "full")
        assert build_approximating_system(S, S.Y.window).checks[
            "diagram-commutes"]
        monkeypatch.setattr(ClopenSet, "shift", lambda self, j: ClopenSet(
            self.system, self.window.shift(j), self.words))
        A = build_approximating_system(S, S.Y.window)
        assert A.checks["diagram-commutes"] is False

    def test_fibonacci_direct_sum(self, fib_full):
        A = build_approximating_system(fib_full, Window(0, 0))
        assert A.passed
        assert A.path_images == {}

    def test_non_product_rejected(self, pd):
        Y = ClopenSet(pd, Window(0, 2), {"001", "100"})
        S = build_towers(Y, "full")
        with pytest.raises(NotProductWindowSet):
            build_approximating_system(S, Window(0, 2))

    def test_window_not_covering_rejected(self, pd, pd_y):
        S = build_towers(pd_y & pd.cylinder(Window(2, 2), "0"), "full")
        with pytest.raises(NotProductWindowSet):
            build_approximating_system(S, Window(0, 0))

    def test_wide_declared_window(self, pd, pd_y, pd_full):
        # the same base set declared over a window as wide as the whole
        # verification range: projections keep every coordinate an in-window
        # element can read, so all of them factor
        wide = pd_full.verification_window()
        A = build_approximating_system(pd_full, wide)
        assert A.passed, A.checks
        rng = np.random.default_rng(44)
        for _ in range(15):
            a = sample_subalgebra_element(pd, pd_y, rng, 2,
                                          window_lengths=(1, 2, 3),
                                          lo_range=(wide.lo, 0))
            res = phi_range_check(pd_full, A, a)
            assert res.ok, res.reason


class TestPhiRange:
    def test_unit(self, pd_full):
        A = build_approximating_system(pd_full, Window(0, 0))
        res = phi_range_check(pd_full, A, FormalElement.unit(pd_full.system))
        assert res.ok
        for l, table in enumerate(res.preimage):
            for M in table.values():
                assert np.array_equal(M, np.eye(pd_full.heights[l]))

    def test_window_constant_elements_pass(self, pd, pd_y, pd_full):
        A = build_approximating_system(pd_full, Window(0, 0))
        rng = np.random.default_rng(18)
        for _ in range(25):
            a = sample_subalgebra_element(pd, pd_y, rng, 2,
                                          window_lengths=(1,), lo_range=(0, 0))
            assert in_ob_subalgebra(a, pd_y)
            res = phi_range_check(pd_full, A, a)
            assert res.ok, res.reason

    def test_negative_degree_window_constant(self, pd, pd_y, pd_full):
        A = build_approximating_system(pd_full, Window(0, 0))
        f = CylinderFunction.indicator(pd.cylinder(Window(1, 1), "1"))
        a = FormalElement.single(-1, f)
        assert in_ob_subalgebra(a, pd_y)
        # the coefficient lives on coordinate 1, outside [0, 0]: factorization
        # must still hold because evaluation only reads it along the orbit
        res = phi_range_check(pd_full, A, a)
        assert res.ok, res.reason

    def test_dependence_witness_fails(self, pd, pd_y, pd_full):
        A = build_approximating_system(pd_full, Window(0, 0))
        values = {w: (2.0 if w[4] == "1" else 1.0) for w in pd.language(5)}
        a = FormalElement.single(0, CylinderFunction(pd, Window(0, 4), values))
        res = phi_range_check(pd_full, A, a)
        assert not res.ok
        assert "outside" in res.reason

    def test_projected_gluing_violation_named(self, pd_full, monkeypatch):
        # a top component of 2I factors through the projection but breaks the
        # gluing on the one projected word of the path (0, 0)
        from rokhlin import rsh
        assert pd_full.heights == (1, 2)
        A = build_approximating_system(pd_full, Window(0, 0))
        comps = list(StageElement.identity(pd_full).components)
        comps[1] = MatrixCylinderFunction.constant(pd_full.bases[1],
                                                   2 * np.eye(2))
        monkeypatch.setattr(rsh, "gamma_symbolic", lambda a, S: comps)
        res = phi_range_check(pd_full, A, FormalElement.unit(pd_full.system))
        assert not res.ok and res.preimage is None
        assert res.reason == "projected gluing fails at level 1, mu=[0, 0], word '000'"


def _sample_projected_element(A, rng):
    """Random element of the projected pullback: free matrix per projected
    word, then overwritten with the projected gluing, level by level."""
    S = A.S
    tables = []
    for l in range(S.m + 1):
        r = S.heights[l]
        table = {z: np.array([[complex(rng.normal(), rng.normal())
                               for _ in range(r)] for _ in range(r)])
                 for z in sorted(A.spaces[l])}
        for path in admissible_sequences(S, l):
            mu = path.mu
            for z in sorted(A.path_images.get((l, mu), frozenset())):
                M = np.zeros((r, r), dtype=complex)
                offset = 0
                for s in range(1, len(mu) + 1):
                    off = path.offsets[s - 1]
                    width = A.proj_windows[mu[s - 1]].length
                    block = tables[mu[s - 1]][z[off : off + width]]
                    size = block.shape[0]
                    M[offset : offset + size, offset : offset + size] = block
                    offset += size
                table[z] = M
        tables.append(table)
    return tables


class TestCompatibility:
    """Projected-pullback elements map into the stage algebra through the
    coordinate projections."""

    @pytest.mark.parametrize("fixture", ["pd_full", "rudin"])
    def test_projected_elements_pull_back(self, fixture, request):
        S = request.getfixturevalue(fixture)
        A = build_approximating_system(S, S.Y.window)
        assert A.passed
        rng = np.random.default_rng(81)
        for _ in range(10):
            tables = _sample_projected_element(A, rng)
            comps = []
            for l in range(S.m + 1):
                I = A.proj_windows[l]
                values = {w: tables[l][w] for w in S.bases[l].words_on(I)}
                comps.append(MatrixCylinderFunction(
                    S.bases[l], I, S.heights[l], values))
            assert in_stage_algebra(S, StageElement(tuple(comps)))
