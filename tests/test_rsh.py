import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rokhlin
from rokhlin.crossed import (
    CylinderFunction,
    FormalElement,
    gamma_component,
    in_ob_subalgebra,
    sample_subalgebra_element,
)
from rokhlin.errors import NotInStageAlgebra, NotProductWindowSet, PathMismatch
from rokhlin.matrixfn import MatrixCylinderFunction
from rokhlin.rsh import (
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
        rng = np.random.default_rng(77)
        comps = []
        for i in range(3):
            r = rudin.heights[i]
            values = {w: rng.normal(size=(r, r))
                      for w in sorted(rudin.bases[i].words)}
            comps.append(MatrixCylinderFunction(
                rudin.bases[i], rudin.bases[i].window, r, values))
        with pytest.raises(NotInStageAlgebra) as err:
            beta_boundary(rudin, 3, StageElement(tuple(comps)))
        assert err.value.violation is not None


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
            comps = []
            for i in range(pd_full.m + 1):
                r = pd_full.heights[i]
                values = {w: rng.normal(size=(r, r))
                          for w in pd_full.bases[i].words}
                comps.append(MatrixCylinderFunction(
                    pd_full.bases[i], pd_full.bases[i].window, r, values))
            stage = StageElement(tuple(comps))
            if not in_stage_algebra(pd_full, stage):
                hits += 1
                level, mu, word = stage_violations(pd_full, stage)[0]
                assert level == 1 and mu == (0, 0)
        assert hits == 20

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
