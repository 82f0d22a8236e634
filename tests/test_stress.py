"""Harder configurations than the reference trio.

The length-three cylinder 101 in the period-doubling subshift has return
times (2, 6, 14): 14 has nine compositions into 2s and 6s, and the top
tower glues along the one that boundary points follow, (1, 0, 1).  The
four-letter system below it produces five towers with overlapping path
sets, so boundary well-definedness is nonvacuous.
Everything downstream (partitions, stage algebra, lifting, projections)
must stay exact at these sizes.
"""

import numpy as np
import pytest

from oracles import admissible_sequences_oracle
from rokhlin.crossed import sample_subalgebra_element
from rokhlin.rsh import (
    build_approximating_system,
    in_stage_algebra,
    lift,
    phi_range_check,
    sample_stage_element,
    stage_from_gamma,
)
from rokhlin.subshift import Window
from rokhlin.towers import (
    admissible_sequences,
    boundary_path_cover,
    build_towers,
    partition_identities,
    verify_rokhlin_axioms,
)


@pytest.fixture(scope="module")
def deep(pd):
    Y = pd.cylinder(Window(0, 2), "101")
    return build_towers(Y, "full")


class TestRudinShapiroTowers:
    """Five towers over a four-letter alphabet with overlapping path sets:
    the boundary gluing is nonvacuous at every intermediate level."""

    def test_heights_and_identities(self, rudin):
        assert rudin.heights == (2, 4, 6, 8, 10)
        assert verify_rokhlin_axioms(rudin).passed
        assert partition_identities(rudin).passed
        for l in range(rudin.m + 1):
            assert boundary_path_cover(rudin, l)

    def test_overlapping_paths_exist(self, rudin):
        paths = admissible_sequences(rudin, 2)
        overlaps = [(p.mu, q.mu) for i, p in enumerate(paths)
                    for q in paths[i + 1:]
                    if not (p.path_set & q.path_set).is_empty()]
        assert overlaps, "expected overlapping path sets at level 2"

    def test_gamma_images_glue_across_overlaps(self, rudin):
        rng = np.random.default_rng(60)
        for _ in range(5):
            a = sample_subalgebra_element(rudin.system, rudin.Y, rng, 3)
            stage = stage_from_gamma(a, rudin)
            assert in_stage_algebra(rudin, stage)

    def test_lift_round_trip(self, rudin):
        rng = np.random.default_rng(61)
        for _ in range(3):
            b = sample_stage_element(rudin, rng)
            assert in_stage_algebra(rudin, b)
            assert stage_from_gamma(lift(rudin, b), rudin).equal_exact(b)

    def test_approximating_system(self, rudin):
        A = build_approximating_system(rudin, Window(0, 0))
        assert A.passed, A.checks

    def test_standard_variant(self, rudin):
        from rokhlin.rsh import pullback_isomorphism_check
        S = build_towers(rudin.Y, "standard")
        assert S.heights == rudin.heights
        assert verify_rokhlin_axioms(S).passed
        assert partition_identities(S).passed
        rep = pullback_isomorphism_check(S, samples=8, seed=3, basis_limit=40)
        assert rep.passed, rep.to_json()


@pytest.fixture(scope="module")
def far(pd):
    return build_towers(pd.cylinder(Window(-7, -5), "101"), "full")


class TestFarFromOrigin:
    """Nothing may assume windows contain coordinate zero."""

    def test_towers(self, far):
        assert far.heights == (2, 6, 14)
        assert verify_rokhlin_axioms(far).passed
        assert partition_identities(far).passed
        assert all(boundary_path_cover(far, l) for l in range(far.m + 1))

    def test_round_trip_and_projections(self, far, pd):
        rng = np.random.default_rng(62)
        b = sample_stage_element(far, rng)
        assert stage_from_gamma(lift(far, b), far).equal_exact(b)
        A = build_approximating_system(far, Window(-7, -5))
        assert A.passed
        a = sample_subalgebra_element(pd, far.Y, rng, 2,
                                      window_lengths=(1, 2, 3),
                                      lo_range=(-7, -7))
        assert phi_range_check(far, A, a).ok

    def test_window_not_reaching_origin(self, pd):
        # verification windows here never contain coordinate zero, which the
        # normalized empty and full sets must tolerate
        S = build_towers(pd.cylinder(Window(50, 52), "101"), "full")
        assert verify_rokhlin_axioms(S).passed
        assert partition_identities(S).passed
        assert all(boundary_path_cover(S, l) for l in range(S.m + 1))


class TestEveryShortCylinder:
    """Every buildable system passes its own verification: all cylinders of
    length up to three over the reference subshifts, both variants."""

    def test_exhaustive_sweep(self, reference_systems):
        for _, _, system, _ in reference_systems:
            for length in (1, 2, 3):
                for word in sorted(system.language(length)):
                    Y = system.cylinder(Window(0, length - 1), word)
                    for variant in ("standard", "full"):
                        S = build_towers(Y, variant)
                        assert verify_rokhlin_axioms(S).passed, (word, variant)
                        assert partition_identities(S).passed, (word, variant)
                        assert all(boundary_path_cover(S, l)
                                   for l in range(S.m + 1)), (word, variant)


class TestDeepTowers:
    def test_heights(self, deep):
        assert deep.heights == (2, 6, 14)

    def test_axioms_and_partitions(self, deep):
        assert verify_rokhlin_axioms(deep).passed
        assert partition_identities(deep).passed

    def test_path_structure(self, deep):
        compositions = admissible_sequences_oracle(deep, 2)
        # compositions of 14 from {2, 6}: seven 2s, one 6 among five parts,
        # or two 6s among three parts
        assert len(compositions) == 1 + 5 + 3
        assert all(sum(deep.heights[i] for i in mu) == 14
                   for mu, _, _ in compositions)
        assert [p.mu for p in admissible_sequences(deep, 2)] == [(1, 0, 1)]
        for l in range(deep.m + 1):
            assert boundary_path_cover(deep, l)

    def test_stage_round_trip(self, deep, pd):
        rng = np.random.default_rng(50)
        for _ in range(3):
            b = sample_stage_element(deep, rng)
            assert in_stage_algebra(deep, b)
            assert stage_from_gamma(lift(deep, b), deep).equal_exact(b)
        for _ in range(3):
            a = sample_subalgebra_element(pd, deep.Y, rng,
                                          max(deep.heights) + 1)
            stage = stage_from_gamma(a, deep)
            assert in_stage_algebra(deep, stage)
            assert stage_from_gamma(lift(deep, stage), deep).equal_exact(stage)

    def test_projections(self, deep, pd):
        A = build_approximating_system(deep, Window(0, 2))
        assert A.passed, A.checks
        rng = np.random.default_rng(51)
        for _ in range(5):
            a = sample_subalgebra_element(pd, deep.Y, rng, 3,
                                          window_lengths=(1, 2, 3),
                                          lo_range=(0, 0))
            res = phi_range_check(deep, A, a)
            assert res.ok, res.reason
