import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rokhlin.cuntz import (
    PositiveElement,
    cuntz_leq,
    eps_cut,
    headline_bound,
    matrix_rank,
    per_level_value,
    rc_upper_bound,
    rc_witness_test,
    window_disjointness,
)
from rokhlin.errors import BaseMismatch, NotHermitian
from rokhlin.subshift import Window
from rokhlin.towers import build_towers


def random_psd(rng, n, norm_cap=1.0):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = B @ B.conj().T
    top = float(np.linalg.norm(A, 2))
    if top > norm_cap:
        A = A * (norm_cap / top)
    return A


class TestPositiveElement:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            PositiveElement(("w",), 2, {"w": [[0.0, 1.0], [0.0, 0.0]]})

    def test_rejects_negative(self):
        with pytest.raises(NotHermitian):
            PositiveElement(("w",), 2, {"w": [[-1.0, 0.0], [0.0, 1.0]]})

    def test_base_mismatch(self):
        a = PositiveElement.from_ranks(("w",), 2, {"w": 1})
        b = PositiveElement.from_ranks(("v",), 2, {"v": 1})
        with pytest.raises(BaseMismatch):
            cuntz_leq(a, b)


class TestEpsCut:
    def test_diagonal_example(self):
        a = PositiveElement(("w",), 2, {"w": np.diag([1.0, 0.0])})
        cut = eps_cut(a, 0.5)
        assert np.allclose(cut.values["w"], np.diag([0.5, 0.0]))

    def test_cut_above_norm_gives_zero(self):
        a = PositiveElement(("w",), 2, {"w": np.diag([1.0, 0.0])})
        assert all(np.allclose(M, 0) for M in eps_cut(a, 1.5).values.values())

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            A = random_psd(rng, n)
            p = PositiveElement(("z",), n, {"z": A})
            eps = float(rng.uniform(0.0, 1.2))
            cut = eps_cut(p, eps)
            expect = np.sort(np.maximum(np.linalg.eigvalsh(A) - eps, 0.0))
            got = np.sort(np.linalg.eigvalsh(cut.values["z"]))
            assert np.max(np.abs(expect - got)) <= 1e-10
            assert p.distance(cut) <= eps + 1e-10

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p = PositiveElement(("z",), n, {"z": random_psd(rng, n)})
            e1, e2 = sorted(rng.uniform(0.0, 1.0, size=2))
            assert cuntz_leq(eps_cut(p, e2), eps_cut(p, e1))


class TestCuntzOrder:
    def test_reflexive(self):
        a = PositiveElement.from_ranks(("z",), 5, {"z": 1})
        assert cuntz_leq(a, a)

    def test_class_mirrors_comparison(self):
        from rokhlin.cuntz import CuntzClass
        rng = np.random.default_rng(30)
        base = ("w0", "w1")
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a = PositiveElement(base, n, {w: random_psd(rng, n) for w in base})
            b = PositiveElement(base, n, {w: random_psd(rng, n) for w in base})
            assert (CuntzClass.of(a) <= CuntzClass.of(b)) == cuntz_leq(a, b)

    def test_rank_two_not_below_rank_one(self):
        a = PositiveElement.from_ranks(("z",), 5, {"z": 2})
        b = PositiveElement.from_ranks(("z",), 5, {"z": 1})
        assert not cuntz_leq(a, b)
        assert cuntz_leq(b, a)

    def test_preorder_and_sums_on_random_triples(self):
        rng = np.random.default_rng(23)
        base = ("w0", "w1")
        for _ in range(200):
            n = int(rng.integers(1, 4))
            elems = [PositiveElement(base, n,
                                     {w: random_psd(rng, n) for w in base})
                     for _ in range(3)]
            a, b, c = elems
            assert cuntz_leq(a, a)
            if cuntz_leq(a, b) and cuntz_leq(b, c):
                assert cuntz_leq(a, c)
            a2 = PositiveElement(base, n, {w: random_psd(rng, n) for w in base})
            b2 = PositiveElement(base, n, {w: random_psd(rng, n) for w in base})
            if cuntz_leq(a, b) and cuntz_leq(a2, b2):
                assert cuntz_leq(a.direct_sum(a2), b.direct_sum(b2))

    def test_rank_counts_singular_values(self):
        rng = np.random.default_rng(24)
        for r in range(4):
            A = np.zeros((4, 4), dtype=complex)
            for _ in range(r):
                v = rng.normal(size=4) + 1j * rng.normal(size=4)
                A += np.outer(v, v.conj())
            assert matrix_rank(A) == r


class TestWitness:
    def test_vacuous_hypothesis(self):
        eta = PositiveElement.from_ranks(("z",), 5, {"z": 1})
        mu = PositiveElement.from_ranks(("z",), 5, {"z": 2})
        # 3*1 + 1*5 = 8 > 2*2 = 4: hypothesis fails, implication vacuous
        assert rc_witness_test(2, 1, eta, mu)

    def test_hypothesis_and_conclusion(self):
        eta = PositiveElement.from_ranks(("z",), 5, {"z": 1})
        mu = PositiveElement.from_ranks(("z",), 5, {"z": 3})
        # 3*1 + 0 = 3 <= 2*3 = 6 and rank 1 <= 3
        assert rc_witness_test(2, 0, eta, mu)

    def test_exhaustive_sweep_never_falsified(self):
        for size in range(1, 5):
            for base_n in (1, 2):
                base = tuple(f"w{i}" for i in range(base_n))
                profiles = list(itertools.product(range(size + 1),
                                                  repeat=base_n))
                for re_ in profiles:
                    for rm_ in profiles:
                        eta = PositiveElement.from_ranks(
                            base, size, dict(zip(base, re_)))
                        mu = PositiveElement.from_ranks(
                            base, size, dict(zip(base, rm_)))
                        for n in (1, 2, 3):
                            for m in (0, 1, 2):
                                assert rc_witness_test(n, m, eta, mu)

    def test_perturbation_rank_stability(self):
        # small positive perturbations cannot raise the cut-down rank
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            A = random_psd(rng, n)
            delta = float(rng.uniform(0.05, 0.5))
            rho = delta * float(rng.uniform(0.1, 0.99))
            lam, V = np.linalg.eigh(A)
            shift = rng.uniform(-rho, rho, size=n)
            lam2 = np.maximum(lam + shift, 0.0)
            A2 = (V * lam2) @ V.conj().T
            p2 = PositiveElement(("z",), n, {"z": A2})
            cut = eps_cut(p2, delta)
            assert matrix_rank(cut.values["z"]) <= matrix_rank(A)


class TestBoundArithmetic:
    def test_hand_computed_example(self):
        assert per_level_value(3, 3, 2) == Fraction(11, 6)
        assert per_level_value(3, 5, 2) == Fraction(3, 2)

    def test_tower_report(self, pd_full):
        rep = rc_upper_bound(pd_full, Window(0, 0), 2)
        assert rep.per_level == (Fraction(3, 2), Fraction(5, 4))
        assert rep.bound == 1.5
        assert rep.separation_verified

    def test_zero_dimension_clamps(self, pd_full):
        rep = rc_upper_bound(pd_full, Window(0, 0), 0)
        assert rep.bound == 0.0

    def test_heights_equal_window_length(self):
        # r = window length and d = 1 gives (2r - 1) / (2r) < 1
        for r in (1, 2, 5):
            assert per_level_value(r, r, 1) == Fraction(2 * r - 1, 2 * r)
            assert per_level_value(r, r, 1) < 1

    def test_bound_below_dim_under_separation(self, fib):
        Y = fib.cylinder(Window(0, 2), "100")
        assert window_disjointness(Y, 2)
        S = build_towers(Y, "full")
        for d in (1, 2, 3):
            rep = rc_upper_bound(S, Window(0, 2), d)
            assert rep.separation_verified
            assert rep.bound <= d


class TestWindowDisjointness:
    def test_fibonacci_word_100(self, fib):
        Y = fib.cylinder(Window(0, 2), "100")
        assert window_disjointness(Y, 1)
        assert window_disjointness(Y, 2)

    def test_constant_word_overlaps(self, pd):
        Y = pd.cylinder(Window(0, 1), "00")
        assert not window_disjointness(Y, 1)  # 000 is admissible

    def test_vacuous_single_coordinate(self, pd_y):
        assert window_disjointness(pd_y, 0)


class TestHeadline:
    def test_values(self):
        assert headline_bound(0) == (1.0, 1)
        assert headline_bound(1) == (37.0, 37)
        assert headline_bound(0.5) == (19.0, 19)

    @pytest.mark.parametrize("mdim", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_rejected(self, mdim):
        with pytest.raises(ValueError):
            headline_bound(mdim)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False))
    def test_least_integer_property(self, mdim):
        value, d = headline_bound(mdim)
        assert value == 1.0 + 36.0 * mdim
        assert d > 36.0 * mdim
        assert d - 1 <= 36.0 * mdim
