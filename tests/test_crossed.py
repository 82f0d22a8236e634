import numpy as np
import pytest

from oracles import brute_force_projection_error
from rokhlin.crossed import (
    CylinderFunction,
    FormalElement,
    approximate_by_window_constant,
    approximate_with_vanishing,
    gamma_eval,
    gamma_symbolic,
    homomorphism_check,
    in_ob_subalgebra,
    injectivity_witness,
    sample_point,
    sample_subalgebra_element,
)
from rokhlin.errors import (
    PreconditionViolated,
    WindowTooSmall,
    ZeroElement,
)
from rokhlin.subshift import PointWindow, Window
from rokhlin.towers import build_towers


def indicator_u(system, window, word, degree=1):
    return FormalElement.single(
        degree, CylinderFunction.indicator(system.cylinder(window, word)))


class TestForbiddenSets:
    def test_zero_is_empty(self, fib_y):
        assert fib_y.translates(0).is_empty()

    def test_positive_unrolls_forward(self, fib, fib_y):
        expect = fib_y | fib_y.shift(1)
        assert fib_y.translates(2) == expect

    def test_negative_unrolls_backward(self, fib, fib_y):
        assert fib_y.translates(-1) == fib_y.shift(-1)
        assert fib_y.translates(-2) == fib_y.shift(-1) | fib_y.shift(-2)


class TestMembership:
    def test_indicator_off_y(self, pd, pd_y):
        a = indicator_u(pd, Window(0, 0), "1")
        assert in_ob_subalgebra(a, pd_y)

    def test_unit_times_u_not_member(self, pd, pd_y):
        a = FormalElement.single(1, CylinderFunction.constant(pd, 1.0))
        assert not in_ob_subalgebra(a, pd_y)

    def test_degree_zero_always_member(self, pd, pd_y):
        a = FormalElement.single(0, CylinderFunction.constant(pd, 2.0 + 1j))
        assert in_ob_subalgebra(a, pd_y)

    def test_closure_under_operations(self, pd, pd_y):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = sample_subalgebra_element(pd, pd_y, rng, 3)
            b = sample_subalgebra_element(pd, pd_y, rng, 3)
            assert in_ob_subalgebra(a * b, pd_y)
            assert in_ob_subalgebra(a + b, pd_y)
            assert in_ob_subalgebra(a.adjoint(), pd_y)
            assert in_ob_subalgebra(a.scale(2.0 - 1.0j), pd_y)


class TestStarAlgebra:
    def test_unitary_cancellation(self, pd, pd_y):
        a = indicator_u(pd, Window(0, 0), "1")
        f = a.terms[1]
        prod = a * a.adjoint()
        assert prod.support == (0,)
        expect = f * f.conj()
        diff = prod.terms[0] - expect
        assert diff.sup_norm() == 0.0

    def test_covariance_rule(self, pd):
        u = FormalElement.single(1, CylinderFunction.constant(pd, 1.0))
        g = CylinderFunction.indicator(pd.cylinder(Window(0, 0), "0"))
        prod = u * FormalElement.single(0, g)
        assert prod.support == (1,)
        assert (prod.terms[1] - g.compose_shift(-1)).sup_norm() == 0.0

    def test_laws_on_random_triples(self, pd, pd_y):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = sample_subalgebra_element(pd, pd_y, rng, 2)
            b = sample_subalgebra_element(pd, pd_y, rng, 2)
            c = sample_subalgebra_element(pd, pd_y, rng, 2)
            assoc = (a * b) * c - a * (b * c)
            assert assoc.termwise_norm() <= 1e-12
            invol = a.adjoint().adjoint() - a
            assert invol.termwise_norm() <= 1e-12
            anti = (a * b).adjoint() - b.adjoint() * a.adjoint()
            assert anti.termwise_norm() <= 1e-12
            dist = a * (b + c) - (a * b + a * c)
            assert dist.termwise_norm() <= 1e-12

    def test_expectation_is_projection(self, pd, pd_y):
        rng = np.random.default_rng(6)
        a = sample_subalgebra_element(pd, pd_y, rng, 3)
        e = a.conditional_expectation()
        assert (FormalElement.single(0, e).conditional_expectation()
                - e).sup_norm() == 0.0
        assert e is a.coefficient(0) or (e - a.coefficient(0)).sup_norm() == 0.0


class TestGammaEval:
    def test_unit_gives_identity(self, pd, pd_y, pd_full):
        for N, Z in ((1, pd_full.bases[0]), (2, pd_full.bases[1])):
            x = sample_point(Z, [Window(0, N + 1)], np.random.default_rng(0))
            M = gamma_eval(FormalElement.unit(pd), N, Z, x, pd_y)
            assert np.array_equal(M, np.eye(N))

    def test_period_doubling_example(self, pd, pd_y, pd_full):
        a = indicator_u(pd, Window(0, 0), "1")
        Z = pd_full.bases[1]
        x = PointWindow(pd, Window(0, 2), "010")
        M = gamma_eval(a, 2, Z, x, pd_y)
        expect = np.zeros((2, 2))
        expect[1, 0] = 1.0
        assert np.array_equal(M, expect)
        x0 = PointWindow(pd, Window(0, 2), "000")
        assert np.array_equal(gamma_eval(a, 2, Z, x0, pd_y), np.zeros((2, 2)))

    def test_preconditions_enforced(self, pd, pd_y, pd_full):
        a = FormalElement.unit(pd)
        x = PointWindow(pd, Window(0, 2), "010")
        with pytest.raises(PreconditionViolated):
            gamma_eval(a, 2, pd.full_set(), x, pd_y)   # Z not inside Y
        with pytest.raises(PreconditionViolated):
            gamma_eval(a, 3, pd_full.bases[1], x, pd_y)  # h^3(Z) leaves Y
        with pytest.raises(PreconditionViolated):
            gamma_eval(a, 2, pd_full.bases[1],
                       PointWindow(pd, Window(0, 2), "001"), pd_y)  # x not in Z

    def test_window_too_small(self, pd, pd_y, pd_full):
        a = FormalElement.single(
            1, CylinderFunction.indicator(pd.cylinder(Window(0, 3), "1000")))
        assert in_ob_subalgebra(a, pd_y)
        x = PointWindow(pd, Window(0, 2), "010")
        with pytest.raises(WindowTooSmall):
            gamma_eval(a, 2, pd_full.bases[1], x, pd_y)


class TestGammaSymbolic:
    def test_unit_components_are_identity(self, pd, pd_full):
        comps = gamma_symbolic(FormalElement.unit(pd), pd_full)
        for i, comp in enumerate(comps):
            for M in comp.values.values():
                assert np.array_equal(M, np.eye(pd_full.heights[i]))

    def test_fibonacci_diagonal_example(self, fib, fib_full):
        a = FormalElement.single(
            0, CylinderFunction.indicator(fib.cylinder(Window(0, 0), "1")))
        comp = gamma_symbolic(a, fib_full)[0]
        for M in comp.values.values():
            assert np.array_equal(M, np.diag([1.0, 0.0]))

    def test_agrees_with_pointwise_eval(self, reference_systems):
        rng = np.random.default_rng(3)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(35):
                a = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                comps = gamma_symbolic(a, S)
                for l, comp in enumerate(comps):
                    x = sample_point(S.bases[l], [comp.window], rng)
                    direct = gamma_eval(a, S.heights[l], S.bases[l], x, Y)
                    assert np.array_equal(comp.value_at(x), direct)

    def test_requires_membership(self, pd, pd_full):
        u = FormalElement.single(1, CylinderFunction.constant(pd, 1.0))
        with pytest.raises(PreconditionViolated):
            gamma_symbolic(u, pd_full)

    def test_multiplicative_at_every_word(self, reference_systems):
        # not sampled: the homomorphism identities hold at every base word
        rng = np.random.default_rng(33)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            for _ in range(10):
                a = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                b = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                ca = gamma_symbolic(a, S)
                cb = gamma_symbolic(b, S)
                cab = gamma_symbolic(a * b, S)
                cstar = gamma_symbolic(a.adjoint(), S)
                for l in range(S.m + 1):
                    w = ca[l].window.hull(cb[l].window).hull(cab[l].window)
                    w = w.hull(cstar[l].window)
                    left = ca[l].values_on(w)
                    right = cb[l].values_on(w)
                    prod = cab[l].values_on(w)
                    star = cstar[l].values_on(w)
                    for word in left:
                        assert np.allclose(prod[word],
                                           left[word] @ right[word],
                                           rtol=0.0, atol=1e-12)
                        assert np.array_equal(star[word],
                                              left[word].conj().T)


class TestHomomorphism:
    def test_scalar_case(self, pd, pd_y, pd_full):
        rep = homomorphism_check(pd_y, 1, pd_full.bases[0], trials=50, seed=0)
        assert rep.passed

    def test_matrix_case(self, pd, pd_y, pd_full):
        rep = homomorphism_check(pd_y, 2, pd_full.bases[1], trials=200, seed=1)
        assert rep.passed
        assert rep.max_deviation < 1e-10

    def test_negative_control_fails(self, pd, pd_y, pd_full):
        u = FormalElement.single(1, CylinderFunction.constant(pd, 1.0))
        rep = homomorphism_check(pd_y, 2, pd_full.bases[1], trials=0, seed=0,
                                 pairs=[(u, u.adjoint())])
        assert not rep.passed
        assert rep.max_deviation >= 1.0


class TestInjectivity:
    def test_unit(self, pd_full):
        w = injectivity_witness(pd_full, FormalElement.unit(pd_full.system))
        assert w.value != 0

    def test_example_witness_in_tower_one(self, pd, pd_full):
        a = indicator_u(pd, Window(0, 0), "1")
        w = injectivity_witness(pd_full, a)
        assert (w.l, w.n) == (1, 1)
        assert w.value != 0

    def test_random_elements(self, reference_systems):
        rng = np.random.default_rng(9)
        for _, _, system, Y in reference_systems:
            S = build_towers(Y, "full")
            found = 0
            while found < 30:
                a = sample_subalgebra_element(system, Y, rng,
                                              max(S.heights) + 1)
                if a.is_zero():
                    continue
                found += 1
                assert injectivity_witness(S, a).value != 0

    def test_negative_degree_only(self, pd, pd_y, pd_full):
        f = CylinderFunction.indicator(pd.cylinder(Window(1, 1), "1"))
        a = FormalElement.single(-1, f)
        assert in_ob_subalgebra(a, pd_y)
        w = injectivity_witness(pd_full, a)
        assert w.n == -1 and w.value != 0

    def test_zero_raises(self, pd_full):
        with pytest.raises(ZeroElement):
            injectivity_witness(pd_full, FormalElement.zero(pd_full.system))


class TestVanishingApproximation:
    def test_window_covers_everything(self, pd, pd_y):
        values = {w: (0.0 if w[0] == "0" else 1.0 + 0.5j)
                  for w in pd.language(2)}
        f = CylinderFunction(pd, Window(0, 1), values)
        g = approximate_with_vanishing(f, pd_y, Window(0, 1), 1e-9)
        assert all(g.values[w] == f.values[w] for w in f.values)

    def test_zero_function(self, pd, pd_y):
        f = CylinderFunction.constant(pd, 0.0)
        g = approximate_with_vanishing(f, pd_y, Window(0, 2), 1e-9)
        assert g.is_zero()

    def test_requires_vanishing(self, pd, pd_y):
        f = CylinderFunction.constant(pd, 1.0)
        with pytest.raises(PreconditionViolated):
            approximate_with_vanishing(f, pd_y, Window(0, 1), 0.5)

    def test_against_brute_force(self, pd, pd_y):
        # f on coordinates 0..3, vanishing on {x0 = 0}, projected to [0, 2]
        rng = np.random.default_rng(4)
        values = {}
        for w in sorted(pd.language(4)):
            values[w] = 0.0 if w[0] == "0" else float(rng.uniform(0.5, 2.0))
        f = CylinderFunction(pd, Window(0, 3), values)
        I = Window(0, 2)
        fibers = {}
        for w in sorted(pd.language(4)):
            fibers.setdefault(w[:3], []).append(values[w].real
                                                if isinstance(values[w], float)
                                                else values[w])
        forced = {w[:3] for w in pd.language(4) if w[0] == "0"}
        optimum, oscillation = brute_force_projection_error(fibers, forced)
        try:
            g = approximate_with_vanishing(f, pd_y, I, 1e9)
            achieved = max(abs(g.values[w[:3]] - f.values[w])
                           for w in pd.language(4))
        except WindowTooSmall as e:
            achieved = e.achievable
        assert optimum - 1e-12 <= achieved <= oscillation + 1e-12

    def test_unachievable_reports_bound(self, pd, pd_y):
        values = {w: (0.0 if w[0] == "0" else 3.0) for w in pd.language(2)}
        f = CylinderFunction(pd, Window(0, 1), values)
        # project onto coordinate 1 only: fibers mix values 0 and 3
        with pytest.raises(WindowTooSmall) as err:
            approximate_with_vanishing(f, pd_y, Window(1, 1), 0.1)
        assert err.value.achievable == 3.0


class TestWindowConstant:
    def test_already_constant(self, pd, pd_y):
        z = PointWindow(pd, Window(0, 2), "010")
        f = CylinderFunction.indicator(pd.cylinder(Window(0, 0), "1"))
        a = FormalElement.single(1, f)
        Y, b = approximate_by_window_constant(a, z, 1e-9)
        assert Y == pd.cylinder(Window(0, 2), "010")
        assert in_ob_subalgebra(b, Y)
        diff = b.coefficient(1) - a.coefficient(1)
        assert diff.sup_norm() == 0.0

    def test_matching_depth_no_loss(self, pd):
        words = sorted(pd.language(5))
        z = PointWindow(pd, Window(-2, 2), words[0])
        Yz = pd.cylinder(z.window, z.word)
        rng = np.random.default_rng(8)
        a = sample_subalgebra_element(pd, Yz, rng, 2, window_lengths=(1, 2),
                                      lo_range=(-2, 1))
        Y, b = approximate_by_window_constant(a, z, 1e-9)
        assert in_ob_subalgebra(b, Y)
        for n in a.support:
            assert (b.coefficient(n) - a.coefficient(n)).sup_norm() == 0.0

    def test_too_small_eps_raises(self, pd):
        z = PointWindow(pd, Window(0, 0), "0")
        values = {w: (0.0 if w[0] == "0" else float(i + 1))
                  for i, w in enumerate(sorted(pd.language(3)))}
        f = CylinderFunction(pd, Window(0, 2), values)
        a = FormalElement.single(1, f)
        with pytest.raises(WindowTooSmall) as err:
            approximate_by_window_constant(a, z, 1e-6)
        assert err.value.achievable > 0
