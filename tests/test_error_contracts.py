"""The error surfaces promised by each operation's contract."""

import ast
from pathlib import Path

import numpy as np
import pytest

import rokhlin
from rokhlin.crossed import CylinderFunction, FormalElement, gamma_eval
from rokhlin.cuntz import (
    PositiveElement,
    cuntz_leq,
    eps_cut,
    headline_bound,
    rc_witness_test,
)
from rokhlin.errors import (
    BaseMismatch,
    NotHermitian,
    PathMismatch,
    WindowTooSmall,
)
from rokhlin.matrixfn import MatrixCylinderFunction
from rokhlin.subshift import ClopenSet, PointWindow, Window


class TestWindowValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Window(3, 2)

    def test_point_word_length_mismatch(self, fib):
        with pytest.raises(ValueError):
            PointWindow(fib, Window(0, 1), "010")

    def test_point_inadmissible_word(self, fib):
        with pytest.raises(ValueError):
            PointWindow(fib, Window(0, 1), "11")

    def test_point_restrict_needs_cover(self, fib):
        p = PointWindow(fib, Window(0, 1), "01")
        with pytest.raises(WindowTooSmall):
            p.restrict(Window(-1, 0))
        with pytest.raises(WindowTooSmall):
            p.letter(5)


class TestCylinderFunctionValidation:
    def test_inadmissible_value_keys(self, fib):
        with pytest.raises(ValueError):
            CylinderFunction(fib, Window(0, 1), {"11": 1.0})

    def test_value_needs_covering_window(self, fib):
        f = CylinderFunction(fib, Window(0, 1), {"00": 1.0})
        with pytest.raises(WindowTooSmall):
            f.value("0", Window(0, 0))

    def test_mixed_systems_rejected(self, fib, pd):
        f = CylinderFunction.constant(fib, 1.0)
        g = CylinderFunction.constant(pd, 1.0)
        with pytest.raises(ValueError):
            f + g


class TestMatrixFunctionValidation:
    def test_value_table_must_match_base(self, pd_full):
        T = pd_full.bases[0]
        with pytest.raises(ValueError):
            MatrixCylinderFunction(T, T.window, 1, {})

    def test_wrong_shape_rejected(self, pd_full):
        T = pd_full.bases[0]
        values = {w: np.zeros((2, 3)) for w in T.words}
        with pytest.raises(ValueError):
            MatrixCylinderFunction(T, T.window, 2, values)

    def test_value_off_base_raises_path_mismatch(self, pd, pd_full):
        f = MatrixCylinderFunction.identity(pd_full.bases[0], 1)
        with pytest.raises(PathMismatch):
            f.value("10", Window(0, 1))

    def test_restrict_needs_subset(self, pd, pd_full):
        f = MatrixCylinderFunction.identity(pd_full.bases[0], 1)
        with pytest.raises(ValueError):
            f.restrict(pd.full_set())


class TestPositiveElementContracts:
    def test_pad_to_smaller_rejected(self):
        a = PositiveElement.from_ranks(("w",), 3, {"w": 1})
        with pytest.raises(ValueError):
            a.pad_to(2)

    def test_comparison_pads_sizes(self):
        # comparison across different matrix sizes embeds by zero-padding
        small = PositiveElement.from_ranks(("w",), 2, {"w": 2})
        big = PositiveElement.from_ranks(("w",), 4, {"w": 3})
        assert cuntz_leq(small, big)
        assert not cuntz_leq(big, small)
        assert rc_witness_test(2, 0, small, big)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            PositiveElement.from_ranks(("w",), 2, {"w": 3})

    def test_witness_with_large_parameters(self):
        # (n + 1) * 2 > n * 1 for every n, so the hypothesis fails; 64-bit
        # rank arithmetic would wrap (n + 1) * 2 negative at n = 2**62
        eta = PositiveElement.from_ranks(("w",), 2, {"w": 2})
        mu = PositiveElement.from_ranks(("w",), 2, {"w": 1})
        for n in (2**62, 2**64):
            assert rc_witness_test(n, 0, eta, mu)
            assert rc_witness_test(1, n, mu, eta)

    def test_bad_witness_parameters(self):
        a = PositiveElement.from_ranks(("w",), 2, {"w": 1})
        with pytest.raises(ValueError):
            rc_witness_test(0, 1, a, a)
        with pytest.raises(ValueError):
            rc_witness_test(1, -1, a, a)

    def test_direct_sum_needs_common_base(self):
        a = PositiveElement.from_ranks(("w",), 2, {"w": 1})
        b = PositiveElement.from_ranks(("v",), 2, {"v": 1})
        with pytest.raises(BaseMismatch):
            a.direct_sum(b)
        with pytest.raises(BaseMismatch):
            a.distance(b)

    def test_one_matrix_per_word(self):
        with pytest.raises(ValueError):
            PositiveElement(("w", "v"), 1, {"w": [[1.0]]})
        with pytest.raises(NotHermitian):
            PositiveElement(("w",), 1, {"w": [[1.0 + 1.0j]]})

    def test_size_zero_end_to_end(self):
        # matrices of size 0 have rank 0 everywhere; cuts, padding, sums and
        # distances work on them as on any other size
        a = PositiveElement(("w", "v"), 0, {w: np.zeros((0, 0)) for w in "wv"})
        assert a.rank_profile() == {"w": 0, "v": 0}
        cut = eps_cut(a, 0.5)
        assert cut.size == 0 and cut.distance(a) == 0.0
        padded = a.pad_to(2)
        assert padded.rank_profile() == {"w": 0, "v": 0}
        assert np.array_equal(padded.values["w"], np.zeros((2, 2)))
        one = PositiveElement.from_ranks(("w", "v"), 1, {"w": 1, "v": 0})
        assert a.direct_sum(one).rank_profile() == {"w": 1, "v": 0}
        assert cuntz_leq(a, one) and not cuntz_leq(one, a)
        assert PositiveElement.from_ranks(("w",), 0, {"w": 0}).size == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PositiveElement(("w",), -1, {"w": np.zeros((0, 0))})
        with pytest.raises(ValueError):
            PositiveElement((), -1, {})
        with pytest.raises(ValueError):
            PositiveElement.from_ranks(("w",), -1, {"w": 0})

    def test_headline_overflow_rejected(self):
        # 36 * 1e308 is not finite, so no least integer exists
        with pytest.raises(ValueError):
            headline_bound(1e308)
        assert headline_bound(4e306)[1] == int(np.floor(36.0 * 4e306)) + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_rejected(self, bad):
        # comparisons with NaN are False and inf - inf is NaN, so the
        # tolerance tests alone would let both through
        with pytest.raises(NotHermitian):
            PositiveElement(("w",), 2, {"w": [[1.0, 0.0], [0.0, bad]]})


class TestClopenSetValidation:
    def test_mixed_systems_rejected(self, fib, pd):
        with pytest.raises(ValueError):
            fib.full_set() & pd.full_set()

    def test_letter_sets_arity(self, pd):
        with pytest.raises(ValueError):
            pd.from_letter_sets(Window(0, 1), [{"0"}])

    def test_gamma_eval_size_positive(self, pd, pd_y, pd_full):
        x = PointWindow(pd, Window(0, 2), "010")
        with pytest.raises(ValueError):
            gamma_eval(FormalElement.unit(pd), 0, pd_full.bases[0], x, pd_y)


def test_package_has_no_assert_statements():
    # ``python -O`` strips ``assert``; invariants raise InvariantViolated
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(rokhlin.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
