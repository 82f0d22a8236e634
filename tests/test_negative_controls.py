"""One planted defect per registered ``verify`` check.

``CONTROLS`` maps every key of ``cli.CHECKS`` to the defect that makes the
check fail, to what the failure reads (its ``detail``, its deviation or the
exit code of ``rokhlin verify``) and to the tests that plant it; each such
test also shows that the check passes without the defect.  A check that no
defect can make fail goes in ``CANNOT_FAIL`` with the reason instead, so a
newly registered check cannot ship without one or the other.  This is
mutation testing applied check by check (DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978).  The controls raise
through the library's own errors, never through a library ``assert``, so
they hold under ``python -O`` too.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from rokhlin import cli, crossed
from rokhlin.crossed import MATRIX_TOL, CylinderFunction, FormalElement
from rokhlin.matrixfn import MatrixCylinderFunction

HERE = Path(__file__).parent
CONFIG = str(HERE / "configs" / "period_doubling.json")


class Control(NamedTuple):
    defect: str
    fails_with: str
    tests: tuple  # "<file>::<class>::<test>", relative to tests/


CONTROLS = {
    "axioms": Control(
        "period-doubling 101 built by hand with its middle tower one too tall",
        "detail height-attained-on-base,interior-return-time-exact,"
        "tops-return-to-Y",
        ("test_towers.py::TestStoredData::"
         "test_planted_wrong_height_fails_axioms",
         "test_cli.py::TestVerifyCommand::test_invariant_violation_exit_one")),
    "partitions": Control(
        "period-doubling 101 built by hand with a short top, a tall middle "
        "or no top tower",
        "the failing identities named per defect",
        ("test_towers.py::TestNegativeControls::test_defect_is_caught",)),
    "paths": Control(
        "period-doubling 101 built by hand with its middle tower one too tall",
        "detail levels 1,2",
        ("test_cli.py::TestVerifyCommand::"
         "test_paths_check_names_failing_levels",)),
    "homomorphism": Control(
        "CylinderFunction.compose_shift shifts by -j instead of j",
        f"deviation above MATRIX_TOL ({MATRIX_TOL})",
        ("test_negative_controls.py::TestNewControls::"
         "test_homomorphism_fails_on_a_flipped_shift",)),
    "gamma-agreement": Control(
        "MatrixCylinderFunction.value reads the next row of its stack",
        "deviation above 1e-12",
        ("test_cli.py::TestVerifyCommand::"
         "test_gamma_agreement_fails_on_a_neighbouring_row",)),
    "subalgebra-closure": Control(
        "project_to_subalgebra leaves the degree-1 coefficient unprojected",
        "passed false",
        ("test_negative_controls.py::TestNewControls::"
         "test_subalgebra_closure_fails_on_a_skipped_degree",)),
    "injectivity": Control(
        "gamma_component returns its entries (j, j - n), n >= 0, as zero",
        "exit 1, internal invariant violated: no witness found",
        ("test_negative_controls.py::TestNewControls::"
         "test_injectivity_fails_on_zeroed_witness_entries",)),
    "stage-membership": Control(
        "stage_from_gamma doubles the top component",
        "detail level 1, mu=[0, 0], word ...",
        ("test_cli.py::TestVerifyCommand::"
         "test_stage_membership_names_first_violation",
         "test_cli.py::TestVerifyCommand::"
         "test_first_violation_does_not_depend_on_hash_seed")),
    "lift-roundtrip": Control(
        "lift moves its degree-1 coefficient to degree 0",
        "detail N elements; element k (basis|sample i) differs at level l, "
        "word ...",
        ("test_cli.py::TestVerifyCommand::"
         "test_lift_roundtrip_names_first_failing_basis_element",
         "test_cli.py::TestVerifyCommand::"
         "test_lift_roundtrip_names_first_failing_sample")),
    "pullback": Control(
        "_basis_element moves the top component by 1e-9 at its first "
        "boundary row",
        "detail boundary_compatible; rokhlin verify exits 1",
        ("test_cli.py::TestVerifyCommand::"
         "test_pullback_fails_on_a_moved_boundary_value",)),
    "approx-diagram": Control(
        "ClopenSet.shift moves constraints the wrong way; a top component "
        "of 2I",
        "diagram-commutes false; projected gluing fails at level 1",
        ("test_rsh.py::TestApproximatingSystem::"
         "test_diagram_fails_when_the_shift_goes_the_wrong_way",
         "test_rsh.py::TestPhiRange::test_projected_gluing_violation_named")),
    "cuntz-sweep": Control(
        "the rank-domination rule compares with < in place of >=",
        "deviation (falsified count) above 0",
        ("test_cli.py::TestVerifyCommand::"
         "test_cuntz_sweep_fails_on_a_flipped_domination_rule",)),
    "eps-cut": Control(
        "eps_cut clips shifted eigenvalues at eps instead of 0",
        "deviation above 1e-10",
        ("test_cli.py::TestVerifyCommand::"
         "test_eps_cut_fails_when_clipping_at_eps",)),
    "rc-bound": Control(
        "per_level_value drops the -1 of its numerator",
        "passed false",
        ("test_cli.py::TestVerifyCommand::"
         "test_rc_bound_fails_on_an_off_by_one_numerator",)),
}

# check name -> why no planted defect can make it fail
CANNOT_FAIL = {}


def _defined_tests(path: Path) -> set:
    """``class::test`` and bare ``test`` names defined in a test file."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return names


class TestRegistry:
    def test_every_check_has_a_control_or_a_reason(self):
        assert not set(CONTROLS) & set(CANNOT_FAIL)
        assert set(CONTROLS) | set(CANNOT_FAIL) == set(cli.CHECKS)
        assert all(reason.strip() for reason in CANNOT_FAIL.values())

    def test_every_listed_control_test_exists(self):
        for name, control in CONTROLS.items():
            assert control.tests, name
            for test in control.tests:
                path, _, rest = test.partition("::")
                assert rest in _defined_tests(HERE / path), (name, test)


class TestNewControls:
    def test_homomorphism_fails_on_a_flipped_shift(self, pd_full,
                                                   monkeypatch):
        # planted defect: f o h^j is built as f o h^-j, so products and
        # adjoints of series no longer evaluate to the matrix products
        check = cli.CHECKS["homomorphism"]
        assert check({"S": pd_full, "seed": 0}).passed
        monkeypatch.setattr(
            CylinderFunction, "compose_shift",
            lambda self, j: CylinderFunction._from_column(
                self.system, self.window.shift(-j), self._column))
        failed = check({"S": pd_full, "seed": 0})
        assert not failed.passed and failed.deviation > MATRIX_TOL

    def test_subalgebra_closure_fails_on_a_skipped_degree(self, pd_full,
                                                          monkeypatch):
        # planted defect: the projection onto the orbit-breaking subalgebra
        # leaves degree 1 as drawn, so the sampled series are not members
        check = cli.CHECKS["subalgebra-closure"]
        assert check({"S": pd_full, "seed": 0}).passed
        project = crossed.project_to_subalgebra

        def skipping_degree_one(a, Y):
            terms = dict(project(a, Y).terms)
            if 1 in a.terms:
                terms[1] = a.terms[1]
            return FormalElement(a.system, terms)

        monkeypatch.setattr(crossed, "project_to_subalgebra",
                            skipping_degree_one)
        failed = check({"S": pd_full, "seed": 0})
        assert not failed.passed and failed.detail == ""

    @pytest.mark.parametrize("defect", [False, True], ids=["sound", "planted"])
    def test_injectivity_fails_on_zeroed_witness_entries(self, defect,
                                                         monkeypatch, capsys):
        # planted defect: the evaluation returns zero at every entry
        # (j, j - n) with n >= 0, the entries a witness is read from, so no
        # witness exists and the search reports a broken invariant
        gamma = crossed.gamma_component

        def unwitnessed(a, S, l):
            f = gamma(a, S, l)
            return MatrixCylinderFunction._from_stack(
                f.base, f.window, np.triu(f._stack, 1))

        if defect:
            monkeypatch.setattr(crossed, "gamma_component", unwitnessed)
        rc = cli.main(["verify", "--config", CONFIG, "--checks", "injectivity"])
        out, err = capsys.readouterr()
        if defect:
            assert rc == 1 and out == ""
            assert err == ("internal invariant violated: no witness found "
                           "for a nonzero subalgebra element\n")
        else:
            assert rc == 0 and err == ""
            assert out.startswith("injectivity            PASS")
