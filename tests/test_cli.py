import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rokhlin
from rokhlin import cli, cuntz, rsh, towers
from rokhlin.cli import main
from rokhlin.crossed import FormalElement
from rokhlin.errors import InvariantViolated
from rokhlin.matrixfn import MatrixCylinderFunction

HERE = Path(__file__).parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"
REFERENCE = ["fibonacci", "period_doubling", "thue_morse"]
# Golden reports: tests/golden/<name>_<command>.json, written by the command
# run with these flags; verify cases keep the bare system name as their id.
GOLDEN_FLAGS = {"verify": (), "towers": (),
                "decompose": ("--emit-decomposition",)}
GOLDEN_RUNS = [pytest.param(name, command,
                            id=name if command == "verify" else f"{command}-{name}")
               for command in GOLDEN_FLAGS for name in REFERENCE]


def run(*argv):
    return main(list(argv))


def assert_one_line_error(capsys, prefix="config error:"):
    """Assert one error line on stderr; return what went to stdout."""
    out, err = capsys.readouterr()
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return out


class TestTowersCommand:
    def test_fibonacci_report(self, tmp_path, capsys):
        out = tmp_path / "towers.json"
        rc = run("towers", "--config", str(CONFIGS / "fibonacci.json"),
                 "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["rokhlin"]["heights"] == [2, 3]
        assert report["axioms"]["passed"]
        assert report["partitions"]["passed"]

    def test_malformed_rules_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"alphabet": ["0", "1"], "rules": {"0": "01", "1": ""}}))
        assert run("towers", "--config", str(cfg)) == 2

    def test_non_primitive_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "1"}}))
        assert run("towers", "--config", str(cfg)) == 2

    def test_empty_base_set_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"system": {"alphabet": ["0", "1"],
                        "rules": {"0": "01", "1": "0"}},
             "y": {"window": [0, 1], "words": []}}))
        assert run("towers", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"system": 5}',
        '{"alphabet": ["0", "1"], "rules": ["01", "0"]}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"y": {"window": 5, "words": []}}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"seed": "abc"}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"checks": 5}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"checks": [5]}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"out": 5}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"depth": 1e400}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"seed": 1e400}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"y": {"window": [0, 1e400], "words": ["0"]}}',
        '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}, '
        '"seed": -1}',
    ])
    def test_malformed_config_exit_two(self, text, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run("towers", "--config", str(cfg)) == 2
        assert_one_line_error(capsys)

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "towers.json"
        rc = run("towers", "--config", str(CONFIGS / "fibonacci.json"),
                 "--out", str(out))
        assert rc == 2
        assert_one_line_error(capsys)


# JSON text spliced in for one field of a sound config
MALFORMED_VALUES = ["null", "true", "-1", str(2**70), "1e400", "NaN", '"x"',
                    "[]", "{}"]


class TestMalformedConfigSweep:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(["depth", "seed", "y", "variant", "checks"]),
           st.sampled_from(MALFORMED_VALUES))
    def test_exit_code_contract(self, tmp_path_factory, field, value):
        cfg = json.loads((CONFIGS / "period_doubling.json").read_text())
        (cfg["system"] if field == "depth" else cfg)[field] = "@VALUE@"
        path = tmp_path_factory.mktemp("sweep") / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@VALUE@"', value))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = run("towers", "--config", str(path))
        assert rc in (0, 1, 2)
        if rc == 2:
            err = err.getvalue()
            assert err.startswith("config error:"), err
            assert err.count("\n") == 1, err


class TestVerifyCommand:
    @pytest.mark.parametrize("name", REFERENCE)
    def test_reference_systems_pass(self, name, tmp_path, capsys):
        rc = run("verify", "--config", str(CONFIGS / f"{name}.json"))
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", REFERENCE)
    @pytest.mark.parametrize("variant", ["standard", "full"])
    def test_all_reference_configs_both_variants(self, name, variant,
                                                 tmp_path, capsys):
        rc = run("verify", "--config", str(CONFIGS / f"{name}.json"),
                 "--variant", variant)
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name, command", GOLDEN_RUNS)
    def test_matches_golden_report(self, name, command, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(command, "--config", str(CONFIGS / f"{name}.json"),
                 *GOLDEN_FLAGS[command], "--out", str(out))
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / f"{name}_{command}.json").read_bytes()

    def test_corrupted_report_detected(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run("verify", "--config", str(CONFIGS / "fibonacci.json"),
            "--out", str(out))
        golden = (GOLDEN / "fibonacci_verify.json").read_bytes()
        tampered = out.read_bytes().replace(b'"passed": true',
                                            b'"passed": false', 1)
        assert tampered != golden
        assert out.read_bytes() == golden

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"report{i}.json"
            rc = run("verify", "--config",
                     str(CONFIGS / "period_doubling.json"), "--out", str(out))
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_change_same_verdicts(self, tmp_path, capsys):
        verdicts = []
        for seed in (0, 7):
            out = tmp_path / f"seed{seed}.json"
            rc = run("verify", "--config",
                     str(CONFIGS / "period_doubling.json"),
                     "--seed", str(seed), "--out", str(out))
            assert rc == 0
            report = json.loads(out.read_text())
            verdicts.append([(c["name"], c["passed"])
                             for c in report["checks"]])
        assert verdicts[0] == verdicts[1]

    def test_invariant_violation_exit_one(self, monkeypatch, capsys):
        def broken(S):
            raise InvariantViolated("planted")

        monkeypatch.setattr(cli, "verify_rokhlin_axioms", broken)
        rc = run("verify", "--config", str(CONFIGS / "fibonacci.json"),
                 "--checks", "axioms")
        assert rc == 1
        assert_one_line_error(capsys, "internal invariant violated: planted")

    def test_paths_check_names_failing_levels(self, pd101_defects, pd_full):
        failed = cli.CHECKS["paths"]({"S": pd101_defects["tall-middle"]})
        assert not failed.passed
        assert failed.detail == "levels 1,2"
        passed = cli.CHECKS["paths"]({"S": pd_full})
        assert passed.passed and passed.detail == ""

    def test_stage_membership_names_first_violation(self, pd_full,
                                                    monkeypatch):
        # planted defect: the evaluation doubles the top component, which
        # breaks its gluing to the level below
        evaluate = rsh.stage_from_gamma
        made = []

        def doubled(a, S):
            b = evaluate(a, S)
            top = b.components[-1]
            made.append(rsh.StageElement((*b.components[:-1],
                                          MatrixCylinderFunction(
                top.base, top.window, top.size,
                {w: 2 * M for w, M in top.values.items()}))))
            return made[-1]

        passed = cli.CHECKS["stage-membership"]({"S": pd_full, "seed": 0})
        assert passed.passed and passed.detail == ""
        monkeypatch.setattr(rsh, "stage_from_gamma", doubled)
        failed = cli.CHECKS["stage-membership"]({"S": pd_full, "seed": 0})
        assert not failed.passed
        level, mu, word = rsh.stage_violations(pd_full, made[-1])[0]
        assert (level, mu) == (1, (0, 0))
        assert failed.detail == f"level 1, mu=[0, 0], word {word!r}"

    @staticmethod
    def _lift_reading_degree_one_as_zero(monkeypatch):
        # planted defect: lift puts its degree-1 coefficient on degree 0; the
        # series stays in the orbit-breaking subalgebra (degree 0 has no
        # vanishing condition) but evaluates to another element
        lift = rsh.lift

        def wrong_degree(S, b):
            terms = dict(lift(S, b).terms)
            if 1 in terms:
                moved = terms.pop(1)
                terms[0] = terms[0] + moved if 0 in terms else moved
            return FormalElement(S.system, terms)

        monkeypatch.setattr(rsh, "lift", wrong_degree)

    def test_lift_roundtrip_names_first_failing_basis_element(
            self, pd_full, monkeypatch):
        passed = cli.CHECKS["lift-roundtrip"]({"S": pd_full, "seed": 0})
        slots = rsh._basis_slots(pd_full)
        assert passed.passed
        assert passed.detail == f"{len(slots) + 10} elements"
        # the first unit whose lift has a degree-1 term (a unit e_jk lifts
        # to degree j - k alone)
        k = next(k for k, b in enumerate(rsh.stage_basis_elements(pd_full))
                 if 1 in rsh.lift(pd_full, b).terms)
        tower = slots[k][0]
        self._lift_reading_degree_one_as_zero(monkeypatch)
        failed = cli.CHECKS["lift-roundtrip"]({"S": pd_full, "seed": 0})
        assert not failed.passed
        assert failed.detail.startswith(
            f"{len(slots) + 10} elements; element {k} (basis) differs at "
            f"level {tower}, word ")

    def test_lift_roundtrip_names_first_failing_sample(self, pd_full,
                                                       monkeypatch):
        monkeypatch.setattr(rsh, "stage_basis_elements", lambda S: iter(()))
        assert cli.CHECKS["lift-roundtrip"]({"S": pd_full, "seed": 0}).passed
        self._lift_reading_degree_one_as_zero(monkeypatch)
        failed = cli.CHECKS["lift-roundtrip"]({"S": pd_full, "seed": 0})
        assert not failed.passed
        assert failed.detail.startswith(
            "10 elements; element 0 (sample 0) differs at level ")

    # The planted defect above on period-doubling 0=0, run in a fresh process.
    DOUBLED_TOP = """
from rokhlin import cli, rsh
from rokhlin.matrixfn import MatrixCylinderFunction
from rokhlin.subshift import Window, period_doubling
from rokhlin.towers import build_towers
S = build_towers(period_doubling().cylinder(Window(0, 0), "0"), "full")
evaluate = rsh.stage_from_gamma
def doubled(a, S):
    b = evaluate(a, S)
    top = b.components[-1]
    return rsh.StageElement((*b.components[:-1], MatrixCylinderFunction(
        top.base, top.window, top.size,
        {w: 2 * M for w, M in top.values.items()})))
rsh.stage_from_gamma = doubled
print(cli.CHECKS["stage-membership"]({"S": S, "seed": 0}).detail)
"""

    def test_first_violation_does_not_depend_on_hash_seed(self):
        src = str(Path(rokhlin.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        details = {subprocess.run(
            [sys.executable, "-c", self.DOUBLED_TOP],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2", "3")}
        assert len(details) == 1
        assert details.pop().startswith("level 1, mu=[0, 0], word ")

    def test_gamma_agreement_fails_on_a_neighbouring_row(self, pd_full,
                                                         monkeypatch):
        # planted defect: a matrix function's value at a word is read from
        # the next row of its stack, so the symbolic evaluation no longer
        # matches the pointwise one
        assert cli.CHECKS["gamma-agreement"]({"S": pd_full, "seed": 0}).passed

        def neighbour(self, word, window):
            index = self.base.system.lexicon(window.length)[1][word]
            row = self.rows_of([index], window)[0]
            return self._stack[(row + 1) % len(self._stack)]

        monkeypatch.setattr(MatrixCylinderFunction, "value", neighbour)
        failed = cli.CHECKS["gamma-agreement"]({"S": pd_full, "seed": 0})
        assert not failed.passed and failed.deviation > 1e-12

    def test_pullback_fails_on_a_moved_boundary_value(self, pd_full,
                                                      monkeypatch, capsys):
        # planted defect: every basis element's top component is moved by
        # 1e-9, beyond the 1e-12 gluing tolerance, at its first row on the
        # boundary D_l; the check reads that from the element's violation
        # list and reports it, where lifting the element would raise
        config = str(CONFIGS / "period_doubling.json")
        assert cli.CHECKS["pullback"]({"S": pd_full, "seed": 0}).passed
        assert run("verify", "--config", config, "--checks", "pullback") == 0
        basis_element = rsh._basis_element

        def moved(S, *slot):
            b = basis_element(S, *slot)
            top, D = b.components[-1], S.boundaries[b.level]
            window = top.window.hull(D.window)
            row = top.rows_of(D.indices_on(window)[:1], window)[0]
            stack = top._stack.copy()
            stack[row, 0, 0] += 1e-9
            return rsh.StageElement((*b.components[:-1],
                                     MatrixCylinderFunction._from_stack(
                                         top.base, top.window, stack)))

        monkeypatch.setattr(rsh, "_basis_element", moved)
        failed = cli.CHECKS["pullback"]({"S": pd_full, "seed": 0})
        assert not failed.passed
        assert failed.detail == "boundary_compatible"
        capsys.readouterr()
        assert run("verify", "--config", config, "--checks", "pullback") == 1
        out, err = capsys.readouterr()
        assert "FAIL" in out and "(boundary_compatible)" in out and err == ""

    def test_cuntz_sweep_fails_on_a_flipped_domination_rule(self, monkeypatch):
        # planted defect: the one rank-domination rule compares with `<` in
        # place of `>=`; the witness sweep then finds a hypothesis that holds
        # with a conclusion that fails, and the same patch makes an element
        # incomparable with itself, so every comparison goes through it
        a = cuntz.PositiveElement.from_ranks(("w0", "w1"), 2, {"w0": 1, "w1": 2})
        assert cli.CHECKS["cuntz-sweep"]({"seed": 0}).passed
        assert cuntz.cuntz_leq(a, a)
        assert cuntz.CuntzClass.of(a) <= cuntz.CuntzClass.of(a)
        monkeypatch.setattr(cuntz, "_dominates",
                            lambda upper, lower: bool((np.asarray(upper) < lower).all()))
        failed = cli.CHECKS["cuntz-sweep"]({"seed": 0})
        assert not failed.passed and failed.deviation > 0
        assert not cuntz.cuntz_leq(a, a)
        assert not cuntz.CuntzClass.of(a) <= cuntz.CuntzClass.of(a)

    def test_eps_cut_fails_when_clipping_at_eps(self, monkeypatch):
        # planted defect: the cutoff clips shifted eigenvalues at eps instead
        # of at zero, so eigenvalues below eps come out as eps
        assert cli.CHECKS["eps-cut"]({"seed": 0}).passed

        def clipped_at_eps(a, eps):
            lam, V = np.linalg.eigh(a._stack)
            cut = np.maximum(lam - eps, eps)
            return cuntz.PositiveElement._from_stack(
                a.base, (V * cut[:, None, :]) @ V.conj().swapaxes(1, 2))

        monkeypatch.setattr(cuntz, "eps_cut", clipped_at_eps)
        failed = cli.CHECKS["eps-cut"]({"seed": 0})
        assert not failed.passed and failed.deviation > 1e-10

    def test_rc_bound_fails_on_an_off_by_one_numerator(self, pd_full,
                                                       monkeypatch):
        # planted defect: the per-level value drops the -1 of its numerator
        assert cli.CHECKS["rc-bound"]({"S": pd_full, "seed": 0}).passed
        monkeypatch.setattr(cuntz, "per_level_value", lambda length, r, d:
                            Fraction((length + r) * d, 2 * r))
        assert not cli.CHECKS["rc-bound"]({"S": pd_full, "seed": 0}).passed

    def test_unknown_check_exit_two(self, capsys):
        rc = run("verify", "--config", str(CONFIGS / "fibonacci.json"),
                 "--checks", "axioms,nonsense")
        assert rc == 2

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_negative_seed_exit_two(self, command, capsys):
        rc = run(command, "--config", str(CONFIGS / "period_doubling.json"),
                 "--seed", "-1")
        assert rc == 2
        assert_one_line_error(capsys)


class TestOnePassPerCall:
    """A call computes the return profile once, and the parser that ``main``
    keeps from one call to the next carries nothing over."""

    FIB_100 = {"system": {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}},
               "y": "0=100", "seed": 0}

    @staticmethod
    def _count_profiles(monkeypatch) -> list:
        calls = []
        original = towers.return_profile

        def counted(Y):
            calls.append(Y)
            return original(Y)

        for name, module in list(sys.modules.items()):
            if (name == "rokhlin" or name.startswith("rokhlin.")) and \
                    getattr(module, "return_profile", None) is original:
                monkeypatch.setattr(module, "return_profile", counted)
        return calls

    @pytest.mark.parametrize("command", ["towers", "verify"])
    def test_return_profile_once_per_call(self, command, tmp_path,
                                          monkeypatch, capsys):
        # Y = 0=100 has disjoint translates, so rc-bound needs the profile too
        config = tmp_path / "fibonacci_100.json"
        config.write_text(json.dumps(self.FIB_100))
        calls = self._count_profiles(monkeypatch)
        for k in (1, 2):
            assert run(command, "--config", str(config)) == 0
            assert len(calls) == k

    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        fib = str(CONFIGS / "fibonacci.json")
        first, other, again = (tmp_path / f"{k}.json" for k in range(3))
        assert run("towers", "--config", fib, "--out", str(first)) == 0
        assert run("towers", "--config", str(CONFIGS / "thue_morse.json"),
                   "--variant", "standard", "--y", "0=11",
                   "--out", str(other)) == 0
        assert run("towers", "--config", fib, "--out", str(again)) == 0
        golden = (GOLDEN / "fibonacci_towers.json").read_bytes()
        assert first.read_bytes() == again.read_bytes() == golden
        report = json.loads(other.read_text())
        assert report["variant"] == "standard"
        assert report["rokhlin"]["Y"] == {"window": [0, 1], "words": ["11"]}
        assert run("verify", "--config", fib, "--checks", "axioms") == 0
        assert run("verify", "--config", fib, "--out", str(again)) == 0
        assert again.read_bytes() == (GOLDEN / "fibonacci_verify.json").read_bytes()

    def test_patched_command_is_honoured(self, monkeypatch, capsys):
        fib = str(CONFIGS / "fibonacci.json")
        assert run("towers", "--config", fib) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_towers",
                            lambda args: seen.append(args.config) or 7)
        assert run("towers", "--config", fib) == 7
        assert seen == [fib]


class TestDecomposeCommand:
    def test_period_doubling_decomposition(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        rc = run("decompose", "--config",
                 str(CONFIGS / "period_doubling.json"),
                 "--emit-decomposition", "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["heights"] == [1, 2]
        paths = report["decomposition"]["paths"]
        assert paths == [{"l": 1, "mu": [0, 0],
                          "set": {"window": [0, 2], "words": ["000"]}}]
        assert report["decomposition"]["boundaries"][1]["words"] == ["000"]
        assert report["pullback"]["passed"]

    def test_full_set_single_summand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"system": {"alphabet": ["0", "1"],
                        "rules": {"0": "01", "1": "0"}},
             "y": "full"}))
        out = tmp_path / "dec.json"
        rc = run("decompose", "--config", str(cfg), "--emit-decomposition",
                 "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["heights"] == [1]
        assert report["decomposition"]["paths"] == []

    def test_product_window_width_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"system": {"alphabet": ["0", "1"],
                        "rules": {"0": "01", "1": "00"}},
             "y": {"window": [0, 2], "letters": [["0"], ["0", "1"], ["0"]]}}))
        out = tmp_path / "dec.json"
        rc = run("decompose", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        approx = report["approximating_system"]
        assert "skipped" not in approx
        assert all(approx["checks"].values())
        assert all(s["count"] >= 1 for s in approx["spaces"])


class TestEvalCommand:
    def test_evaluates_matrix(self, tmp_path, capsys):
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps(
            {"terms": [{"n": 1, "window": [0, 0],
                        "values": {"0": [0.0, 0.0], "1": [1.0, 0.0]}}]}))
        rc = run("eval", "--config", str(CONFIGS / "period_doubling.json"),
                 "--element", str(elem), "--n", "2", "--x", "0:0100")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matrix"] == [[[0.0, 0.0], [0.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]]]

    def test_short_point_exit_two(self, tmp_path, capsys):
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps(
            {"terms": [{"n": 1, "window": [0, 0],
                        "values": {"0": [0.0, 0.0], "1": [1.0, 0.0]}}]}))
        rc = run("eval", "--config", str(CONFIGS / "period_doubling.json"),
                 "--element", str(elem), "--n", "2", "--x", "0:00")
        assert rc == 2

    def test_n_above_depth_exit_two(self, tmp_path, capsys):
        # Y & Y.shift(-N) is enumerated on a window of about N letters, so
        # an N beyond the configured depth (64) is refused before any word
        # is enumerated, even where the evaluation itself would be cheap
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps(
            {"terms": [{"n": 1, "window": [0, 0],
                        "values": {"0": [0.0, 0.0], "1": [1.0, 0.0]}}]}))
        x = "0:000100010001010100010001000101010001000100010101000101010001010100"
        rc = run("eval", "--config", str(CONFIGS / "period_doubling.json"),
                 "--element", str(elem), "--n", "65", "--x", x)
        assert rc == 2
        assert_one_line_error(capsys, "config error: --n 65 exceeds the "
                                      "enumeration depth 64")

    @pytest.mark.parametrize("element", [
        {"terms": 5},
        [],
        {"terms": [{"n": 1, "window": [0, 0], "values": []}]},
        {"terms": [{"n": 1, "window": [0, 0],
                    "values": {"0": [float("nan"), 0.0], "1": [1.0, 0.0]}}]},
        {"terms": [{"n": 1, "window": [0, 0],
                    "values": {"0": [0.0, float("inf")], "1": [1.0, 0.0]}}]},
        '{"terms": [{"n": 1e400, "window": [0, 0], '
        '"values": {"0": [0.0, 0.0], "1": [1.0, 0.0]}}]}',
        '{"terms": [{"n": 1, "window": [0, 1e400], '
        '"values": {"0": [0.0, 0.0], "1": [1.0, 0.0]}}]}',
    ])
    def test_malformed_element_exit_two(self, element, tmp_path, capsys):
        # a string is written as it stands, so it can hold JSON numbers
        # that overflow a float
        elem = tmp_path / "elem.json"
        elem.write_text(element if isinstance(element, str)
                        else json.dumps(element))
        rc = run("eval", "--config", str(CONFIGS / "period_doubling.json"),
                 "--element", str(elem), "--n", "2", "--x", "0:0100")
        assert rc == 2
        assert_one_line_error(capsys)


class TestRcBoundCommand:
    def test_table_and_headline(self, capsys):
        rc = run("rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                 "--window", "0:0", "--dim", "2", "--mdim", "1")
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound: 1.500000" in out
        assert "separation verified" in out
        assert "37" in out

    def test_heights_three_five_example(self, tmp_path, capsys):
        # fibonacci with the length-3 cylinder 100 has heights (3, 5), so the
        # window-3, dimension-2 table tops out at 11/6
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"system": {"alphabet": ["0", "1"],
                        "rules": {"0": "01", "1": "0"}},
             "y": "0=100"}))
        rc = run("rc-bound", "--config", str(cfg),
                 "--window", "0:2", "--dim", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound: 1.833333" in out
        assert "separation verified" in out

    def test_dimension_zero(self, capsys):
        rc = run("rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                 "--window", "0:0", "--dim", "0")
        assert rc == 0
        assert "bound: 0.000000" in capsys.readouterr().out

    def test_bad_dim_exit_two(self, capsys):
        rc = run("rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                 "--window", "0:0", "--dim", "-1")
        assert rc == 2

    def test_window_above_depth_exit_two(self, capsys):
        # the window translates of Y are taken up to the window length, so a
        # length beyond the configured depth (64) is refused; 0:63 still runs
        argv = ["rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                "--dim", "1", "--window"]
        assert run(*argv, "0:64") == 2
        assert_one_line_error(capsys, "config error: --window length 65 "
                                      "exceeds the enumeration depth 64")
        assert run(*argv, "0:63") == 0

    def test_bad_window_exit_two(self, capsys):
        rc = run("rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                 "--window", "junk", "--dim", "1")
        assert rc == 2

    @pytest.mark.parametrize("mdim", ["nan", "inf", "1e308"])
    def test_non_finite_mdim_exit_two(self, mdim, capsys):
        # 36 * 1e308 overflows to inf; the command fails before printing
        rc = run("rc-bound", "--config", str(CONFIGS / "period_doubling.json"),
                 "--window", "0:0", "--dim", "2", "--mdim", mdim)
        assert rc == 2
        assert assert_one_line_error(capsys) == ""


class TestDepthEnv:
    def test_env_overrides_depth(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ROKHLIN_DEPTH", "2")
        # depth 2 is below the aperiodicity probe's needs only if enumeration
        # fails; a thin base set cannot find its return bound at depth 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"system": {"alphabet": ["0", "1"],
                        "rules": {"0": "01", "1": "0"}, "depth": 64},
             "y": {"window": [0, 4], "words": ["10010"]}}))
        rc = run("towers", "--config", str(cfg))
        assert rc == 2
        monkeypatch.delenv("ROKHLIN_DEPTH")
        out = tmp_path / "t.json"
        assert run("towers", "--config", str(cfg), "--out", str(out)) == 0

    def test_non_integer_depth_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("ROKHLIN_DEPTH", "abc")
        assert run("towers", "--config", str(CONFIGS / "fibonacci.json")) == 2
        assert_one_line_error(capsys)
