"""Batch front door: config-driven tower builds, decomposition reports,
verification suites, evaluation, and bound tables.

Exit codes: 0 all requested checks pass, 1 a check failed or an internal
invariant was violated, 2 usage or configuration error.  All randomized
checks are seeded and every report is byte-stable for a fixed (config, seed,
version).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import cuntz, rsh
from .crossed import (
    FormalElement,
    gamma_eval,
    gamma_symbolic,
    homomorphism_check,
    in_ob_subalgebra,
    injectivity_witness,
    sample_point,
    sample_subalgebra_element,
)
from .errors import InvariantViolated, RokhlinError
from .subshift import ClopenSet, PointWindow, SubstitutionSystem, Window
from .towers import (
    admissible_sequences,
    boundary_path_cover,
    build_towers,
    partition_identities,
    verify_rokhlin_axioms,
)

DEPTH_ENV = "ROKHLIN_DEPTH"


class ConfigError(Exception):
    pass


# -- configuration -----------------------------------------------------------


@dataclass
class RunConfig:
    system: SubstitutionSystem
    Y: ClopenSet
    variant: str
    checks: list
    seed: int
    out: str | None


def _parse_y_spec(system: SubstitutionSystem, spec):
    if spec in (None, "full"):
        return system.full_set()
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            spec = json.loads(text)
        else:
            if "=" not in text:
                raise ConfigError(f"cannot parse base-set spec {spec!r}")
            pos, word = text.split("=", 1)
            window = Window(int(pos), int(pos) + len(word) - 1)
            return system.cylinder(window, word)
    if not isinstance(spec, dict):
        raise ConfigError(f"cannot parse base-set spec {spec!r}")
    window = Window.from_json(spec["window"])
    if "letters" in spec:
        return system.from_letter_sets(window, [set(s) for s in spec["letters"]])
    if "words" in spec:
        return ClopenSet(system, window, spec["words"])
    raise ConfigError("base-set spec needs either 'letters' or 'words'")


def load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {args.config}: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    sys_cfg = raw["system"] if "system" in raw else raw
    if not isinstance(sys_cfg, dict):
        raise ConfigError("the system config is not a JSON object")
    depth_env = os.environ.get(DEPTH_ENV)
    if depth_env is not None:
        try:
            sys_cfg = dict(sys_cfg, depth=int(depth_env))
        except ValueError:
            raise ConfigError(
                f"{DEPTH_ENV} must be an integer, got {depth_env!r}") from None
    try:
        system = SubstitutionSystem.from_config(sys_cfg)
    except (KeyError, TypeError, ValueError, OverflowError, RokhlinError) as e:
        raise ConfigError(f"bad system config: {e}")
    y_spec = args.y if getattr(args, "y", None) else raw.get("y")
    try:
        Y = _parse_y_spec(system, y_spec)
    except (ValueError, KeyError, TypeError, OverflowError, RokhlinError) as e:
        raise ConfigError(f"bad base-set spec: {e}")
    if Y.is_empty():
        raise ConfigError("the base set is empty")
    variant = getattr(args, "variant", None) or raw.get("variant", "full")
    if variant not in ("standard", "full"):
        raise ConfigError(f"unknown variant {variant!r}")
    checks = raw.get("checks") or []
    if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
        raise ConfigError(f"checks must be a list of names, got {checks!r}")
    if getattr(args, "checks", None):
        checks = [c for c in args.checks.split(",") if c]
    try:
        seed = args.seed if getattr(args, "seed", None) is not None \
            else int(raw.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    out = getattr(args, "out", None) or raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a file path, got {out!r}")
    return RunConfig(system=system, Y=Y, variant=variant, checks=checks,
                     seed=seed, out=out)


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write report: {e}") from None
    else:
        sys.stdout.write(text)


# -- verification checks --------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.deviation = float(self.deviation)

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name:<22} {status}  max-dev {self.deviation:.3e}"
        if self.detail:
            line += f"  ({self.detail})"
        return line

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "deviation": self.deviation, "detail": self.detail}


def _check_axioms(ctx):
    rep = verify_rokhlin_axioms(ctx["S"])
    failed = sorted(k for k, v in rep.conditions.items() if not v)
    return CheckResult("axioms", rep.passed, 0.0, ",".join(failed))


def _check_partitions(ctx):
    rep = partition_identities(ctx["S"])
    failed = sorted(k for k, v in rep.identities.items() if not v)
    return CheckResult("partitions", rep.passed, 0.0, ",".join(failed))


def _check_paths(ctx):
    S = ctx["S"]
    failed = [str(l) for l in range(S.m + 1) if not boundary_path_cover(S, l)]
    return CheckResult("paths", not failed, 0.0,
                       f"levels {','.join(failed)}" if failed else "")


def _check_homomorphism(ctx):
    S = ctx["S"]
    worst = 0.0
    ok = True
    for l in range(S.m + 1):
        rep = homomorphism_check(S.Y, S.heights[l], S.bases[l], trials=40,
                                 seed=ctx["seed"] + l)
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed
    return CheckResult("homomorphism", ok, worst)


def _check_gamma_agreement(ctx):
    S = ctx["S"]
    rng = np.random.default_rng(ctx["seed"])
    worst = 0.0
    for _ in range(20):
        a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        comps = gamma_symbolic(a, S)
        for l, comp in enumerate(comps):
            for _ in range(3):
                x = sample_point(S.bases[l], [comp.window], rng)
                direct = gamma_eval(a, S.heights[l], S.bases[l], x, S.Y)
                worst = max(worst, float(np.max(np.abs(
                    comp.value_at(x) - direct), initial=0.0)))
    return CheckResult("gamma-agreement", worst <= 1e-12, worst)


def _check_closure(ctx):
    S = ctx["S"]
    rng = np.random.default_rng(ctx["seed"])
    ok = True
    for _ in range(30):
        a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        b = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        ok = ok and in_ob_subalgebra(a * b, S.Y) \
            and in_ob_subalgebra(a + b, S.Y) \
            and in_ob_subalgebra(a.adjoint(), S.Y)
    return CheckResult("subalgebra-closure", ok, 0.0)


def _check_injectivity(ctx):
    S = ctx["S"]
    rng = np.random.default_rng(ctx["seed"])
    ok = True
    found = 0
    while found < 25:
        a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        if a.is_zero():
            continue
        found += 1
        w = injectivity_witness(S, a)
        ok = ok and w.value != 0
    return CheckResult("injectivity", ok, 0.0)


def _check_stage_membership(ctx):
    S = ctx["S"]
    rng = np.random.default_rng(ctx["seed"])
    detail = ""
    for _ in range(20):
        a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        violations = rsh.checked_violations(S, rsh.stage_from_gamma(a, S))
        if violations:
            l, mu, word = violations[0]
            detail = f"level {l}, mu={list(mu)}, word {word!r}"
            break
    return CheckResult("stage-membership", not detail, 0.0, detail)


def _check_lift_roundtrip(ctx):
    S = ctx["S"]
    rng = np.random.default_rng(ctx["seed"])
    pool = list(rsh.stage_basis_elements(S))
    basis = len(pool)
    pool += [rsh.sample_stage_element(S, rng) for _ in range(10)]
    for k, b in enumerate(pool):
        got = rsh.stage_from_gamma(rsh.lift(S, b), S)
        where = got.first_difference(b)
        if where is not None:
            kind = "basis" if k < basis else f"sample {k - basis}"
            detail = (f"{len(pool)} elements; element {k} ({kind}) differs "
                      f"at level {where[0]}")
            if where[1] is not None:
                detail += f", word {where[1]!r}"
            return CheckResult("lift-roundtrip", False, 0.0, detail)
    return CheckResult("lift-roundtrip", True, 0.0, f"{len(pool)} elements")


def _check_pullback(ctx):
    rep = rsh.pullback_isomorphism_check(ctx["S"], samples=25, seed=ctx["seed"])
    failed = sorted(k for k, v in rep.to_json().items()
                    if isinstance(v, bool) and not v and k != "passed")
    return CheckResult("pullback", rep.passed, 0.0, ",".join(failed))


def _check_approx_diagram(ctx):
    S = ctx["S"]
    try:
        A = rsh.build_approximating_system(S, S.Y.window)
    except RokhlinError as e:
        return CheckResult("approx-diagram", False, 0.0, str(e))
    ok = A.passed
    rng = np.random.default_rng(ctx["seed"])
    unit = FormalElement.unit(S.system)
    ok = ok and rsh.phi_range_check(S, A, unit).ok
    for _ in range(10):
        a = sample_subalgebra_element(
            S.system, S.Y, rng, max(S.heights) + 1,
            window_lengths=tuple(range(1, S.Y.window.length + 1)),
            lo_range=(S.Y.window.lo, S.Y.window.lo))
        ok = ok and rsh.phi_range_check(S, A, a).ok
    return CheckResult("approx-diagram", ok, 0.0)


def _check_cuntz_sweep(ctx):
    falsified = 0
    for size in (1, 2, 3):
        for base_n in (1, 2):
            base = tuple(f"w{i}" for i in range(base_n))
            for re_ in itertools.product(range(size + 1), repeat=base_n):
                for rm_ in itertools.product(range(size + 1), repeat=base_n):
                    eta = cuntz.PositiveElement.from_ranks(
                        base, size, dict(zip(base, re_)))
                    mu = cuntz.PositiveElement.from_ranks(
                        base, size, dict(zip(base, rm_)))
                    for n in (1, 2):
                        for m in (0, 1):
                            if not cuntz.rc_witness_test(n, m, eta, mu):
                                falsified += 1
    return CheckResult("cuntz-sweep", falsified == 0, float(falsified))


def _check_eps_cut(ctx):
    rng = np.random.default_rng(ctx["seed"])
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = B @ B.conj().T
        A = A / max(1.0, float(np.linalg.norm(A, 2)))
        p = cuntz.PositiveElement(("z",), n, {"z": A})
        eps = float(rng.uniform(0.0, 1.0))
        cut = cuntz.eps_cut(p, eps)
        expect = np.maximum(np.linalg.eigvalsh(A) - eps, 0.0)
        got = np.linalg.eigvalsh(cut.values["z"])
        worst = max(worst, float(np.max(np.abs(np.sort(expect) - np.sort(got)))))
    return CheckResult("eps-cut", worst <= 1e-10, worst)


def _check_rc_bound(ctx):
    S = ctx["S"]
    hand = cuntz.per_level_value(3, 3, 2)
    ok = (hand.numerator, hand.denominator) == (11, 6)
    rep = cuntz.rc_upper_bound(S, S.Y.window, 1)
    ok = ok and (not rep.separation_verified or rep.bound <= 1)
    ok = ok and cuntz.headline_bound(1.0) == (37.0, 37)
    return CheckResult("rc-bound", ok, 0.0)


CHECKS = {
    "axioms": _check_axioms,
    "partitions": _check_partitions,
    "paths": _check_paths,
    "homomorphism": _check_homomorphism,
    "gamma-agreement": _check_gamma_agreement,
    "subalgebra-closure": _check_closure,
    "injectivity": _check_injectivity,
    "stage-membership": _check_stage_membership,
    "lift-roundtrip": _check_lift_roundtrip,
    "pullback": _check_pullback,
    "approx-diagram": _check_approx_diagram,
    "cuntz-sweep": _check_cuntz_sweep,
    "eps-cut": _check_eps_cut,
    "rc-bound": _check_rc_bound,
}


# -- commands ------------------------------------------------------------------


def cmd_towers(args) -> int:
    cfg = load_config(args)
    S = build_towers(cfg.Y, cfg.variant)
    profile = S.profile
    axioms = verify_rokhlin_axioms(S)
    partitions = partition_identities(S)
    paths = [p for l in range(S.m + 1) for p in admissible_sequences(S, l)]
    paths_ok = all(boundary_path_cover(S, l) for l in range(S.m + 1))
    report = {
        "system": cfg.system.to_config(),
        "variant": cfg.variant,
        "profile": {"bound": profile.bound,
                    "levels": [{"r": r, "piece": piece.to_json()}
                               for r, piece in profile.levels]},
        "rokhlin": S.to_json(),
        "axioms": axioms.to_json(),
        "partitions": partitions.to_json(),
        "paths": [p.to_json() for p in paths],
        "paths_cover_boundaries": paths_ok,
    }
    _emit(report, cfg.out)
    ok = axioms.passed and partitions.passed and paths_ok
    if not ok:
        failing = sorted(
            [k for k, v in axioms.conditions.items() if not v]
            + [k for k, v in partitions.identities.items() if not v]
            + ([] if paths_ok else ["paths-cover-boundaries"]))
        print(f"towers: FAILED {','.join(failing)}", file=sys.stderr)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    cfg = load_config(args)
    S = build_towers(cfg.Y, cfg.variant)
    pullback = rsh.pullback_isomorphism_check(S, samples=25, seed=cfg.seed)
    report = {
        "system": cfg.system.to_config(),
        "variant": cfg.variant,
        "heights": list(S.heights),
        "pullback": pullback.to_json(),
    }
    approx_ok = True
    try:
        A = rsh.build_approximating_system(S, cfg.Y.window)
        report["approximating_system"] = A.to_json()
        approx_ok = A.passed
    except RokhlinError as e:
        report["approximating_system"] = {"skipped": str(e)}
    if args.emit_decomposition:
        report["decomposition"] = {
            "bases": [T.to_json() for T in S.bases],
            "interiors": [T.to_json() for T in S.interiors],
            "boundaries": [D.to_json() for D in S.boundaries],
            "paths": [p.to_json() for l in range(S.m + 1)
                      for p in admissible_sequences(S, l)],
        }
    _emit(report, cfg.out)
    return 0 if (pullback.passed and approx_ok) else 1


def cmd_verify(args) -> int:
    cfg = load_config(args)
    names = cfg.checks or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {','.join(unknown)}")
    S = build_towers(cfg.Y, cfg.variant)
    ctx = {"S": S, "seed": cfg.seed}
    results = [CHECKS[name](ctx) for name in names]
    lines = [r.row() for r in results]
    overall = all(r.passed for r in results)
    summary = "\n".join(lines + [f"overall: {'PASS' if overall else 'FAIL'}"])
    print(summary)
    if cfg.out:
        _emit({"checks": [r.to_json() for r in results],
               "overall": overall, "seed": cfg.seed,
               "variant": cfg.variant,
               "system": cfg.system.to_config()}, cfg.out)
    return 0 if overall else 1


def cmd_eval(args) -> int:
    cfg = load_config(args)
    try:
        with open(args.element) as fh:
            element = FormalElement.from_json(cfg.system, json.load(fh))
    except (OSError, json.JSONDecodeError, AttributeError, KeyError,
            TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"cannot read element: {e}")
    N = args.n
    if N < 1:
        raise ConfigError("N must be positive")
    if N > cfg.system.depth:
        raise ConfigError(f"--n {N} exceeds the enumeration depth "
                          f"{cfg.system.depth}")
    Z = cfg.Y & cfg.Y.shift(-N)
    if Z.is_empty():
        raise ConfigError(f"no point of the base set returns after {N} steps")
    try:
        pos, word = args.x.split(":", 1)
        x = PointWindow(cfg.system, Window(int(pos), int(pos) + len(word) - 1),
                        word)
        matrix = gamma_eval(element, N, Z, x, cfg.Y)
    except (ValueError, RokhlinError) as e:
        raise ConfigError(f"cannot evaluate: {e}")
    report = {"n": N, "x": args.x,
              "matrix": [[[v.real, v.imag] for v in row] for row in matrix]}
    _emit(report, cfg.out)
    return 0


def cmd_rc_bound(args) -> int:
    cfg = load_config(args)
    if args.dim is None or args.dim < 0:
        raise ConfigError("--dim must be a nonnegative integer")
    try:
        headline = None if args.mdim is None else cuntz.headline_bound(args.mdim)
    except ValueError as e:
        raise ConfigError(f"--mdim: {e}") from None
    try:
        lo, hi = args.window.split(":", 1)
        window = Window(int(lo), int(hi))
    except (ValueError, AttributeError) as e:
        raise ConfigError(f"bad --window: {e}")
    if window.length > cfg.system.depth:
        raise ConfigError(f"--window length {window.length} exceeds the "
                          f"enumeration depth {cfg.system.depth}")
    S = build_towers(cfg.Y, cfg.variant)
    report = cuntz.rc_upper_bound(S, window, args.dim)
    print(f"{'level':>5} {'height':>7} {'per-level':>12}")
    for l, (r, v) in enumerate(zip(report.heights, report.per_level)):
        print(f"{l:>5} {r:>7} {float(v):>12.6f}")
    print(f"bound: {report.bound:.6f}  "
          f"(separation {'verified' if report.separation_verified else 'not verified'})")
    out = report.to_json()
    if headline is not None:
        value, d = headline
        print(f"headline: 1 + 36*mdim = {value:.6f}; least admissible integer "
              f"dimension {d}")
        out["headline"] = {"value": value, "least_dim": d}
    if cfg.out:
        _emit(out, cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rokhlin",
        description="Exact tower systems, decompositions, and bound arithmetic "
                    "for substitution subshifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--y", help="base set: 'full', 'POS=WORD', or JSON")
        p.add_argument("--variant", choices=("standard", "full"))
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("towers", help="build towers and verify their identities")
    common(p)

    p = sub.add_parser("decompose", help="stage decomposition and projections")
    common(p)
    p.add_argument("--emit-decomposition", action="store_true",
                   help="include full decomposition data in the report")

    p = sub.add_parser("verify", help="run the registered check suite")
    common(p)
    p.add_argument("--checks", help="comma-separated subset of checks")

    p = sub.add_parser("eval", help="evaluate a stored element at a point")
    common(p)
    p.add_argument("--element", required=True, help="element JSON path")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--x", required=True, help="point as POS:WORD")

    p = sub.add_parser("rc-bound", help="comparison-radius bound table")
    common(p)
    p.add_argument("--window", required=True, help="projection window LO:HI")
    p.add_argument("--dim", type=int, required=True,
                   help="declared dimension of the coordinate space")
    p.add_argument("--mdim", type=float,
                   help="also print the headline bound for this mean dimension")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and reused;
    the command function is looked up by name on every call."""
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InvariantViolated as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 1
    except RokhlinError as e:
        print(f"config error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
