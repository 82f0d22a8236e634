"""The benchmark's two workloads and the parts they are built from.

``cold-forward`` mixes two kinds of operation in each round: cold
``rokhlin towers`` calls (``TowersCold``) and forward evaluation on fixed
tower systems (``EvaluateCompare``).  Neither is what per-system plans and
caches (ROADMAP item 2) are for; ``pullback-roundtrip`` is.  So an item-2
change should gain on ``pullback-roundtrip`` and show no change on
``cold-forward``, and a plan that costs more than it saves where it is
rarely reused shows as a worsening there, in its own process, where no
pullback operation warms it.

A workload's constructor builds what every operation shares: the systems
and towers.  ``round(r)`` draws the inputs of round ``r`` fresh from the
seed and ``r`` and returns its operations in a seeded order; set-up draws
round 0.  Every round has the same mix (the same systems, word lengths and
input kinds in the same numbers), but no round repeats another's inputs, so
a cache that one operation fills is warm for a later one only where the
inputs share a system, as they do for a real caller.  Each operation is a
tuple whose first item is a key naming it; the key's first item is the
operation's kind, which the summary reports on its own.  ``run(op)`` is the
timed operation, including the correctness checks that belong to it, and
raises ``CheckFailed`` when a check fails.  ``check(op, result)`` is
untimed: it runs the checks that are not part of the operation and returns
the bytes that go into the run's output digest.

Calls into the package go through module attributes (``rsh.lift``, not a
name imported from ``rsh``) so that the tracer's patches see them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import numpy as np

from rokhlin import cli, crossed, cuntz, rsh, subshift, towers

FIBONACCI = {"0": "01", "1": "0"}
PERIOD_DOUBLING = {"0": "01", "1": "00"}
THUE_MORSE = {"0": "01", "1": "10"}
TRIBONACCI = {"0": "01", "1": "02", "2": "0"}
RUDIN_SHAPIRO = {"a": "ab", "b": "ac", "c": "db", "d": "dc"}

# TowersCold word-length caps, chosen so that one round of every word takes
# a few seconds, no call dominates it, and a round has at least 100 calls.
# Thue-Morse and Tribonacci stop at length 4: at length 5 calls take up to
# 0.75 s.  Rudin-Shapiro stops at length 1: length 2 takes 0.6-1.4 s per
# call and length 4 exceeds the enumeration depth.
TOWERS_COLD_SYSTEMS = [
    ("fibonacci", FIBONACCI, 6),
    ("period-doubling", PERIOD_DOUBLING, 5),
    ("thue-morse", THUE_MORSE, 4),
    ("tribonacci", TRIBONACCI, 4),
    ("rudin-shapiro", RUDIN_SHAPIRO, 1),
]
# A word's cost depends much on its position and variant.  Each word runs
# through every (position, variant) pair in its own seeded order, one pair
# per round, so no config repeats within ten rounds and a run of any length
# spreads each word evenly over the pairs.
POSITIONS = (-2, 2)
VARIANTS = ("full", "standard")
PLACEMENTS = [(pos, variant) for pos in range(POSITIONS[0], POSITIONS[1] + 1)
              for variant in VARIANTS]

# Tower systems of PullbackRoundtrip and EvaluateCompare: (label, rules,
# base cylinder word at coordinate 0).  Heights are (2, 6, 14), (8, 16),
# (4, 6, 8) and (2, 4, 6, 8, 10).
TOWER_SYSTEMS = [
    ("period-doubling/101", PERIOD_DOUBLING, "101"),
    ("period-doubling/10101", PERIOD_DOUBLING, "10101"),
    ("thue-morse/0110", THUE_MORSE, "0110"),
    ("rudin-shapiro/a", RUDIN_SHAPIRO, "a"),
]

# PullbackRoundtrip: inputs of each kind per system and round.
DENSE_INPUTS, SPARSE_INPUTS = 8, 24

# EvaluateCompare: term counts of (a, b); each pair of counts is drawn
# PAIR_REPEATS times per system and round.
TERM_COUNTS = [(ka, kb) for ka in (2, 4, 6) for kb in (2, 4, 6)]
PAIR_REPEATS = 4
GAMMA_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, what: str):
    if not condition:
        raise CheckFailed(what)


def make_system(rules) -> subshift.SubstitutionSystem:
    return subshift.SubstitutionSystem(sorted(rules), rules)


def make_towers(rules, word: str) -> towers.RokhlinSystem:
    system = make_system(rules)
    Y = system.cylinder(subshift.Window(0, len(word) - 1), word)
    return towers.build_towers(Y, "full")


def _max_dev(A, B) -> float:
    return float(np.max(np.abs(A - B), initial=0.0))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        """The operations of round ``r`` on fresh inputs, in an order drawn
        from the seed and ``r``."""
        ops = self.make_ops(r)
        rng = np.random.default_rng([self.seed, r])
        return [ops[int(i)] for i in rng.permutation(len(ops))]

    def make_ops(self, r: int) -> list:
        raise NotImplementedError


class TowersCold(Workload):
    """One in-process ``rokhlin towers`` call per operation, on a config file
    written for it: a system, a seeded cylinder ``POS=WORD`` and a variant.
    The operation's kind is ``towers``.

    A round covers every admissible word up to the length cap of every
    system, each at its next placement (see ``PLACEMENTS``), and writes new
    config files.  Every call builds its own system.
    """

    def __init__(self, seed: int, workdir):
        super().__init__(seed)
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.words = []
        for label, rules, cap in TOWERS_COLD_SYSTEMS:
            system = make_system(rules)
            config = system.to_config()
            for length in range(1, cap + 1):
                self.words += [(label, config, word)
                               for word in sorted(system.language(length))]
        rng = np.random.default_rng([seed, 1])
        self.placements = [rng.permutation(len(PLACEMENTS)) for _ in self.words]
        self.heights: dict = {}

    def make_ops(self, r: int) -> list:
        ops = []
        for i, (label, config, word) in enumerate(self.words):
            order = self.placements[i]
            pos, variant = PLACEMENTS[order[r % len(order)]]
            path = self.workdir / f"config-{i}.json"
            path.write_text(json.dumps({"system": config, "y": f"{pos}={word}",
                                        "variant": variant}))
            ops.append((("towers", label, word, pos, variant), str(path)))
        return ops

    def run(self, op):
        argv = ["towers", "--config", op[1], "--out", str(self.report)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op, code) -> bytes:
        require(code == 0, f"exit code {code}")
        data = self.report.read_bytes()
        report = json.loads(data)
        require(report["axioms"]["passed"] is True, "axioms")
        require(report["partitions"]["passed"] is True, "partitions")
        require(report["paths_cover_boundaries"] is True, "paths_cover_boundaries")
        self.heights.setdefault(op[0][1], set()).add(
            tuple(report["rokhlin"]["heights"]))
        return data

    def mix(self) -> dict:
        systems = {}
        for label, _, cap in TOWERS_COLD_SYSTEMS:
            seen = sorted(self.heights.get(label, ()))
            systems[label] = {
                "word_lengths": [1, cap],
                "words": sum(1 for w in self.words if w[0] == label),
                "tower_counts": sorted({len(h) for h in seen}),
                "max_height": max((max(h) for h in seen), default=None)}
        return {"ops_per_round": len(self.words), "positions": list(POSITIONS),
                "variants": list(VARIANTS), "systems": systems}


class _TowerWorkload(Workload):
    """Shared set-up of the two workloads that query fixed tower systems."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.systems = [(label, make_towers(rules, word))
                        for label, rules, word in TOWER_SYSTEMS]

    def _systems_mix(self) -> dict:
        return {label: {"heights": list(S.heights),
                        "base_words": [len(T.words) for T in S.bases]}
                for label, S in self.systems}


class PullbackRoundtrip(_TowerWorkload):
    """The per-element work of ``pullback_isomorphism_check`` on one stage
    element: membership, glued boundaries, lift, and a bitwise round trip.

    Inputs per system: dense elements from ``sample_stage_element`` and
    sparse ones from ``stage_from_gamma`` of single-degree subalgebra
    elements.  The operation's kind is the system's index.
    """

    name = "pullback-roundtrip"

    def __init__(self, seed: int, workdir):
        super().__init__(seed)

    def make_ops(self, r: int) -> list:
        ops = []
        for s, (label, S) in enumerate(self.systems):
            rng = np.random.default_rng([self.seed, r, s])
            for k in range(DENSE_INPUTS):
                ops.append(((s, "dense", k), rsh.sample_stage_element(S, rng)))
            k = 0
            while k < SPARSE_INPUTS:
                a = crossed.sample_subalgebra_element(
                    S.system, S.Y, rng, max(S.heights) - 1, max_support=1)
                if not a.is_zero():
                    ops.append(((s, "sparse", k), rsh.stage_from_gamma(a, S)))
                    k += 1
        return ops

    def run(self, op):
        S = self.systems[op[0][0]][1]
        b = op[1]
        require(rsh.in_stage_algebra(S, b), "in_stage_algebra")
        glued = []
        for l in range(1, S.m + 1):
            D = S.boundaries[l]
            if D.is_empty():
                continue
            g = rsh.beta_boundary(S, l, b)
            require(b.components[l].restrict(D).allclose(g, atol=rsh.STAGE_TOL),
                    f"boundary {l} compatible")
            glued.append(g)
        a = rsh.lift(S, b)
        require(crossed.in_ob_subalgebra(a, S.Y), "lift in subalgebra")
        require(rsh.stage_from_gamma(a, S).equal_exact(b), "round trip exact")
        return a, glued

    def check(self, op, result) -> bytes:
        a, glued = result
        parts = [json.dumps(a.to_json(), sort_keys=True).encode()]
        for g in glued:
            for w in sorted(g.values):
                parts.append(w.encode() + g.values[w].tobytes())
        return b"".join(parts)

    def mix(self) -> dict:
        return {"ops_per_round": len(self.systems) * (DENSE_INPUTS + SPARSE_INPUTS),
                "inputs_per_system": {"dense": DENSE_INPUTS,
                                      "sparse": SPARSE_INPUTS},
                "sparse_degrees": "one term, |n| <= max height - 1",
                "systems": self._systems_mix()}


class EvaluateCompare(_TowerWorkload):
    """Forward evaluation of a subalgebra pair and its products, checked
    pointwise, plus an injectivity witness and a Cuntz comparison step.

    Each ``a`` and ``b`` is a sum of single-degree elements drawn with
    ``sample_subalgebra_element`` at distinct degrees, with term counts from
    ``TERM_COUNTS``.  The operation's kind is ``evaluate``.
    """

    def __init__(self, seed: int, workdir):
        super().__init__(seed)

    def make_ops(self, r: int) -> list:
        ops = []
        for s, (label, S) in enumerate(self.systems):
            rng = np.random.default_rng([self.seed, r, s, 2])
            degree = max(S.heights) + 1
            for k, (ka, kb) in enumerate(TERM_COUNTS * PAIR_REPEATS):
                a = self._element(S, rng, degree, ka)
                b = self._element(S, rng, degree, kb)
                l = int(rng.integers(S.m + 1))
                eps = float(rng.uniform(0.05, 0.5))
                point_seed = int(rng.integers(2**32))
                ops.append((("evaluate", s, k), a, b, l, eps, point_seed))
        return ops

    @staticmethod
    def _element(S, rng, max_abs_degree: int, count: int):
        terms = {}
        while len(terms) < count:
            single = crossed.sample_subalgebra_element(
                S.system, S.Y, rng, max_abs_degree, max_support=1)
            for n, f in single.terms.items():
                terms.setdefault(n, f)
        return crossed.FormalElement(S.system, terms)

    def run(self, op):
        (_, s, k), a, b, l, eps, point_seed = op
        S = self.systems[s][1]
        ab = a * b
        a_star = a.adjoint()
        a_star_a = a_star * a
        for e, what in ((ab, "a*b"), (a_star, "a^*"), (a_star_a, "a^*a")):
            require(crossed.in_ob_subalgebra(e, S.Y), f"{what} in subalgebra")
        elements = (a, b, ab, a_star, a_star_a)
        comps = [crossed.gamma_symbolic(e, S) for e in elements]
        r, Z = S.heights[l], S.bases[l]
        rng = np.random.default_rng(point_seed)
        x = crossed.sample_point(Z, [c[l].window for c in comps], rng)
        values = [crossed.gamma_eval(e, r, Z, x, S.Y) for e in elements]
        for c, v in zip(comps, values):
            require(_max_dev(c[l].value_at(x), v) <= GAMMA_TOL,
                    "gamma_eval agrees with gamma_symbolic")
        ga, gb, gab, ga_star, ga_star_a = values
        tol = crossed.MATRIX_TOL
        require(_max_dev(gab, ga @ gb) <= tol, "gamma(ab) = gamma(a) gamma(b)")
        require(_max_dev(ga_star, ga.conj().T) <= tol, "gamma(a^*) = gamma(a)^*")
        require(_max_dev(ga_star_a, ga.conj().T @ ga) <= tol,
                "gamma(a^*a) = gamma(a)^* gamma(a)")
        witness = crossed.injectivity_witness(S, a)
        require(witness.value != 0, "injectivity witness nonzero")
        top = comps[4][l]
        p = cuntz.PositiveElement(sorted(top.values), r, top.values)
        cut = cuntz.eps_cut(p, eps)
        require(cuntz.cuntz_leq(cut, p), "eps_cut(p) <= p")
        return x, values, witness, p.rank_profile()

    def check(self, op, result) -> bytes:
        x, values, witness, ranks = result
        parts = [x.word.encode()] + [v.tobytes() for v in values]
        parts.append(repr((witness.l, witness.j, witness.n, witness.word,
                           witness.value)).encode())
        parts.append(repr(sorted(ranks.items())).encode())
        return b"".join(parts)

    def mix(self) -> dict:
        return {"ops_per_round": len(self.systems) * len(TERM_COUNTS) * PAIR_REPEATS,
                "pairs_per_system": len(TERM_COUNTS) * PAIR_REPEATS,
                "term_counts": [list(t) for t in TERM_COUNTS],
                "max_abs_degree": "max height + 1",
                "systems": self._systems_mix()}


class ColdForward(Workload):
    """Each round runs every ``TowersCold`` operation of its round and every
    ``EvaluateCompare`` operation of its round, interleaved in one seeded
    order."""

    name = "cold-forward"

    def __init__(self, seed: int, workdir):
        super().__init__(seed)
        self.parts = {"towers": TowersCold(seed, workdir),
                      "evaluate": EvaluateCompare(seed, workdir)}

    def make_ops(self, r: int) -> list:
        return [op for part in self.parts.values() for op in part.make_ops(r)]

    def run(self, op):
        return self.parts[op[0][0]].run(op)

    def check(self, op, result) -> bytes:
        return self.parts[op[0][0]].check(op, result)

    def mix(self) -> dict:
        return {kind: part.mix() for kind, part in self.parts.items()}


WORKLOADS = {w.name: w for w in (ColdForward, PullbackRoundtrip)}
