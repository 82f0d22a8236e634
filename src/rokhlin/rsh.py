"""Stage algebras, gluing maps, constructive lifting, approximating systems.

The tower system induces an iterated-pullback presentation: stage ``l``
consists of tuples ``(b_0, .., b_l)`` of matrix functions over the tower
bases such that on every path set ``T_{l,mu}`` the top component equals the
block-diagonal of the earlier components read along the path.  ``lift``
inverts the symbolic evaluation: it rebuilds a formal series from any stage
tuple in one pass over the interior levels ``h^j(T_l^0)``, which partition
the space.  Each word of the tabulation window is read once, on its own
level: a word on level ``h^j`` of tower ``l`` carries the entries
``(j, j - n)`` of ``b_l`` in degree ``n`` and ``(j - n, j)`` in degree
``-n``, and every other word gets zero.

An approximating system replaces each base by its projection onto the
coordinates ``[n1, n2 + r_l]`` when the underlying set is a product over
``[n1, n2]``; the index-shift maps on projections commute with the dynamics.
Its gluing is the stage gluing read on those windows: ``phi_range_check``
wraps the factored tables as a stage element and runs ``stage_violations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .crossed import (
    CylinderFunction,
    FormalElement,
    gamma_symbolic,
    in_ob_subalgebra,
    injectivity_witness,
    sample_subalgebra_element,
    _unit_disc,
)
from .errors import (
    InvariantViolated,
    NotInStageAlgebra,
    NotProductWindowSet,
    PathMismatch,
)
from .matrixfn import MatrixCylinderFunction, block_diagonal
from .subshift import ClopenSet, PointWindow, Window
from .towers import AdmissiblePath, RokhlinSystem, admissible_sequences

STAGE_TOL = 1e-12


@dataclass(frozen=True)
class StageElement:
    """Tuple of matrix functions over the tower bases ``T_0 .. T_l``."""

    components: tuple

    @property
    def level(self) -> int:
        return len(self.components) - 1

    @classmethod
    def identity(cls, S: RokhlinSystem) -> "StageElement":
        return cls(tuple(MatrixCylinderFunction.identity(T, r)
                         for T, r in zip(S.bases, S.heights)))

    @classmethod
    def zero(cls, S: RokhlinSystem) -> "StageElement":
        return cls(tuple(MatrixCylinderFunction.zero(T, r)
                         for T, r in zip(S.bases, S.heights)))

    def truncate(self, level: int) -> "StageElement":
        return StageElement(self.components[: level + 1])

    def equal_exact(self, other: "StageElement") -> bool:
        if self.level != other.level:
            return False
        return all(a.allclose(b, atol=0.0)
                   for a, b in zip(self.components, other.components))


def stage_from_gamma(a: FormalElement, S: RokhlinSystem) -> StageElement:
    return StageElement(tuple(gamma_symbolic(a, S)))


# -- gluing maps ------------------------------------------------------------------


def _glued_value(path: AdmissiblePath, b: StageElement, word: str,
                 window: Window) -> np.ndarray:
    """The gluing along ``path`` at the point whose word on ``window`` is
    ``word``: block ``s`` is component ``mu(s)`` read ``offsets[s]`` steps
    along the orbit."""
    return block_diagonal([b.components[idx].value(word, window.shift(-off))
                           for idx, off in zip(path.mu, path.offsets)])


def beta_path(S: RokhlinSystem, l: int, path: AdmissiblePath, b: StageElement,
              x: PointWindow) -> np.ndarray:
    """Block-diagonal gluing value at a point of the path set.

    Block ``s`` is the component indexed by ``mu(s)`` evaluated along the
    orbit at the partial sum of the earlier heights; the blocks fill an
    ``r_l x r_l`` matrix because the heights along the path sum to ``r_l``.
    """
    if b.level < l - 1:
        raise ValueError("need components for every tower below the path level")
    if not path.path_set.contains_point(x):
        raise PathMismatch(f"point is not in the path set of mu={path.mu}")
    return _glued_value(path, b, x.word, x.window)


def _path_eval_window(path: AdmissiblePath, b: StageElement,
                      window: Window) -> Window:
    """``window`` widened to carry the path set and every glued block."""
    w = window.hull(path.path_set.window)
    for idx, off in zip(path.mu, path.offsets):
        w = w.hull(b.components[idx].window.shift(off))
    return w


def _beta_values_on(path: AdmissiblePath, b: StageElement,
                    window: Window) -> dict:
    """Gluing values for every word of the path set, keyed by window word."""
    return {w: _glued_value(path, b, w, window)
            for w in path.path_set.words_on(window)}


def stage_violations(S: RokhlinSystem, b: StageElement):
    """All gluing violations ``(level, mu, word)``, lowest level first.

    Raises ``ValueError`` when a component's size is not its tower's height.
    """
    for i, comp in enumerate(b.components):
        if comp.size != S.heights[i]:
            raise ValueError(f"component {i} has size {comp.size}, "
                             f"expected {S.heights[i]}")
    violations = []
    for l in range(1, b.level + 1):
        comp = b.components[l]
        for path in admissible_sequences(S, l):
            if path.path_set.is_empty():
                continue
            window = _path_eval_window(path, b, comp.window)
            glued = _beta_values_on(path, b, window)
            for w, M in glued.items():
                if not np.allclose(comp.value(w, window), M,
                                   rtol=0.0, atol=STAGE_TOL):
                    violations.append((l, path.mu, w))
    return violations


def in_stage_algebra(S: RokhlinSystem, b: StageElement) -> bool:
    """Whether all gluing conditions hold at every word of every path set."""
    return not stage_violations(S, b)


def beta_boundary(S: RokhlinSystem, l: int,
                  b: StageElement) -> MatrixCylinderFunction:
    """The glued boundary function on ``D_l``.

    Well defined because every boundary word lies on at least one path set and
    overlapping paths give the same matrix for stage-algebra inputs; raises
    with the offending ``(mu, nu, word)`` when the input is not one.
    """
    if b.level < l - 1:
        raise ValueError("need components for every tower below the boundary level")
    violations = stage_violations(S, b.truncate(l - 1))
    if violations:
        raise NotInStageAlgebra(
            "components below the boundary level violate their own gluing",
            violation=violations[0])
    D = S.boundaries[l]
    paths = [p for p in admissible_sequences(S, l) if not p.path_set.is_empty()]
    window = D.window
    for path in paths:
        window = _path_eval_window(path, b, window)
    values = {}
    origin = {}
    for path in paths:
        glued = _beta_values_on(path, b, window)
        for w, M in glued.items():
            if w in values:
                if not np.allclose(values[w], M, rtol=0.0, atol=STAGE_TOL):
                    raise NotInStageAlgebra(
                        f"paths {origin[w]} and {path.mu} disagree at {w!r}",
                        violation=(l, (origin[w], path.mu), w))
            else:
                values[w] = M
                origin[w] = path.mu
    expected = D.words_on(window)
    missing = expected - set(values)
    if missing:
        raise InvariantViolated(
            f"boundary words not covered by any path: {sorted(missing)}")
    values = {w: values[w] for w in expected}
    return MatrixCylinderFunction(D, window, S.heights[l], values)


# -- constructive lifting ------------------------------------------------------------


def lift(S: RokhlinSystem, b: StageElement) -> FormalElement:
    """A series in the orbit-breaking subalgebra whose evaluation is ``b``.

    One pass over the interior levels ``h^j(T_l^0)``, which partition the
    space: along the orbit of an interior base point of tower ``l`` the lower
    towers' coefficients vanish, so each word is read once, on its own level.
    A word on level ``(l, j)`` takes its matrix ``M`` from ``b_l`` at the base
    point ``h^{-j}``; degree ``n`` (``0 <= n <= j``) takes ``M[j, j - n]`` at
    that word, and degree ``-n`` (``1 <= n <= j``) takes ``M[j - n, j]`` on the
    window shifted by ``n``; every other word gets zero.  The boundaries
    ``D_l`` are never read, so a lift carries the glued values there.
    """
    violations = stage_violations(S, b)
    if violations:
        l, mu, word = violations[0]
        raise NotInStageAlgebra(
            f"gluing violated at level {l}, mu={mu}, word {word!r}",
            violation=violations[0])
    system = S.system
    window = S.levels[0][0].window
    for l, comp in enumerate(b.components):
        for j, L in enumerate(S.levels[l]):
            window = window.hull(L.window).hull(comp.window.shift(-j))
    level_of = {}
    for l in range(b.level + 1):
        for j, L in enumerate(S.levels[l]):
            for w in L.words_on(window):
                if w in level_of:
                    raise InvariantViolated(
                        f"levels {level_of[w]} and {(l, j)} overlap at {w!r}")
                level_of[w] = (l, j)

    tables: dict = {}
    for w, (l, j) in level_of.items():
        M = b.components[l].value(w, window.shift(j))
        for n in range(j + 1):
            if M[j, j - n] != 0:
                tables.setdefault(n, {})[w] = M[j, j - n]
            if n and M[j - n, j] != 0:
                tables.setdefault(-n, {})[w] = M[j - n, j]
    a = FormalElement(system, {
        n: CylinderFunction(system, window.shift(max(0, -n)), values)
        for n, values in tables.items()})
    if not in_ob_subalgebra(a, S.Y):
        raise InvariantViolated("lift left the orbit-breaking subalgebra")
    return a


# -- stage-element sampling -----------------------------------------------------------


def _stage_windows(S: RokhlinSystem):
    """Per-level tabulation windows wide enough for every gluing evaluation:
    ``S.window`` padded on the right by the heights of towers ``1 .. i``."""
    return [Window(S.window.lo, S.window.hi + pad)
            for pad in accumulate((0, *S.heights[1:]))]


def _repair_gluing(S: RokhlinSystem, components):
    """Overwrite each component on its path sets with the glued value."""
    out = [components[0]]
    for l in range(1, len(components)):
        comp = components[l]
        window = comp.window
        staged = StageElement(tuple(out))
        values = dict(comp.values_on(window))
        for path in admissible_sequences(S, l):
            if path.path_set.is_empty():
                continue
            glued = _beta_values_on(path, staged, window)
            for w, M in glued.items():
                values[w] = M
        out.append(MatrixCylinderFunction(comp.base, window, comp.size, values))
    return StageElement(tuple(out))


def sample_stage_element(S: RokhlinSystem, rng) -> StageElement:
    """Random stage-algebra element: free values repaired into the gluing."""
    windows = _stage_windows(S)
    components = []
    for i in range(S.m + 1):
        r = S.heights[i]
        values = {}
        for w in sorted(S.bases[i].words_on(windows[i])):
            M = np.array([[_unit_disc(rng) for _ in range(r)] for _ in range(r)])
            values[w] = M
        components.append(MatrixCylinderFunction(
            S.bases[i], windows[i], r, values))
    return _repair_gluing(S, components)


def _basis_slots(S: RokhlinSystem) -> list:
    """``(tower, word, j, k)`` of every matrix-unit generator, in basis order;
    there are ``sum_i |words_i| * r_i^2`` of them."""
    windows = _stage_windows(S)
    return [(i, word, j, k)
            for i in range(S.m + 1)
            for word in sorted(S.bases[i].words_on(windows[i]))
            for j in range(S.heights[i]) for k in range(S.heights[i])]


def _basis_element(S: RokhlinSystem, i: int, word: str, j: int,
                   k: int) -> StageElement:
    """The unit ``e_{jk}`` at ``word`` of tower ``i``, repaired into the gluing."""
    windows = _stage_windows(S)
    r = S.heights[i]
    unit = np.zeros((r, r), dtype=complex)
    unit[j, k] = 1.0
    components = []
    for ii in range(S.m + 1):
        rr = S.heights[ii]
        values = {w: (unit if ii == i and w == word else np.zeros((rr, rr)))
                  for w in S.bases[ii].words_on(windows[ii])}
        components.append(MatrixCylinderFunction(
            S.bases[ii], windows[ii], rr, values))
    return _repair_gluing(S, components)


def stage_basis_elements(S: RokhlinSystem):
    """Matrix-unit-times-word-indicator generators, repaired into the gluing."""
    return (_basis_element(S, *slot) for slot in _basis_slots(S))


# -- pullback verification ------------------------------------------------------------


@dataclass(frozen=True)
class PullbackReport:
    """Sampled evidence that each stage is the pullback it claims to be."""

    boundary_compatible: bool
    pairs_glue_back: bool
    lift_round_trip: bool
    injective_on_samples: bool
    samples: int

    @property
    def passed(self) -> bool:
        return (self.boundary_compatible and self.pairs_glue_back
                and self.lift_round_trip and self.injective_on_samples)

    def to_json(self) -> dict:
        return {"boundary_compatible": self.boundary_compatible,
                "pairs_glue_back": self.pairs_glue_back,
                "lift_round_trip": self.lift_round_trip,
                "injective_on_samples": self.injective_on_samples,
                "samples": self.samples, "passed": self.passed}


def pullback_isomorphism_check(S: RokhlinSystem, samples: int = 100,
                               seed: int = 0,
                               basis_limit: int | None = None) -> PullbackReport:
    """Four sampled checks: stage tuples restrict compatibly to boundaries,
    pullback pairs glue back, lifting inverts the evaluation exactly, and
    nonzero subalgebra elements evaluate nonzero.

    The matrix-unit basis is included in full by default; ``basis_limit``
    thins it to an evenly spaced subset for systems whose bases carry many
    words, and only the kept elements are built.
    """
    rng = np.random.default_rng(seed)
    slots = _basis_slots(S)
    if basis_limit is not None and len(slots) > basis_limit:
        stride = len(slots) / basis_limit
        slots = [slots[int(i * stride)] for i in range(basis_limit)]
    pool = [_basis_element(S, *slot) for slot in slots]
    while len(pool) < max(samples, len(slots)):
        if rng.uniform() < 0.5:
            a = sample_subalgebra_element(S.system, S.Y, rng,
                                          max(S.heights) + 1)
            pool.append(stage_from_gamma(a, S))
        else:
            pool.append(sample_stage_element(S, rng))

    boundary_ok = True
    for b in pool:
        for l in range(1, S.m + 1):
            if S.boundaries[l].is_empty():
                continue
            rho = b.components[l].restrict(S.boundaries[l])
            glued = beta_boundary(S, l, b)
            if not rho.allclose(glued, atol=STAGE_TOL):
                boundary_ok = False

    pairs_ok = True
    if S.m > 0:
        for _ in range(min(samples, 20)):
            if not in_stage_algebra(S, sample_stage_element(S, rng)):
                pairs_ok = False

    lift_ok = True
    for b in pool:
        if not stage_from_gamma(lift(S, b), S).equal_exact(b):
            lift_ok = False

    inject_ok = True
    for _ in range(min(samples, 25)):
        a = sample_subalgebra_element(S.system, S.Y, rng, max(S.heights) + 1)
        if a.is_zero():
            continue
        if injectivity_witness(S, a).value == 0:
            inject_ok = False

    return PullbackReport(boundary_compatible=boundary_ok,
                          pairs_glue_back=pairs_ok,
                          lift_round_trip=lift_ok,
                          injective_on_samples=inject_ok,
                          samples=len(pool))


# -- approximating systems ---------------------------------------------------------------


@dataclass(frozen=True)
class ApproximatingSystem:
    """Projections of the tower bases onto ``[n1, n2 + r_l]``.

    ``spaces[l]`` is the word set of the ``l``-th projected base over
    ``proj_windows[l]``; ``path_images[(l, mu)]`` the projection of the path
    set.  ``checks`` records the exact verification of the
    projection/path/diagram conditions.
    """

    S: RokhlinSystem
    window: Window
    proj_windows: tuple
    spaces: tuple
    path_images: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "window": self.window.to_json(),
            "spaces": [{"window": w.to_json(), "count": len(z)}
                       for w, z in zip(self.proj_windows, self.spaces)],
            "path_images": [{"l": l, "mu": list(mu), "count": len(words)}
                            for (l, mu), words in sorted(self.path_images.items())],
            "checks": dict(self.checks),
        }


def _product_letter_sets(Y: ClopenSet, window: Window):
    words = Y.words_on(window)
    if not words:
        raise NotProductWindowSet("the base set is empty on the given window")
    letters = [frozenset(w[k] for w in words) for k in range(window.length)]
    return letters


def build_approximating_system(S: RokhlinSystem,
                               window: Window) -> ApproximatingSystem:
    """Project the towers of a product-window base onto finite windows.

    Requires the base set to be exactly the product of its per-coordinate
    letter sets over ``window``; every projection, preimage, containment, and
    diagram condition is then checked word by word and recorded.
    """
    system = S.system
    Y = S.Y
    if not window.contains(Y.window):
        raise NotProductWindowSet(
            "the base set constrains coordinates outside the declared window")
    letters = _product_letter_sets(Y, window)
    if Y != system.from_letter_sets(window, letters):
        raise NotProductWindowSet(
            "the base set is not a product of per-coordinate constraints")

    proj_windows = tuple(Window(window.lo, window.hi + r) for r in S.heights)
    spaces = tuple(S.bases[l].words_on(proj_windows[l])
                   for l in range(S.m + 1))
    checks = {}
    checks["projection-preimage-is-base"] = all(
        ClopenSet(system, proj_windows[l], spaces[l]) == S.bases[l]
        for l in range(S.m + 1))

    path_images = {}
    paths_ok = True
    containment_ok = True
    diagram_ok = True
    for l in range(1, S.m + 1):
        for path in admissible_sequences(S, l):
            mu = path.mu
            image = path.path_set.words_on(proj_windows[l]) \
                if not path.path_set.is_empty() else frozenset()
            path_images[(l, mu)] = image
            preimage = ClopenSet(system, proj_windows[l], image) & S.bases[l] \
                if image else system.empty_set()
            if not (preimage == path.path_set):
                paths_ok = False
            for s in range(1, len(mu) + 1):
                off = path.offsets[s - 1]
                width = window.length + S.heights[mu[s - 1]]
                shifted = frozenset(w[off : off + width] for w in image)
                if not shifted <= spaces[mu[s - 1]]:
                    containment_ok = False
                big = proj_windows[l]
                for w in path.path_set.words_on(big) if image else ():
                    x = PointWindow(system, big, w)
                    lhs = x.apply_shift(off).word_on(proj_windows[mu[s - 1]])
                    rhs = w[off : off + width]
                    if lhs != rhs:
                        diagram_ok = False
    checks["path-preimage-matches"] = paths_ok
    checks["images-inside-projected-bases"] = containment_ok
    checks["diagram-commutes"] = diagram_ok
    return ApproximatingSystem(S=S, window=window, proj_windows=proj_windows,
                               spaces=spaces, path_images=path_images,
                               checks=checks)


@dataclass(frozen=True)
class PhiRangeResult:
    ok: bool
    reason: str
    preimage: tuple | None

    def __bool__(self):
        return self.ok


def phi_range_check(S: RokhlinSystem, A: ApproximatingSystem,
                    a: FormalElement) -> PhiRangeResult:
    """Whether the symbolic evaluation of ``a`` factors through the projections.

    Each component must be constant on fibers of the restriction to
    ``[n1, n2 + r_l]``; when it is, the factored tables are returned and
    re-checked against the projected gluing conditions.  Those are the stage
    gluing on the projected windows: every base, path set and shifted block
    window lies inside ``proj_windows[l]``, so ``stage_violations`` reads
    exactly the words of ``A.path_images[(l, mu)]``.
    """
    comps = gamma_symbolic(a, S)
    tables = []
    for l, comp in enumerate(comps):
        I = A.proj_windows[l]
        V = comp.window.hull(I)
        big = comp.values_on(V)
        off = I.lo - V.lo
        table: dict = {}
        for w, M in big.items():
            key = w[off : off + I.length]
            if key in table:
                if not np.allclose(table[key], M, rtol=0.0, atol=STAGE_TOL):
                    return PhiRangeResult(
                        ok=False,
                        reason=f"component {l} depends on coordinates outside "
                               f"[{I.lo}, {I.hi}]",
                        preimage=None)
            else:
                table[key] = M
        tables.append(table)

    projected = StageElement(tuple(
        MatrixCylinderFunction(S.bases[l], A.proj_windows[l], S.heights[l], table)
        for l, table in enumerate(tables)))
    violations = stage_violations(S, projected)
    if violations:
        l, mu, z = violations[0]
        return PhiRangeResult(
            ok=False,
            reason=f"projected gluing fails at level {l}, "
                   f"mu={list(mu)}, word {z!r}",
            preimage=None)
    return PhiRangeResult(ok=True, reason="", preimage=tuple(tables))
