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
wraps the factored stacks as a stage element and runs ``stage_violations``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate, chain, zip_longest

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
from .matrixfn import MatrixCylinderFunction, close
from .subshift import ClopenSet, PointWindow, Window
from .towers import (AdmissiblePath, RokhlinSystem, admissible_sequences,
                     boundary_path_cover)

STAGE_TOL = 1e-12


@dataclass(frozen=True)
class StageElement:
    """Tuple of matrix functions over the tower bases ``T_0 .. T_l``."""

    components: tuple
    _violations: dict = field(default_factory=dict, init=False, compare=False,
                              repr=False)

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

    def first_difference(self, other: "StageElement") -> tuple | None:
        """``(level, word)`` of the first differing block, in level and then
        sorted word order; ``word`` is ``None`` where a size, a base or the
        level count differs.  ``None`` for equal elements.  Entries compare
        with ``!=``, which is ``not close(a, b, 0.0)`` at every value."""
        for l, (f, g) in enumerate(zip_longest(self.components, other.components)):
            if f is None or g is None or f.size != g.size or not (f.base == g.base):
                return l, None
            w = f.window.hull(g.window)
            indices = f.base.indices_on(w)
            differs = (f.stack(indices, w) != g.stack(indices, w)).any(axis=(1, 2))
            if differs.any():
                return l, f.base.system.lexicon(w.length)[0][indices[differs.argmax()]]
        return None

    def equal_exact(self, other: "StageElement") -> bool:
        return self.first_difference(other) is None


def stage_from_gamma(a: FormalElement, S: RokhlinSystem) -> StageElement:
    return StageElement(tuple(gamma_symbolic(a, S)))


# -- gluing maps ------------------------------------------------------------------


def _glued_stack(path: AdmissiblePath, b: StageElement, indices,
                 window: Window) -> np.ndarray:
    """The gluing along ``path`` at every point whose word on ``window`` is
    ``lexicon(window.length)[0][indices]``, stacked in that order: block
    ``s`` is component ``mu(s)`` read ``offsets[s]`` steps along the orbit."""
    comps = [b.components[idx] for idx in path.mu]
    size = sum(comp.size for comp in comps)
    out = np.zeros((len(indices), size, size), dtype=complex)
    pos = 0
    for comp, off in zip(comps, path.offsets):
        k = comp.size
        out[:, pos : pos + k, pos : pos + k] = comp.stack(indices,
                                                          window.shift(-off))
        pos += k
    return out


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
    index = x.system.lexicon(x.window.length)[1][x.word]
    return _glued_stack(path, b, [index], x.window)[0]


def _path_eval_window(path: AdmissiblePath, b: StageElement,
                      window: Window) -> Window:
    """``window`` widened to carry the path set and every glued block."""
    spans = [window, path.path_set.window]
    spans += [b.components[idx].window.shift(off)
              for idx, off in zip(path.mu, path.offsets)]
    return Window(min(w.lo for w in spans), max(w.hi for w in spans))


def stage_violations(S: RokhlinSystem, b: StageElement):
    """All gluing violations ``(level, mu, word)``, by level, path and word.

    One comparison per (level, path): the top component's values and the
    glued values over the words of the path set are stacked and compared at
    once.  Raises ``ValueError`` when a component's size is not its tower's
    height.
    """
    for i, comp in enumerate(b.components):
        if comp.size != S.heights[i]:
            raise ValueError(f"component {i} has size {comp.size}, "
                             f"expected {S.heights[i]}")
    violations = []
    for l in range(1, b.level + 1):
        comp = b.components[l]
        for path in admissible_sequences(S, l):
            window = _path_eval_window(path, b, comp.window)
            indices = path.path_set.indices_on(window)
            ok = close(comp.stack(indices, window),
                       _glued_stack(path, b, indices, window),
                       STAGE_TOL).all(axis=(1, 2))
            if not ok.all():
                words = S.system.lexicon(window.length)[0][indices[~ok]]
                violations += [(l, path.mu, w) for w in words.tolist()]
    return violations


def checked_violations(S: RokhlinSystem, b: StageElement) -> tuple:
    """``stage_violations(S, b)``, computed on the first call per system and
    kept on ``b``; its tables are read-only, so the list cannot go stale."""
    memo = b._violations
    if S not in memo:
        memo[S] = tuple(stage_violations(S, b))
    return memo[S]


def in_stage_algebra(S: RokhlinSystem, b: StageElement) -> bool:
    """Whether all gluing conditions hold at every word of every path set."""
    return not checked_violations(S, b)


def beta_boundary(S: RokhlinSystem, l: int,
                  b: StageElement) -> MatrixCylinderFunction:
    """The glued boundary function on ``D_l``.

    Every boundary word lies on a path set.  Overlapping paths of a stage
    element lie within ``STAGE_TOL`` of ``b_l``, not of each other; raises
    with the offending ``(mu, nu, word)`` where two differ by more.  The
    violations at level ``k`` read only components ``0 .. k``, so the
    element's stored list, cut below ``l``, decides the lower levels.
    """
    if b.level < l - 1:
        raise ValueError("need components for every tower below the boundary level")
    violations = [v for v in checked_violations(S, b) if v[0] < l]
    if violations:
        raise NotInStageAlgebra(
            "components below the boundary level violate their own gluing",
            violation=violations[0])
    D = S.boundaries[l]
    paths = admissible_sequences(S, l)
    window = D.window
    for path in paths:
        window = _path_eval_window(path, b, window)
    # path sets lie in D (T_l meets T_{mu_0} only on the boundary), so each
    # path's words are rows of D; origin[row] is the first path to fill it
    words = S.system.lexicon(window.length)[0]
    expected = D.indices_on(window)
    r = S.heights[l]
    out = np.zeros((len(expected), r, r), dtype=complex)
    origin = np.full(len(expected), -1)
    for p, path in enumerate(paths):
        indices = path.path_set.indices_on(window)
        rows = np.searchsorted(expected, indices)
        glued = _glued_stack(path, b, indices, window)
        seen = origin[rows] >= 0
        agree = close(glued, out[rows], STAGE_TOL).all(axis=(1, 2)) | ~seen
        if not agree.all():
            k = agree.argmin()
            mu, nu = paths[origin[rows[k]]].mu, path.mu
            w = words[indices[k]]
            raise NotInStageAlgebra(f"paths {mu} and {nu} disagree at {w!r}",
                                    violation=(l, (mu, nu), w))
        out[rows[~seen]] = glued[~seen]
        origin[rows[~seen]] = p
    if (origin < 0).any():
        raise InvariantViolated("boundary words not covered by any path: "
                                f"{words[expected[origin < 0]].tolist()}")
    return MatrixCylinderFunction._from_stack(D, window, out)


# -- constructive lifting ------------------------------------------------------------


def _level_plan(S: RokhlinSystem, level: int, window: Window) -> tuple:
    """``(l, j, indices)`` for every interior level ``h^j(T_l^0)`` of towers
    ``0 .. level``: its words' ascending indices in ``lexicon(window.length)``.
    Built on the first call per ``(level, window)`` and kept on ``S``;
    building it raises ``InvariantViolated`` when two levels share a word."""
    key = (level, window)
    plan = S._level_plans.get(key)
    if plan is None:
        owner = {}
        plan = []
        for l in range(level + 1):
            for j, L in enumerate(S.levels[l]):
                indices = L.indices_on(window)
                for k in indices.tolist():
                    if k in owner:
                        w = S.system.lexicon(window.length)[0][k]
                        raise InvariantViolated(
                            f"levels {owner[k]} and {(l, j)} overlap at {w!r}")
                    owner[k] = (l, j)
                plan.append((l, j, indices))
        plan = S._level_plans[key] = tuple(plan)
    return plan


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

    Which word lies on which level is the system's level plan for this
    stage level and window, built once; row ``j`` and column ``j`` of each
    level's stacked matrices are scattered into one column per degree.
    Entries equal to zero are not copied, so a signed zero reads ``+0``.
    """
    violations = checked_violations(S, b)
    if violations:
        l, mu, word = violations[0]
        raise NotInStageAlgebra(
            f"gluing violated at level {l}, mu={mu}, word {word!r}",
            violation=violations[0])
    system = S.system
    spans = [L.window for l in range(b.level + 1) for L in S.levels[l]]
    spans += [Window(comp.window.lo - S.heights[l] + 1, comp.window.hi)
              for l, comp in enumerate(b.components)]
    window = Window(min(w.lo for w in spans), max(w.hi for w in spans))
    # row top + n holds degree n; terms come in the plan's order (rank)
    top = max(S.heights[: b.level + 1]) - 1
    count = system.complexity(window.length)
    columns = np.zeros((2 * top + 1, count), dtype=complex)
    rank = np.full(count, count)
    placed = 0
    for l, j, I in _level_plan(S, b.level, window):
        blocks = b.components[l].stack(I, window.shift(j))
        # M[j, k] goes to degree j - k and M[k, j] to degree k - j
        k = np.arange(j + 1)
        columns[top + j - k[:, None], I] = blocks[:, j, : j + 1].T
        columns[top - j + k[:j, None], I] = blocks[:, :j, j].T
        rank[I] = placed + np.arange(len(I))
        placed += len(I)
    nonzero = columns != 0
    first = np.where(nonzero, rank, count).min(axis=1).tolist()
    degrees = sorted((n for n in range(-top, top + 1) if first[top + n] < count),
                     key=lambda n: (first[top + n], abs(n), n < 0))
    a = FormalElement(system, {
        n: CylinderFunction._from_column(
            system, window.shift(max(0, -n)),
            np.where(nonzero[top + n], columns[top + n], 0))
        for n in degrees})
    if not in_ob_subalgebra(a, S.Y):
        raise InvariantViolated("lift left the orbit-breaking subalgebra")
    return a


# -- stage-element sampling -----------------------------------------------------------


def _stage_windows(S: RokhlinSystem):
    """Per-level tabulation windows wide enough for every gluing evaluation:
    ``S.window`` padded on the right by the heights of towers ``1 .. i``."""
    return [Window(S.window.lo, S.window.hi + pad)
            for pad in accumulate((0, *S.heights[1:]))]


def _glued_rows(S: RokhlinSystem, l: int, window: Window) -> list:
    """``(path, indices, rows)`` per path of tower ``l``, none for tower 0:
    the path set's indices in ``lexicon(window.length)`` and their rows in
    base ``l``'s stack on ``window``, which ``_repair_gluing`` overwrites."""
    paths = admissible_sequences(S, l)
    base = S.bases[l].indices_on(window) if paths else None
    sets = [path.path_set.indices_on(window) for path in paths]
    return [(path, I, np.searchsorted(base, I)) for path, I in zip(paths, sets)]


def _repair_gluing(S: RokhlinSystem, components):
    """Overwrite each component on its glued rows with the glued value."""
    out = [components[0]]
    for l in range(1, len(components)):
        comp = components[l]
        staged = StageElement(tuple(out))
        stack = comp._stack.copy()
        for path, indices, rows in _glued_rows(S, l, comp.window):
            stack[rows] = _glued_stack(path, staged, indices, comp.window)
        out.append(MatrixCylinderFunction._from_stack(comp.base, comp.window, stack))
    return StageElement(tuple(out))


def _stage_shapes(S: RokhlinSystem) -> list:
    """``(words, r_i, r_i)`` of each free stack: one row per word of base
    ``i`` on its stage window, in sorted word order."""
    return [(len(T.indices_on(w)), r, r)
            for T, w, r in zip(S.bases, _stage_windows(S), S.heights)]


def _stage_element(S: RokhlinSystem, stacks) -> StageElement:
    """The free ``stacks`` on the stage windows, repaired into the gluing."""
    return _repair_gluing(S, [
        MatrixCylinderFunction._from_stack(T, w, stack)
        for T, w, stack in zip(S.bases, _stage_windows(S), stacks)])


def sample_stage_element(S: RokhlinSystem, rng) -> StageElement:
    """Random stage-algebra element: free values repaired into the gluing."""
    return _stage_element(S, [_unit_disc(rng, count * r * r).reshape(count, r, r)
                              for count, r, _ in _stage_shapes(S)])


def _basis_slots(S: RokhlinSystem) -> list:
    """``(tower, row, j, k)`` of every nonzero matrix-unit generator, in
    basis order: each index of each free stack on a row ``_glued_rows`` does
    not name, the interior words where the paths cover every ``D_l``.  A unit
    on a glued row of tower ``i`` is zero, with or without that cover: the
    repair writes there the glue of the zero components ``0 .. i-1``, and
    each higher tower glues zeros.  A unit on any other row keeps its ``1``."""
    slots = []
    for i, (window, shape) in enumerate(zip(_stage_windows(S), _stage_shapes(S))):
        glued = {int(r) for *_, rows in _glued_rows(S, i, window) for r in rows}
        slots += [(i, *slot) for slot in np.ndindex(shape) if slot[0] not in glued]
    return slots


def _basis_element(S: RokhlinSystem, i: int, row: int, j: int, k: int) -> StageElement:
    """The unit ``e_{jk}`` at ``row`` of tower ``i``, repaired into the gluing."""
    stacks = [np.zeros(shape, dtype=complex) for shape in _stage_shapes(S)]
    stacks[i][row, j, k] = 1.0
    return _stage_element(S, stacks)


def stage_basis_elements(S: RokhlinSystem):
    """The nonzero matrix units, one per free coordinate of the pullback
    (``_basis_slots``), repaired into the gluing."""
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
        return {**asdict(self), "passed": self.passed}


def pullback_isomorphism_check(S: RokhlinSystem, samples: int = 100,
                               seed: int = 0,
                               basis_limit: int | None = None) -> PullbackReport:
    """Four sampled checks: stage tuples restrict compatibly to boundaries,
    pullback pairs glue back, lifting inverts the evaluation exactly, and
    nonzero subalgebra elements evaluate nonzero.

    The pool is the nonzero matrix units of ``_basis_slots`` (the units on
    glued rows are the zero element), then random draws up to ``samples``
    elements; each is built, checked and dropped in turn.  ``basis_limit``
    thins the basis to an evenly spaced subset, and only the kept elements
    are built.

    Boundary compatibility is stage membership, read from the kept
    violation list: path sets lie in ``D_l`` and cover it (checked once per
    level), so the list names every word of ``D_l`` where ``b_l`` and some
    path's gluing differ by more than ``STAGE_TOL``.  Two overlapping paths
    may each lie within ``STAGE_TOL`` of ``b_l`` and differ from each other
    by more; ``beta_boundary`` raises there, and the verdict here is
    compatible: membership never compares two paths.  Only members are lifted.
    """
    uncovered = [l for l in range(1, S.m + 1) if not boundary_path_cover(S, l)]
    if uncovered:
        raise InvariantViolated(f"boundary_path_cover fails at levels {uncovered}")
    rng = np.random.default_rng(seed)
    slots = _basis_slots(S)
    if basis_limit is not None and len(slots) > basis_limit:
        stride = len(slots) / basis_limit
        slots = [slots[int(i * stride)] for i in range(basis_limit)]
    draws = (stage_from_gamma(sample_subalgebra_element(
                 S.system, S.Y, rng, max(S.heights) + 1), S)
             if rng.uniform() < 0.5 else sample_stage_element(S, rng)
             for _ in range(samples - len(slots)))

    boundary_ok = lift_ok = True
    for b in chain((_basis_element(S, *slot) for slot in slots), draws):
        if not in_stage_algebra(S, b):
            boundary_ok = False
        elif not stage_from_gamma(lift(S, b), S).equal_exact(b):
            lift_ok = False

    pairs_ok = True
    if S.m > 0:
        for _ in range(min(samples, 20)):
            if not in_stage_algebra(S, sample_stage_element(S, rng)):
                pairs_ok = False

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
                          samples=max(samples, len(slots)))


# -- approximating systems ---------------------------------------------------------------


@dataclass(frozen=True)
class ApproximatingSystem:
    """Projections of the tower bases onto ``[n1, n2 + r_l]``.

    ``spaces[l]`` is the word set of the ``l``-th projected base over
    ``proj_windows[l]``; ``path_images[(l, mu)]`` the projection of the set
    of a realized path, so never empty.  ``checks`` records the exact
    verification of the projection/path/diagram conditions.
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


def _projection(X: ClopenSet, window: Window) -> frozenset:
    """The words on ``window`` of the points of ``X``."""
    hull = X.window.hull(window)
    off = window.lo - hull.lo
    return frozenset(w[off : off + window.length] for w in X.words_on(hull))


def build_approximating_system(S: RokhlinSystem,
                               window: Window) -> ApproximatingSystem:
    """Project the towers of a product-window base onto finite windows.

    Requires the base set to be exactly the product of its per-coordinate
    letter sets over ``window``; every projection, preimage, containment, and
    diagram condition is then checked on word sets and recorded.  The diagram
    compares two routes to the block ``s`` of a path: slicing the projected
    path-set words at ``offsets[s]``, and projecting the image ``h^{off}`` of
    the path set, built with ``ClopenSet.shift``.
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
            image = path.path_set.words_on(proj_windows[l])
            path_images[(l, mu)] = image
            if ClopenSet(system, proj_windows[l], image) & S.bases[l] \
                    != path.path_set:
                paths_ok = False
            for idx, off in zip(mu, path.offsets):
                width = window.length + S.heights[idx]
                shifted = frozenset(w[off : off + width] for w in image)
                if not shifted <= spaces[idx]:
                    containment_ok = False
                if _projection(path.path_set.shift(off),
                               proj_windows[idx]) != shifted:
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
    components = []
    for l, comp in enumerate(gamma_symbolic(a, S)):
        I = A.proj_windows[l]
        V = comp.window.hull(I)
        indices = comp.base.indices_on(V)
        rows = comp.stack(indices, V)
        first, inverse = S.system.fibers(V, I, indices, S.bases[l].indices_on(I))
        same = close(rows[first[inverse]], rows, STAGE_TOL)
        same[first] = True
        if not same.all():
            return PhiRangeResult(False, f"component {l} depends on coordinates "
                                  f"outside [{I.lo}, {I.hi}]", None)
        components.append(
            MatrixCylinderFunction._from_stack(S.bases[l], I, rows[first]))

    violations = stage_violations(S, StageElement(tuple(components)))
    if violations:
        l, mu, z = violations[0]
        return PhiRangeResult(False, f"projected gluing fails at level {l}, "
                              f"mu={list(mu)}, word {z!r}", None)
    return PhiRangeResult(True, "", tuple(f.values for f in components))
