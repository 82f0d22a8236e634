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
from typing import NamedTuple

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
    WindowTooSmall,
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
#
# A gluing reads the lower components through one flat array (``_flat``):
# each glued matrix entry is a position in it, and slot 0 holds the zero that
# the entries off the blocks read.  A level's positions, with the words and
# rows they belong to, form a plan kept on the system (``_kept``), so gluing
# a level is one gather per call.


def _flat(components) -> np.ndarray:
    """``0j``, then each component's stack raveled, in order."""
    return np.concatenate([np.zeros(1, dtype=complex),
                           *(f._stack.ravel() for f in components)])


def _starts(components) -> list:
    """Where each component's stack starts in ``_flat(components)``, and the
    flat length last."""
    return list(accumulate((f._stack.size for f in components), initial=1))


def _frozen(a: np.ndarray, bound: int) -> np.ndarray:
    """``a``, whose values are at most ``bound``, as a read-only array of the
    smallest unsigned type that holds ``bound``."""
    a = a.astype(np.min_scalar_type(bound))
    a.setflags(write=False)
    return a


def _kept(S: RokhlinSystem, key: tuple, components, build):
    """The plan ``build()`` under ``key``, kept on ``S`` from the first call.
    Only components on the system's own bases (``is S.bases[i]``) share
    plans; for any other base the plan is built for the call and dropped."""
    own = all(f.base is T for f, T in zip(components, S.bases))
    plan = S._level_plans.get(key) if own else None
    if plan is None:
        plan = build()
        if own:
            S._level_plans[key] = plan
    return plan


def _rows(f: MatrixCylinderFunction, indices, window: Window) -> np.ndarray:
    """``f.rows_of(indices, window)`` as ``intp``; a word off the base raises
    ``PathMismatch`` naming it, as ``f.stack`` does."""
    rows = f.rows_of(indices, window).astype(np.intp)
    if (rows == len(f._stack)).any():
        f.stack(indices, window)
    return rows


def _glued_index(path: AdmissiblePath, components, indices,
                 window: Window) -> np.ndarray:
    """The gluing along ``path`` at the words ``lexicon(window.length)[0][
    indices]``, as positions in ``_flat(components)``: block ``s`` is
    component ``mu(s)`` read ``offsets[s]`` steps along the orbit, and the
    entries off the blocks read slot 0.  Every gluing is read through this."""
    starts = _starts(components)
    size = sum(components[idx].size for idx in path.mu)
    out = np.zeros((len(indices), size, size), dtype=np.intp)
    pos = 0
    for idx, off in zip(path.mu, path.offsets):
        k = components[idx].size
        rows = _rows(components[idx], indices, window.shift(-off))
        out[:, pos : pos + k, pos : pos + k] = (
            starts[idx] + rows[:, None, None] * (k * k)
            + np.arange(k * k).reshape(k, k))
        pos += k
    return out


class Gluing(NamedTuple):
    """The gluing of tower ``level`` along all its paths, in (path, word)
    order.  Entry ``e`` is the word ``words[e]`` of path ``path[e]`` (its
    index in ``admissible_sequences``); ``rows[e]`` is its row in the stack
    of ``count`` rows that the glue is compared with or written to, and
    ``glue[e]`` its glued matrix as positions in the flat stacks.  Paths
    overlap, so rows recur: ``first`` and ``last`` are each row's first and
    last entry, in row order, and ``repeat`` the entries that are not their
    row's first, which is ``earlier``.  ``window`` is the hull of the windows
    the paths are read on.  The arrays are read-only, of the smallest
    unsigned type (``words`` holds strings)."""

    level: int
    window: Window
    count: int
    path: np.ndarray
    words: np.ndarray
    rows: np.ndarray
    glue: np.ndarray
    first: np.ndarray
    last: np.ndarray
    repeat: np.ndarray
    earlier: np.ndarray


def _gluing(S: RokhlinSystem, l: int, components, window: Window, count: int,
            reads) -> Gluing:
    """The ``Gluing`` of tower ``l`` whose path ``p`` is read at the words
    ``indices`` on ``window_p`` with their ``rows``: ``reads[p]`` is
    ``(indices, window_p, rows)``."""
    paths = admissible_sequences(S, l)
    r = S.heights[l]
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=object),
              np.zeros(0, dtype=np.intp), np.zeros((0, r, r), dtype=np.intp))]
    for p, (path, (I, w, rows)) in enumerate(zip(paths, reads)):
        parts.append((np.full(len(I), p), S.system.lexicon(w.length)[0][I],
                      rows, _glued_index(path, components, I, w)))
    path_of, words, rows, glue = (np.concatenate(part) for part in zip(*parts))
    words.setflags(write=False)
    n = len(rows)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    _, back = np.unique(rows[::-1], return_index=True)
    repeat = np.flatnonzero(first[inverse] != np.arange(n))
    return Gluing(l, window, count, _frozen(path_of, len(paths)), words,
                  _frozen(rows, count),
                  _frozen(glue, _starts(components[:l])[-1]),
                  _frozen(first, n), _frozen(n - 1 - back, n),
                  _frozen(repeat, n), _frozen(first[inverse[repeat]], n))


def _glue(plan: Gluing, flat: np.ndarray) -> np.ndarray:
    """The glued matrices of every entry of ``plan``, read from ``flat``."""
    return flat[plan.glue]


def _path_eval_window(path: AdmissiblePath, components,
                      window: Window) -> Window:
    """``window`` widened to carry the path set and every glued block."""
    spans = [window, path.path_set.window]
    spans += [components[idx].window.shift(off)
              for idx, off in zip(path.mu, path.offsets)]
    return Window(min(w.lo for w in spans), max(w.hi for w in spans))


def _stage_gluing(S: RokhlinSystem, components) -> Gluing:
    """The gluing of the top component of ``components`` against the ones
    below: each path read on the top window widened to carry it, each word
    at the top component's row."""
    l = len(components) - 1
    top = components[l]

    def build():
        reads = []
        window = top.window
        for path in admissible_sequences(S, l):
            w = _path_eval_window(path, components, top.window)
            I = path.path_set.indices_on(w)
            reads.append((I, w, _rows(top, I, w)))
            window = window.hull(w)
        return _gluing(S, l, components, window, len(top._stack), reads)

    return _kept(S, ("stage", tuple(f.window for f in components)),
                 components, build)


def _boundary_gluing(S: RokhlinSystem, l: int, components) -> Gluing:
    """The gluing of tower ``l`` from ``components`` ``0 .. l-1`` on ``D_l``:
    every path read on one window that carries them all, each word at its
    row of ``D_l``, where the path sets lie."""
    def build():
        D = S.boundaries[l]
        paths = admissible_sequences(S, l)
        window = D.window
        for path in paths:
            window = _path_eval_window(path, components, window)
        expected = D.indices_on(window)
        reads = [(I, window, np.searchsorted(expected, I))
                 for I in (path.path_set.indices_on(window) for path in paths)]
        return _gluing(S, l, components, window, len(expected), reads)

    return _kept(S, ("boundary", l, tuple(f.window for f in components)),
                 components, build)


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
    return _flat(b.components)[_glued_index(path, b.components, [index],
                                            x.window)][0]


def stage_violations(S: RokhlinSystem, b: StageElement):
    """All gluing violations ``(level, mu, word)``, by level, path and word.

    One comparison per level: the top component's rows at the words of
    every path set, each path's read on the narrowest window that carries
    it, against their glued values, one gather through the level's kept
    gluing plan.  Raises ``ValueError`` when a component's size is not its
    tower's height.
    """
    for i, comp in enumerate(b.components):
        if comp.size != S.heights[i]:
            raise ValueError(f"component {i} has size {comp.size}, "
                             f"expected {S.heights[i]}")
    violations = []
    flat = _flat(b.components[:-1])
    for l in range(1, b.level + 1):
        plan = _stage_gluing(S, b.components[: l + 1])
        ok = close(b.components[l]._stack[plan.rows], _glue(plan, flat),
                   STAGE_TOL).all(axis=(1, 2))
        if not ok.all():
            paths = admissible_sequences(S, l)
            violations += [(l, paths[p].mu, w) for p, w in
                           zip(plan.path[~ok].tolist(), plan.words[~ok].tolist())]
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

    Every boundary word lies on a path set; the first path that reaches it
    gives its value.  Overlapping paths of a stage element lie within
    ``STAGE_TOL`` of ``b_l``, not of each other; raises with the first
    offending ``(mu, nu, word)`` in path and word order where a later path
    differs from the first by more.  The violations at level ``k`` read only
    components ``0 .. k``, so the element's stored list, cut below ``l``,
    decides the lower levels.
    """
    if b.level < l - 1:
        raise ValueError("need components for every tower below the boundary level")
    violations = [v for v in checked_violations(S, b) if v[0] < l]
    if violations:
        raise NotInStageAlgebra(
            "components below the boundary level violate their own gluing",
            violation=violations[0])
    components = b.components[:l]
    plan = _boundary_gluing(S, l, components)
    glued = _glue(plan, _flat(components))
    agree = close(glued[plan.repeat], glued[plan.earlier],
                  STAGE_TOL).all(axis=(1, 2))
    if not agree.all():
        k = agree.argmin()
        paths = admissible_sequences(S, l)
        mu = paths[plan.path[plan.earlier[k]]].mu
        nu = paths[plan.path[plan.repeat[k]]].mu
        w = plan.words[plan.repeat[k]]
        raise NotInStageAlgebra(f"paths {mu} and {nu} disagree at {w!r}",
                                violation=(l, (mu, nu), w))
    D = S.boundaries[l]
    if len(plan.first) < plan.count:
        missing = np.setdiff1d(np.arange(plan.count), plan.rows)
        words = S.system.lexicon(plan.window.length)[0]
        raise InvariantViolated(
            "boundary words not covered by any path: "
            f"{words[D.indices_on(plan.window)[missing]].tolist()}")
    return MatrixCylinderFunction._from_stack(D, plan.window, glued[plan.first])


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


class LiftPlan(NamedTuple):
    """Where ``lift`` reads each degree column: ``index[top + n, w]`` is the
    position in the flat stacks of the entry that degree ``n`` takes at word
    ``w`` of ``lexicon(window.length)``, slot 0 where it takes none, and
    ``rank[w]`` the word's place in the level plan's order.  Read-only, of
    the smallest unsigned type."""

    window: Window
    top: int
    index: np.ndarray
    rank: np.ndarray


def _lift_plan(S: RokhlinSystem, components) -> LiftPlan:
    """The ``LiftPlan`` of ``components``, derived from the level plan: a
    word on level ``(l, j)`` takes ``M[j, j - n]`` in degree ``n`` and
    ``M[j - n, j]`` in degree ``-n``, ``M`` its row of ``b_l`` at ``h^{-j}``."""
    def build():
        level = len(components) - 1
        spans = [L.window for l in range(level + 1) for L in S.levels[l]]
        spans += [Window(f.window.lo - S.heights[l] + 1, f.window.hi)
                  for l, f in enumerate(components)]
        window = Window(min(w.lo for w in spans), max(w.hi for w in spans))
        # row top + n holds degree n; terms come in the plan's order (rank)
        top = max(S.heights[: level + 1]) - 1
        count = S.system.complexity(window.length)
        starts = _starts(components)
        index = np.zeros((2 * top + 1, count), dtype=np.intp)
        rank = np.full(count, count)
        placed = 0
        for l, j, I in _level_plan(S, level, window):
            r = components[l].size
            at = starts[l] + _rows(components[l], I, window.shift(j)) * (r * r)
            # M[j, k] goes to degree j - k and M[k, j] to degree k - j
            k = np.arange(j + 1)[:, None]
            index[top + j - k, I] = at + j * r + k
            index[top - j + k[:j], I] = at + k[:j] * r + j
            rank[I] = placed + np.arange(len(I))
            placed += len(I)
        return LiftPlan(window, top, _frozen(index, starts[-1]),
                        _frozen(rank, count))

    return _kept(S, ("lift", tuple(f.window for f in components)),
                 components, build)


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
    stage level and window; the lift plan derived from it, kept per
    component windows, fills every degree column with one gather from the
    components' flat stacks.  Entries equal to zero are not copied, so a
    signed zero reads ``+0``.
    """
    violations = checked_violations(S, b)
    if violations:
        l, mu, word = violations[0]
        raise NotInStageAlgebra(
            f"gluing violated at level {l}, mu={mu}, word {word!r}",
            violation=violations[0])
    system = S.system
    plan = _lift_plan(S, b.components)
    top, count = plan.top, len(plan.rank)
    columns = _flat(b.components)[plan.index]
    nonzero = columns != 0
    first = np.where(nonzero, plan.rank, count).min(axis=1).tolist()
    degrees = sorted((n for n in range(-top, top + 1) if first[top + n] < count),
                     key=lambda n: (first[top + n], abs(n), n < 0))
    a = FormalElement(system, {
        n: CylinderFunction._from_column(
            system, plan.window.shift(max(0, -n)),
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


def _repair_gluing(S: RokhlinSystem, components):
    """Overwrite each component on the rows of its path-set words with the
    glue of the components already repaired: the rows and positions of the
    level's kept gluing plan, which must read every path on the component's
    own window.  Where path sets overlap the last path's entry is written,
    so no row is written twice; the components below are repaired, so the
    overlapping paths glue copies of the same entries."""
    out = [components[0]]
    for l in range(1, len(components)):
        comp = components[l]
        plan = _stage_gluing(S, components[: l + 1])
        if plan.window != comp.window:
            raise WindowTooSmall(f"{comp.window} does not carry the gluing "
                                 f"of tower {l}")
        stack = comp._stack.copy()
        stack[plan.rows[plan.last]] = _glue(plan, _flat(out))[plan.last]
        out.append(MatrixCylinderFunction._from_stack(comp.base, comp.window, stack))
    return StageElement(tuple(out))


def _stage_shapes(S: RokhlinSystem) -> list:
    """``(words, r_i, r_i)`` of each free stack: one row per word of base
    ``i`` on its stage window, in sorted word order."""
    return [(len(T.indices_on(w)), r, r)
            for T, w, r in zip(S.bases, _stage_windows(S), S.heights)]


def _on_stage_windows(S: RokhlinSystem, stacks) -> list:
    """The free ``stacks`` as components on the stage windows."""
    return [MatrixCylinderFunction._from_stack(T, w, stack)
            for T, w, stack in zip(S.bases, _stage_windows(S), stacks)]


def _stage_element(S: RokhlinSystem, stacks) -> StageElement:
    """The free ``stacks`` on the stage windows, repaired into the gluing."""
    return _repair_gluing(S, _on_stage_windows(S, stacks))


def sample_stage_element(S: RokhlinSystem, rng) -> StageElement:
    """Random stage-algebra element: free values repaired into the gluing."""
    return _stage_element(S, [_unit_disc(rng, count * r * r).reshape(count, r, r)
                              for count, r, _ in _stage_shapes(S)])


def _basis_slots(S: RokhlinSystem) -> list:
    """``(tower, row, j, k)`` of every nonzero matrix-unit generator, in
    basis order: each index of each free stack on a row that the tower's
    gluing plan does not write, the interior words where the paths cover
    every ``D_l``.  A unit on a glued row of tower ``i`` is zero, with or
    without that cover: the repair writes there the glue of the zero
    components ``0 .. i-1``, and each higher tower glues zeros.  A unit on
    any other row keeps its ``1``."""
    shapes = _stage_shapes(S)
    free = _on_stage_windows(S, [np.zeros(shape, dtype=complex)
                                for shape in shapes])
    slots = []
    for i, shape in enumerate(shapes):
        glued = set(_stage_gluing(S, free[: i + 1]).rows.tolist())
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
