"""First-return-time partitions and Rokhlin tower systems.

Everything here is exact clopen combinatorics: a tower system over a base set
``Y`` consists of bases ``T_0 .. T_m`` with heights ``r_0 <= .. <= r_m`` whose
levels ``h^j(T_l^0)`` tile the space.  Two constructions are provided: the
``standard`` variant takes each base to be the exact return-time fiber, the
``full`` variant takes ``T_l = Y \\cap h^{-r_l}(Y)``.  Both share the same
interiors ``T_l^0`` and the same heights.
``RokhlinSystem`` derives its levels and tower unions ``X_l`` once, and
``admissible_sequences`` keeps each tower's realized paths on it; ``Y_n``
comes from ``ClopenSet.translates``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundSearchExceeded
from .subshift import ClopenSet, SubstitutionSystem, Window

VARIANTS = ("standard", "full")

# Extra window width used when checking partition identities, on top of the
# provable requirement |Y.window| + 2 r_m; guards off-by-one regressions.
WINDOW_SLACK = 4


@dataclass(frozen=True)
class ReturnProfile:
    """Partition of ``Y`` into clopen fibers of the first return time."""

    Y: ClopenSet
    bound: int
    levels: tuple  # ordered (return_time, piece) pairs, times strictly increasing

    @property
    def times(self):
        return tuple(r for r, _ in self.levels)

    def piece(self, r: int) -> ClopenSet:
        for time, piece in self.levels:
            if time == r:
                return piece
        raise KeyError(r)


def return_time_bound(Y: ClopenSet) -> int:
    """Least ``R`` such that every point enters ``Y`` within ``R`` forward
    steps, searched up to the system's enumeration depth."""
    if Y.is_empty():
        raise ValueError("Y must be nonempty")
    depth = Y.system.depth
    for r in range(1, depth + 1):
        if Y.translates(-r).is_full():
            return r
    raise BoundSearchExceeded(
        f"no forward-return bound within depth {depth}; "
        "the base set is too thin for the configured enumeration depth")


def return_profile(Y: ClopenSet) -> ReturnProfile:
    bound = return_time_bound(Y)
    remaining = Y
    levels = []
    for r in range(1, bound + 1):
        if remaining.is_empty():
            break
        piece = remaining & Y.shift(-r)
        if not piece.is_empty():
            levels.append((r, piece))
            remaining = remaining - piece
    return ReturnProfile(Y=Y, bound=bound, levels=tuple(levels))


class RokhlinSystem:
    """Tower bases with heights; everything else is derived once, here.

    ``D_l = T_l \\cap (T_0 \\cup .. \\cup T_{l-1})`` and ``T_l^0 = T_l - D_l``;
    ``levels[l][j]`` is ``h^j(T_l^0)`` for ``0 <= j < r_l``; ``window`` is the
    hull of the windows of ``Y`` and of the bases.
    Any bases and any heights of at least 1 are accepted, so that the
    verifier can be run against hand-built (possibly invalid) systems.
    """

    def __init__(self, system: SubstitutionSystem, variant: str, Y: ClopenSet,
                 bases, heights):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if len(bases) != len(heights) or not bases:
            raise ValueError("need equally many bases and heights, at least one")
        self.system = system
        self.variant = variant
        self.Y = Y
        self.bases = tuple(bases)
        self.heights = tuple(int(r) for r in heights)
        if min(self.heights) < 1:
            raise ValueError(f"heights must be at least 1, got {self.heights}")
        boundaries = []
        interiors = []
        levels = []
        unions = []
        seen = system.empty_set()
        X = system.empty_set()
        window = Y.window
        for T, r in zip(self.bases, self.heights):
            window = window.hull(T.window)
            D = T & seen
            boundaries.append(D)
            interiors.append(T - D)
            levels.append(tuple(interiors[-1].shift(j) for j in range(r)))
            for j in range(r):
                X = X | T.shift(j)
            unions.append(X)
            seen = seen | T
        self.boundaries = tuple(boundaries)
        self.interiors = tuple(interiors)
        self.levels = tuple(levels)
        self._tower_unions = (system.empty_set(), *unions)
        self._bases_union = seen
        self.window = window
        self._paths = {}
        self._level_plans = {}

    @property
    def m(self) -> int:
        return len(self.bases) - 1

    def level(self, l: int, j: int) -> ClopenSet:
        """The ``j``-th level ``h^j(T_l^0)`` of the ``l``-th tower, ``0 <= j < r_l``."""
        if not 0 <= j < self.heights[l]:
            raise IndexError(f"tower {l} has no level {j}")
        return self.levels[l][j]

    def tower_union(self, l: int) -> ClopenSet:
        """``X_l``: the union of all levels of towers ``0 .. l`` (closed bases);
        ``X_{-1}`` is empty."""
        return self._tower_unions[l + 1]

    def verification_window(self) -> Window:
        pad = max(self.heights) + WINDOW_SLACK // 2
        return Window(self.window.lo - pad, self.window.hi + pad)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "Y": self.Y.to_json(),
            "m": self.m,
            "heights": list(self.heights),
            "bases": [T.to_json() for T in self.bases],
            "interiors": [T.to_json() for T in self.interiors],
            "boundaries": [D.to_json() for D in self.boundaries],
        }

    def __repr__(self):
        return f"RokhlinSystem({self.variant}, heights={list(self.heights)})"


def build_towers(Y: ClopenSet, variant: str = "full") -> RokhlinSystem:
    """Tower system over ``Y``: heights are the exact range of the return time."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    profile = return_profile(Y)
    heights = profile.times
    if variant == "standard":
        bases = [piece for _, piece in profile.levels]
    else:
        bases = [Y & Y.shift(-r) for r in heights]
    return RokhlinSystem(Y.system, variant, Y, bases, heights)


@dataclass(frozen=True)
class AxiomReport:
    conditions: dict
    irredundant: bool

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    def to_json(self) -> dict:
        return {"conditions": dict(self.conditions),
                "irredundant": self.irredundant,
                "passed": self.passed}


def verify_rokhlin_axioms(S: RokhlinSystem) -> AxiomReport:
    """Check the five tower-system conditions plus irredundancy, exactly.

    Conditions: (1) the bases cover ``Y``; (2) heights nondecreasing;
    (3) ``h^{r_l}(T_l)`` back inside ``Y``; (4) on each interior the return
    time equals the height; (5) each height is attained on its base.
    Irredundancy (interiors dense in bases, here: equal as clopen sets) is
    reported separately; the full variant legitimately fails it whenever a
    boundary is nonempty.
    """
    profile = return_profile(S.Y)
    conditions = {}
    conditions["bases-cover-Y"] = S._bases_union == S.Y
    conditions["heights-nondecreasing"] = all(
        a <= b for a, b in zip(S.heights, S.heights[1:]))
    conditions["tops-return-to-Y"] = all(
        T.shift(r).issubset(S.Y) for T, r in zip(S.bases, S.heights))

    def fiber(r):
        try:
            return profile.piece(r)
        except KeyError:
            return S.system.empty_set()

    conditions["interior-return-time-exact"] = all(
        T0.issubset(fiber(r)) for T0, r in zip(S.interiors, S.heights))
    conditions["height-attained-on-base"] = all(
        (T.is_empty() and r in profile.times) or not (T & fiber(r)).is_empty()
        for T, r in zip(S.bases, S.heights))
    irredundant = all(not T0.is_empty() and T0 == T
                      for T0, T in zip(S.interiors, S.bases))
    return AxiomReport(conditions=conditions, irredundant=irredundant)


def _disjoint_union(pieces):
    """Union of the word sets ``pieces`` if pairwise disjoint, else None."""
    seen = set()
    total = 0
    for words in pieces:
        total += len(words)
        seen |= words
    return seen if len(seen) == total else None


@dataclass(frozen=True)
class PartitionReport:
    identities: dict
    window: Window

    @property
    def passed(self) -> bool:
        return all(self.identities.values())

    def to_json(self) -> dict:
        return {"identities": dict(self.identities),
                "window": self.window.to_json(),
                "passed": self.passed}


def partition_identities(S: RokhlinSystem) -> PartitionReport:
    """Verify the level-partition identities of a tower system, exactly.

    Every set involved is enumerated once on ``S.verification_window()``,
    which carries all of them (base windows padded by the maximal height plus
    slack); disjointness and coverage are then tested on those word sets.
    """
    window = S.verification_window()
    full = S.system.language(window.length)
    rm = max(S.heights)
    Y = S.Y.words_on(window)
    interiors = [T0.words_on(window) for T0 in S.interiors]
    rows = [[I, *(L.words_on(window) for L in row[1:])] if row else []
            for I, row in zip(interiors, S.levels)]
    forward = [S.Y.translates(n).words_on(window) for n in range(rm + 1)]

    def partitions(pieces, target):
        return _disjoint_union(pieces) == target

    identities = {
        "interiors-partition-Y": partitions(interiors, Y),
        "levels-partition-X": partitions([L for row in rows for L in row], full),
        "tops-partition-Y": partitions(
            [T0.shift(r).words_on(window)
             for T0, r in zip(S.interiors, S.heights)], Y),
        "forward-union-partition": all(
            partitions([L for row in rows for L in row[:n]], forward[n])
            for n in range(rm + 1)),
        "backward-union-partition": all(
            partitions([L for row in rows for L in row[-n:]],
                       S.Y.translates(-n).words_on(window))
            for n in range(1, rm + 1)),
        "orbit-of-Y-covers-X": forward[rm] == full,
        "complement-partition": partitions(
            [L for row in rows for L in row[1:]], full - Y),
    }
    return PartitionReport(identities=identities, window=window)


@dataclass(frozen=True)
class AdmissiblePath:
    """An ordered composition of a height into lower heights, with the clopen
    set of boundary points that traverse exactly that sequence of towers;
    only realized paths are built, so the set is never empty.

    ``offsets[s]`` is the sum of the heights before block ``s``: the orbit
    step at which the path enters tower ``mu[s]`` and the row where that
    tower's block starts in the glued matrix."""

    l: int
    mu: tuple
    path_set: ClopenSet
    offsets: tuple

    def to_json(self) -> dict:
        return {"l": self.l, "mu": list(self.mu), "set": self.path_set.to_json()}


def admissible_sequences(S: RokhlinSystem, l: int) -> list:
    """The realized paths for tower ``l``, in lexicographic order of ``mu``.

    A path ``mu`` is a sequence over ``{0 .. l-1}`` whose heights sum to
    ``r_l``; its set is ``T_l`` intersected with the pulled-back bases along
    the partial sums.  A composition that no point follows has an empty set
    and is left out: each set is its prefix's set cut by one more base, so
    the walk stops at the first empty prefix.  As heights are at least 1, no
    path is a prefix of another, so the depth-first walk is lexicographic.
    Built on the first call and kept on ``S``: later calls return the same
    list, which no caller mutates.
    """
    if not (0 <= l <= S.m):
        raise ValueError(f"tower index {l} out of range")
    if l in S._paths:
        return S._paths[l]
    target = S.heights[l]
    out = []

    def extend(mu, offsets, piece, total):
        if piece.is_empty():
            return
        if total == target:
            out.append(AdmissiblePath(l=l, mu=mu, path_set=piece,
                                      offsets=offsets))
            return
        for i in range(l):
            if total + S.heights[i] <= target:
                extend(mu + (i,), offsets + (total,),
                       piece & S.bases[i].shift(-total),
                       total + S.heights[i])

    extend((), (), S.bases[l], 0)
    S._paths[l] = out
    return out


def boundary_path_cover(S: RokhlinSystem, l: int) -> bool:
    """Exact structural checks for level ``l`` of the decomposition.

    Three tests, each set enumerated once on ``S.verification_window()``:
    the path sets cover the boundary ``D_l``; the levels of towers ``0..l``
    tile their union ``X_l``; and ``Q_l``: no interior level ``h^j(T_l^0)``
    meets ``X_{l-1}``.

    Given the cover and the tiling, ``Q_l`` decides the pairwise conditions
    on tower ``l``: distinct closed levels ``h^i(T_l)`` meet only inside
    ``X_{l-1}`` and never meet an interior level, a base point whose orbit
    meets ``X_{l-1}`` at a step ``j < r_l`` lies on ``D_l``, and
    ``D_l = T_l \\cap X_{l-1}``.  Proof, for heights of at least 1: a point
    of ``D_l`` lies on a path, which puts each orbit step ``i < r_l`` in a
    closed level of a tower ``mu_s < l``, so ``h^i(D_l) \\subseteq X_{l-1}``.
    As ``h^i(T_l) = h^i(D_l) \\cup h^i(T_l^0)``, where the interior levels are
    pairwise disjoint by the tiling and miss ``X_{l-1}`` by ``Q_l``, each
    condition follows.  Conversely, if ``x`` lies in
    ``X_{l-1} \\cap h^j(T_l^0)``, then ``h^{-j} x`` is a base point outside
    ``D_l`` whose orbit meets ``X_{l-1}`` at step ``j``.
    """
    window = S.verification_window()
    D = S.boundaries[l].words_on(window)
    paths = admissible_sequences(S, l)
    if set().union(*(p.path_set.words_on(window) for p in paths)) != D:
        return False
    rows = [[L.words_on(window) for L in row] for row in S.levels[:l + 1]]
    if _disjoint_union(L for row in rows for L in row) != \
            S.tower_union(l).words_on(window):
        return False
    return S.tower_union(l - 1).words_on(window).isdisjoint(
        set().union(*rows[l]))
