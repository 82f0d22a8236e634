"""Minimal subshifts presented by primitive substitutions.

A substitution on a finite alphabet generates a minimal subshift when it is
primitive; everything downstream (towers, evaluation homomorphisms, stage
algebras) works with clopen subsets of that subshift, represented exactly as
finite sets of admissible words over a coordinate window.
``ClopenSet.translates`` computes and keeps the translate unions ``Y_n``.

Conventions: the shift ``h`` is the backwards shift, ``h(x)_k = x_{k+1}``.
Consequently ``h^j`` moves a constraint at coordinate ``k`` to ``k - j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, NonPrimitive, PeriodicSystem, WindowTooSmall

DEFAULT_DEPTH = 64

# Construction-time probe depth for the aperiodicity gate.  Factor complexity
# of an infinite minimal subshift is strictly increasing; a periodic system
# stabilizes at its period, so probing this far rejects any period <= 32.
_APERIODICITY_PROBE = 32


@dataclass(frozen=True, order=True)
class Window:
    """Closed integer coordinate interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def shift(self, d: int) -> "Window":
        return Window(self.lo + d, self.hi + d)

    def hull(self, other: "Window") -> "Window":
        return Window(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, other: "Window") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self):
        return [self.lo, self.hi]

    @staticmethod
    def from_json(data) -> "Window":
        lo, hi = data
        return Window(int(lo), int(hi))


def _factors(word: str, length: int):
    return {word[i : i + length] for i in range(len(word) - length + 1)}


class SubstitutionSystem:
    """A primitive substitution and the subshift language it generates.

    ``rules`` maps each letter to a nonempty word.  Primitivity (some power of
    the substitution sends every letter to a word containing every letter) is
    checked at construction up to the Wielandt exponent ``(q - 1)^2 + 1`` of
    a ``q``-letter alphabet, a power at which every primitive substitution
    passes; the generated subshift must be infinite, which the aperiodicity
    gate enforces by requiring strictly increasing factor complexity.

    ``language(L)`` is exact: admissible two-letter words are computed as a
    certified fixed point, and length-``L`` factors are collected from images
    of two-letter words under a power of the substitution whose letter images
    all have length at least ``L``.  When ``language(L + 1)`` is known,
    ``language(L)`` is its set of prefixes: in a minimal subshift every word
    extends to the right.

    Languages are interned on first use (``lexicon``: the sorted words and
    their indices), and so are restriction plans (``restriction``: where
    each long word's slice sits in a shorter language); both are kept for
    the system's lifetime.
    """

    def __init__(self, alphabet, rules, depth: int = DEFAULT_DEPTH):
        letters = tuple(alphabet)
        if len(letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        for a in letters:
            if not (isinstance(a, str) and len(a) == 1):
                raise ValueError(f"letters must be single characters, got {a!r}")
        self.alphabet = letters
        self.rules = {a: str(rules[a]) for a in letters}
        for a, image in self.rules.items():
            if not image:
                raise ValueError(f"empty image for letter {a!r}")
            if any(b not in letters for b in image):
                raise ValueError(f"image of {a!r} uses letters outside the alphabet")
        if depth < 1:
            raise ValueError("depth must be positive")
        self.depth = depth

        self._check_primitive()
        self._seed_letter, self._power = self._fixed_point_data()
        self._tau_cache = {a: self._tau_letter(a) for a in self.alphabet}
        self._two_words = None
        self._language_cache: dict[int, frozenset[str]] = {}
        self._lexicons: dict = {}
        self._restrictions: dict = {}
        self._check_aperiodic()

    # -- substitution plumbing -------------------------------------------

    def apply(self, word: str, times: int = 1) -> str:
        for _ in range(times):
            word = "".join(self.rules[a] for a in word)
        return word

    def _check_primitive(self):
        reach = {a: set(self.rules[a]) for a in self.alphabet}
        full = set(self.alphabet)
        wielandt = (len(full) - 1) ** 2 + 1
        for _ in range(wielandt):
            if all(reach[a] == full for a in self.alphabet):
                return
            reach = {a: set().union(*(reach[b] for b in reach[a]))
                     for a in self.alphabet}
        raise NonPrimitive(
            f"no power up to {wielandt} maps every letter "
            "onto the full alphabet")

    def _fixed_point_data(self):
        # Find a letter c and power p with sigma^p(c) starting with c, so the
        # one-sided fixed point of sigma^p from c exists.
        first = {a: self.rules[a][0] for a in self.alphabet}
        seen = {}
        a = self.alphabet[0]
        step = 0
        while a not in seen:
            seen[a] = step
            a = first[a]
            step += 1
        return a, step - seen[a]

    def _tau_letter(self, a: str) -> str:
        return self.apply(a, self._power)

    def _tau(self, word: str) -> str:
        return "".join(self._tau_cache[a] for a in word)

    def _admissible_two_words(self) -> frozenset[str]:
        if self._two_words is not None:
            return self._two_words
        if all(len(img) == 1 for img in self._tau_cache.values()):
            raise PeriodicSystem("substitution does not grow; subshift is finite")
        seed = self._seed_letter
        word = seed
        while len(word) < 2:
            word = self._tau(word)
        current = frozenset(_factors(word, 2))
        while True:
            nxt = frozenset().union(*(_factors(self._tau(u), 2) for u in current))
            if nxt == current:
                break
            current = nxt
        self._two_words = current
        return current

    def language(self, length: int) -> frozenset[str]:
        """All admissible words of the given length, exactly."""
        if length < 1:
            raise ValueError("length must be positive")
        cached = self._language_cache.get(length)
        if cached is not None:
            return cached
        longer = self._language_cache.get(length + 1)
        if longer is not None:
            result = frozenset({w[:length] for w in longer})
        elif length == 1:
            result = frozenset({a for w in self._admissible_two_words()
                                for a in w})
        else:
            images = {a: a for a in self.alphabet}
            while min(len(v) for v in images.values()) < length:
                images = {a: self._tau(v) for a, v in images.items()}
            words = set()
            for w in self._admissible_two_words():
                words |= _factors(images[w[0]] + images[w[1]], length)
            result = frozenset(words)
        self._language_cache[length] = result
        prev = self._language_cache.get(length - 1)
        nxt = self._language_cache.get(length + 1)
        if (prev is not None and len(result) <= len(prev)) or \
           (nxt is not None and len(nxt) <= len(result)):
            raise PeriodicSystem("factor complexity stabilized; subshift is finite")
        return result

    def complexity(self, length: int) -> int:
        return len(self.language(length))

    def lexicon(self, length: int):
        """``language(length)`` interned: its words in sorted order, as an
        object array, and the map from each word to its index there."""
        entry = self._lexicons.get(length)
        if entry is None:
            words = sorted(self.language(length))
            entry = (np.array(words, dtype=object),
                     {w: i for i, w in enumerate(words)})
            self._lexicons[length] = entry
        return entry

    def restriction(self, length: int, offset: int, span: int) -> np.ndarray:
        """The restriction plan: for each word of ``lexicon(length)``, the
        index in ``lexicon(span)`` of its slice ``[offset, offset + span)``.

        A system keeps thousands of plans, so each is kept under one integer
        key (``0 <= offset, span <= length``, and no enumerable language has
        a length near ``2**20``) as a read-only array of the smallest
        unsigned type; a hit is one dict lookup."""
        key = (length << 40) | (offset << 20) | span
        plan = self._restrictions.get(key)
        if plan is None:
            index = self.lexicon(span)[1]
            plan = np.fromiter(
                (index[w[offset : offset + span]]
                 for w in self.lexicon(length)[0]),
                dtype=np.min_scalar_type(len(index)),
                count=self.complexity(length))
            plan.setflags(write=False)
            self._restrictions[key] = plan
        return plan

    def fibers(self, hull: Window, window: Window, indices, targets) -> tuple:
        """Group the words ``indices`` (ascending) of ``lexicon(hull.length)``
        by their slice on ``window``, a fiber per index in ``targets``: each
        fiber's least word is ``first[k]``, and word ``i`` is in ``inverse[i]``."""
        plan = self.restriction(hull.length, window.lo - hull.lo, window.length)
        found, first, inverse = np.unique(plan[indices], return_index=True,
                                          return_inverse=True)
        if not np.array_equal(found, targets):
            raise InvariantViolated(f"a fiber on {window} has no word on {hull}")
        return first, inverse

    def _check_aperiodic(self):
        # Longest first, so every shorter language is a set of prefixes.
        probe = min(self.depth, _APERIODICITY_PROBE)
        sizes = [self.complexity(n) for n in range(probe, 0, -1)]
        for longer, shorter in zip(sizes, sizes[1:]):
            if longer <= shorter:
                raise PeriodicSystem(
                    "factor complexity stabilized; subshift is finite")

    # -- canonical sets ----------------------------------------------------

    def full_set(self) -> "ClopenSet":
        return ClopenSet(self, Window(0, 0), self.language(1))

    def empty_set(self) -> "ClopenSet":
        return ClopenSet(self, Window(0, 0), frozenset())

    def cylinder(self, window: Window, word: str) -> "ClopenSet":
        """The set of points matching ``word`` on ``window``."""
        return ClopenSet(self, window, {word})

    def from_letter_sets(self, window: Window, letter_sets) -> "ClopenSet":
        """Product-window set: coordinate ``window.lo + k`` restricted to ``letter_sets[k]``."""
        if len(letter_sets) != window.length:
            raise ValueError("one letter set per window coordinate required")
        allowed = [frozenset(s) for s in letter_sets]
        words = {w for w in self.language(window.length)
                 if all(w[k] in allowed[k] for k in range(window.length))}
        return ClopenSet(self, window, words)

    # -- config ------------------------------------------------------------

    def to_config(self) -> dict:
        return {"alphabet": list(self.alphabet),
                "rules": dict(self.rules),
                "depth": self.depth}

    @staticmethod
    def from_config(data: dict) -> "SubstitutionSystem":
        return SubstitutionSystem(data["alphabet"], data["rules"],
                                  depth=int(data.get("depth", DEFAULT_DEPTH)))

    @staticmethod
    def from_json(text: str) -> "SubstitutionSystem":
        return SubstitutionSystem.from_config(json.loads(text))

    def __repr__(self):
        rules = ", ".join(f"{a}->{w}" for a, w in self.rules.items())
        return f"SubstitutionSystem({rules})"


class ClopenSet:
    """A finite union of cylinder sets: the points whose restriction to
    ``window`` lies in ``words``.

    The stored form is canonical: the window is trimmed to the coordinates
    that actually constrain membership, and the empty set and the full
    subshift are normalized to the window ``[0, 0]``.  Equality is semantic
    (same set of points), tested on a common window.
    """

    __slots__ = ("system", "window", "words", "_translates", "_mask")

    def __init__(self, system: SubstitutionSystem, window: Window, words):
        words = frozenset(words)
        language = system.language(window.length)
        bad = words - language
        if bad:
            raise ValueError(f"words not in the language: {sorted(bad)[:4]}")
        window, words = _canonicalize(system, window, words)
        self.system = system
        self.window = window
        self.words = words

    # -- membership and rewindowing ---------------------------------------

    def is_full(self) -> bool:
        """Whether this is the whole subshift (no coordinate constrained)."""
        return self.window.length == 1 and self.words == self.system.language(1)

    def words_on(self, window: Window) -> frozenset[str]:
        """The admissible words on ``window`` whose points belong to this set.

        The empty set and the full subshift are unconstrained, so any window
        works for them; otherwise the window must cover the canonical one.
        On a wider window this is a gather: the set's membership mask over
        ``lexicon(self.window.length)``, read through the system's restriction
        plan for ``window``.
        """
        if not self.words:
            return frozenset()
        if self.is_full():
            return self.system.language(window.length)
        if window == self.window:
            return self.words
        return frozenset(self.system.lexicon(window.length)[0][
            self.indices_on(window)])

    def indices_on(self, window: Window) -> np.ndarray:
        """The indices in ``lexicon(window.length)`` of ``words_on(window)``,
        ascending, so in sorted word order."""
        if not self.words:
            return np.zeros(0, dtype=np.intp)
        if self.is_full():
            return np.arange(self.system.complexity(window.length))
        if not window.contains(self.window):
            raise WindowTooSmall(f"window {window} does not cover {self.window}")
        try:
            mask = self._mask
        except AttributeError:
            words, index = self.system.lexicon(self.window.length)
            mask = self._mask = np.zeros(len(words), dtype=bool)
            mask[[index[w] for w in self.words]] = True
        if window == self.window:
            return mask.nonzero()[0]
        plan = self.system.restriction(window.length,
                                       self.window.lo - window.lo,
                                       self.window.length)
        return mask[plan].nonzero()[0]

    def contains_point(self, p: "PointWindow") -> bool:
        if p.system is not self.system:
            raise ValueError("point belongs to a different system")
        if not self.words:
            return False
        if self.is_full():
            return True
        if not p.window.contains(self.window):
            raise WindowTooSmall(
                f"point window {p.window} does not cover {self.window}")
        off = self.window.lo - p.window.lo
        return p.word[off : off + self.window.length] in self.words

    def __contains__(self, p: "PointWindow") -> bool:
        return self.contains_point(p)

    # -- set algebra --------------------------------------------------------

    def _common(self, other: "ClopenSet") -> Window:
        if self.system is not other.system:
            raise ValueError("sets belong to different systems")
        return self.window.hull(other.window)

    def __and__(self, other: "ClopenSet") -> "ClopenSet":
        w = self._common(other)
        return ClopenSet(self.system, w, self.words_on(w) & other.words_on(w))

    def __or__(self, other: "ClopenSet") -> "ClopenSet":
        w = self._common(other)
        return ClopenSet(self.system, w, self.words_on(w) | other.words_on(w))

    def __sub__(self, other: "ClopenSet") -> "ClopenSet":
        w = self._common(other)
        return ClopenSet(self.system, w, self.words_on(w) - other.words_on(w))

    def complement(self) -> "ClopenSet":
        return self.system.full_set() - self

    def shift(self, j: int) -> "ClopenSet":
        """The image ``h^j`` of this set; a constraint at ``k`` moves to ``k - j``.

        The canonical form depends only on the words and the language, and
        the language is shift-invariant, so the image keeps these words and
        this membership mask on the moved window; the empty and the full
        set constrain no coordinate and are their own images."""
        if not self.words or self.is_full():
            return self
        image = ClopenSet.__new__(ClopenSet)
        image.system = self.system
        image.window = self.window.shift(-j)
        image.words = self.words
        try:
            image._mask = self._mask
        except AttributeError:
            pass
        return image

    def translates(self, n: int) -> "ClopenSet":
        """``Y_n``: the union of ``h^0 .. h^{n-1}`` of this set for ``n > 0``,
        of ``h^{-1} .. h^n`` for ``n < 0``, empty for ``n = 0``.  Built as
        prefix unions and kept on the (immutable) set from the first call on.
        """
        try:
            forward, backward = self._translates
        except AttributeError:
            empty = self.system.empty_set()
            forward, backward = self._translates = ([empty], [empty])
        unions = forward if n >= 0 else backward
        while len(unions) <= abs(n):
            k = len(unions)
            unions.append(unions[-1] | self.shift(k - 1 if n > 0 else -k))
        return unions[abs(n)]

    def is_empty(self) -> bool:
        return not self.words

    def issubset(self, other: "ClopenSet") -> bool:
        w = self._common(other)
        return self.words_on(w) <= other.words_on(w)

    def __le__(self, other: "ClopenSet") -> bool:
        return self.issubset(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        w = self._common(other)
        return self.words_on(w) == other.words_on(w)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def to_json(self) -> dict:
        return {"window": self.window.to_json(), "words": sorted(self.words)}

    @staticmethod
    def from_json(system: SubstitutionSystem, data: dict) -> "ClopenSet":
        return ClopenSet(system, Window.from_json(data["window"]), data["words"])

    def __repr__(self):
        if not self.words:
            return "ClopenSet(empty)"
        shown = ",".join(sorted(self.words)[:6])
        return f"ClopenSet([{self.window.lo},{self.window.hi}]: {shown})"


def _canonicalize(system, window, words):
    if not words:
        return Window(0, 0), frozenset()
    while window.length > 1:
        trimmed = _trim(system, window, words, right=True)
        if trimmed is None:
            trimmed = _trim(system, window, words, right=False)
        if trimmed is None:
            break
        window, words = trimmed
    if window.length == 1 and words == system.language(1):
        return Window(0, 0), words
    return window, words


def _trim(system, window, words, right: bool):
    shorter = {w[:-1] for w in words} if right else {w[1:] for w in words}
    for v in system.language(window.length):
        key = v[:-1] if right else v[1:]
        if key in shorter and v not in words:
            return None
    new_window = Window(window.lo, window.hi - 1) if right else \
        Window(window.lo + 1, window.hi)
    return new_window, frozenset(shorter)


@dataclass(frozen=True)
class PointWindow:
    """A finite observation of a point: its word on a coordinate window."""

    system: SubstitutionSystem
    window: Window
    word: str

    def __post_init__(self):
        if len(self.word) != self.window.length:
            raise ValueError("word length does not match the window")
        if self.word not in self.system.language(self.window.length):
            raise ValueError(f"word {self.word!r} is not admissible")

    def letter(self, coord: int) -> str:
        if not (self.window.lo <= coord <= self.window.hi):
            raise WindowTooSmall(f"coordinate {coord} outside {self.window}")
        return self.word[coord - self.window.lo]

    def restrict(self, window: Window) -> "PointWindow":
        if not self.window.contains(window):
            raise WindowTooSmall(f"{self.window} does not cover {window}")
        off = window.lo - self.window.lo
        return PointWindow(self.system, window, self.word[off : off + window.length])

    def word_on(self, window: Window) -> str:
        return self.restrict(window).word


def fibonacci(depth: int = DEFAULT_DEPTH) -> SubstitutionSystem:
    return SubstitutionSystem(["0", "1"], {"0": "01", "1": "0"}, depth=depth)


def period_doubling(depth: int = DEFAULT_DEPTH) -> SubstitutionSystem:
    return SubstitutionSystem(["0", "1"], {"0": "01", "1": "00"}, depth=depth)


def thue_morse(depth: int = DEFAULT_DEPTH) -> SubstitutionSystem:
    return SubstitutionSystem(["0", "1"], {"0": "01", "1": "10"}, depth=depth)
