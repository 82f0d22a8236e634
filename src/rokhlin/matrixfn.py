"""Exact matrix-valued functions on clopen sets.

A ``MatrixCylinderFunction`` assigns one complex matrix to every word of its
base set, enumerated over a window at least as wide as the base's canonical
window.  Values are exact data (copied, never interpolated); all comparisons
downstream are therefore bitwise or at the 1e-12 copy tolerance (``close``).
The table is one read-only ``(words, size, size)`` stack, a row per base
word on the window in sorted order; ``stack`` gathers rows for lexicon
indices through the system's restriction plans; ``_from_stack`` takes a
filled stack as it is, so only input tables are stacked (``stack_table``).
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import PathMismatch, WindowTooSmall
from .subshift import ClopenSet, PointWindow, Window


def close(a, b, atol: float) -> np.ndarray:
    """``np.isclose(a, b, rtol=0, atol=atol)`` element for element, NaN, inf
    and signed zeros included: equal, or a finite ``b`` within ``atol``."""
    with np.errstate(invalid="ignore"):
        return (np.abs(a - b) <= atol) & np.isfinite(b) | (a == b)


def stack_table(words, size: int, values) -> np.ndarray:
    """The matrices ``values[w]``, ``w`` in ``words``, as one complex
    ``(len(words), size, size)`` array; the first of another shape raises."""
    stack = np.empty((len(words), size, size), dtype=complex)
    for k, w in enumerate(words):
        A = np.asarray(values[w], dtype=complex)
        if A.shape != (size, size):
            raise ValueError(f"matrix for {w!r} has shape {A.shape}")
        stack[k] = A
    return stack


class MatrixCylinderFunction:
    """A function ``base -> M_size``, tabulated per admissible word."""

    __slots__ = ("base", "window", "size", "_stack", "_rows", "_values")

    def __init__(self, base: ClopenSet, window: Window, size: int, values: dict):
        if not window.contains(base.window):
            raise WindowTooSmall(f"{window} does not cover the base window")
        expected = base.words_on(window)
        if set(values) != set(expected):
            missing = expected - set(values)
            extra = set(values) - expected
            raise ValueError(
                f"value table mismatch (missing {len(missing)}, extra {len(extra)})")
        stack = stack_table(sorted(expected), size, values)
        stack.setflags(write=False)
        self.base, self.window, self.size, self._stack = base, window, size, stack

    @classmethod
    def _from_stack(cls, base: ClopenSet, window: Window,
                    stack: np.ndarray) -> "MatrixCylinderFunction":
        """The function whose rows are ``stack``, taken as it is (no per-word
        validation): ``stack`` must be a complex array of shape
        ``(words, size, size)`` over ``base.indices_on(window)``, and becomes
        read-only."""
        stack.setflags(write=False)
        f = cls.__new__(cls)
        f.base, f.window, f.size, f._stack = base, window, stack.shape[1], stack
        return f

    @classmethod
    def constant(cls, base: ClopenSet, matrix) -> "MatrixCylinderFunction":
        M = np.array(matrix, dtype=complex)
        return cls._from_stack(base, base.window, np.tile(
            M, (len(base.indices_on(base.window)), 1, 1)))

    @classmethod
    def identity(cls, base: ClopenSet, size: int) -> "MatrixCylinderFunction":
        return cls.constant(base, np.eye(size))

    @classmethod
    def zero(cls, base: ClopenSet, size: int) -> "MatrixCylinderFunction":
        return cls.constant(base, np.zeros((size, size)))

    # -- evaluation ---------------------------------------------------------

    @property
    def values(self):
        """The table as a read-only word -> matrix mapping, in word order."""
        try:
            return self._values
        except AttributeError:
            words = sorted(self.base.words_on(self.window))
            self._values = MappingProxyType(dict(zip(words, self._stack)))
            return self._values

    def rows_of(self, indices, window: Window) -> np.ndarray:
        """The rows of the words ``lexicon(window.length)[0][indices]``; a
        word off the base maps past the last row, so reading it raises."""
        try:
            rows = self._rows
        except AttributeError:
            count = len(self._stack)
            rows = self._rows = np.full(self.base.system.complexity(
                self.window.length), count, dtype=np.min_scalar_type(count))
            rows[self.base.indices_on(self.window)] = np.arange(count)
        if window != self.window:
            if not window.contains(self.window):
                raise WindowTooSmall(f"{window} does not cover {self.window}")
            indices = self.base.system.restriction(
                window.length, self.window.lo - window.lo,
                self.window.length)[indices]
        return rows[indices]

    def stack(self, indices, window: Window) -> np.ndarray:
        """Values at the words ``lexicon(window.length)[0][indices]`` on
        ``window``, in that order, as one ``(len(indices), size, size)`` array."""
        rows = self.rows_of(indices, window)
        try:
            return self._stack[rows]
        except IndexError:
            bad = indices[np.argmax(rows == len(self._stack))]
            word = self.base.system.lexicon(window.length)[0][bad]
            raise PathMismatch(f"word {word!r} on {window} is not in the base set") from None

    def value(self, word: str, window: Window) -> np.ndarray:
        """Value at any point whose word on ``window`` is ``word``."""
        if not window.contains(self.window):
            raise WindowTooSmall(f"{window} does not cover {self.window}")
        off = self.window.lo - window.lo
        key = word[off : off + self.window.length]
        try:
            return self.values[key]
        except KeyError:
            raise PathMismatch(
                f"word {key!r} is not in the base set") from None

    def value_at(self, p: PointWindow) -> np.ndarray:
        return self.value(p.word, p.window)

    def values_on(self, window: Window) -> dict:
        """Value table re-enumerated over a larger window."""
        indices = self.base.indices_on(window)
        words = self.base.system.lexicon(window.length)[0][indices].tolist()
        return dict(zip(words, self.stack(indices, window)))

    # -- restriction and comparison -------------------------------------------

    def restrict(self, subset: ClopenSet) -> "MatrixCylinderFunction":
        """Restriction to a clopen subset of the base."""
        if not subset.issubset(self.base):
            raise ValueError("can only restrict to a subset of the base")
        w = self.window.hull(subset.window)
        return MatrixCylinderFunction._from_stack(
            subset, w, self.stack(subset.indices_on(w), w))

    def allclose(self, other: "MatrixCylinderFunction", atol: float = 1e-12) -> bool:
        if self.size != other.size or not (self.base == other.base):
            return False
        w = self.window.hull(other.window)
        indices = self.base.indices_on(w)
        return bool(close(self.stack(indices, w), other.stack(indices, w),
                          atol).all())

    def __repr__(self):
        return (f"MatrixCylinderFunction(size={self.size}, "
                f"words={len(self._stack)}, window=[{self.window.lo},{self.window.hi}])")
