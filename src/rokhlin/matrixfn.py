"""Exact matrix-valued functions on clopen sets.

A ``MatrixCylinderFunction`` assigns one complex matrix to every word of its
base set, enumerated over a window at least as wide as the base's canonical
window.  Values are exact data (copied, never interpolated); all comparisons
downstream are therefore bitwise or at the 1e-12 copy tolerance.  The table
is read-only: a mapping proxy over write-protected arrays.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import PathMismatch, WindowTooSmall
from .subshift import ClopenSet, PointWindow, Window


def block_diagonal(blocks) -> np.ndarray:
    """The complex block-diagonal matrix with the given square blocks, in order."""
    size = sum(B.shape[0] for B in blocks)
    out = np.zeros((size, size), dtype=complex)
    offset = 0
    for B in blocks:
        k = B.shape[0]
        out[offset : offset + k, offset : offset + k] = B
        offset += k
    return out


class MatrixCylinderFunction:
    """A function ``base -> M_size``, tabulated per admissible word."""

    __slots__ = ("base", "window", "size", "values")

    def __init__(self, base: ClopenSet, window: Window, size: int, values: dict):
        if not window.contains(base.window):
            raise WindowTooSmall(f"{window} does not cover the base window")
        expected = base.words_on(window)
        if set(values) != set(expected):
            missing = expected - set(values)
            extra = set(values) - expected
            raise ValueError(
                f"value table mismatch (missing {len(missing)}, extra {len(extra)})")
        table = {}
        for w, M in values.items():
            A = np.array(M, dtype=complex)
            if A.shape != (size, size):
                raise ValueError(f"matrix for {w!r} has shape {A.shape}")
            A.setflags(write=False)
            table[w] = A
        self.base = base
        self.window = window
        self.size = size
        self.values = MappingProxyType(table)

    @classmethod
    def constant(cls, base: ClopenSet, matrix) -> "MatrixCylinderFunction":
        M = np.array(matrix, dtype=complex)
        return cls(base, base.window, M.shape[0],
                   {w: M for w in base.words})

    @classmethod
    def identity(cls, base: ClopenSet, size: int) -> "MatrixCylinderFunction":
        return cls.constant(base, np.eye(size))

    @classmethod
    def zero(cls, base: ClopenSet, size: int) -> "MatrixCylinderFunction":
        return cls.constant(base, np.zeros((size, size)))

    # -- evaluation ---------------------------------------------------------

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

    def stack(self, words, window: Window) -> np.ndarray:
        """Values at the points whose words on ``window`` are ``words``,
        stacked in that order as one ``(len(words), size, size)`` array."""
        if not window.contains(self.window):
            raise WindowTooSmall(f"{window} does not cover {self.window}")
        off = self.window.lo - window.lo
        keys = [w[off : off + self.window.length] for w in words]
        try:
            blocks = [self.values[key] for key in keys]
        except KeyError:
            key = next(key for key in keys if key not in self.values)
            raise PathMismatch(
                f"word {key!r} is not in the base set") from None
        return np.array(blocks, dtype=complex).reshape(
            len(keys), self.size, self.size)

    def value_at(self, p: PointWindow) -> np.ndarray:
        return self.value(p.word, p.window)

    def values_on(self, window: Window) -> dict:
        """Value table re-enumerated over a larger window."""
        if window == self.window:
            return dict(self.values)
        return {w: self.value(w, window) for w in self.base.words_on(window)}

    # -- restriction and comparison -------------------------------------------

    def restrict(self, subset: ClopenSet) -> "MatrixCylinderFunction":
        """Restriction to a clopen subset of the base."""
        if not subset.issubset(self.base):
            raise ValueError("can only restrict to a subset of the base")
        w = self.window.hull(subset.window)
        table = self.values_on(w)
        keep = subset.words_on(w)
        return MatrixCylinderFunction(
            subset, w, self.size, {word: table[word] for word in keep})

    def allclose(self, other: "MatrixCylinderFunction", atol: float = 1e-12) -> bool:
        if self.size != other.size or not (self.base == other.base):
            return False
        w = self.window.hull(other.window)
        left = self.values_on(w)
        if not left:
            return True
        right = other.values_on(w)
        return bool(np.isclose(np.stack(list(left.values())),
                               np.stack([right[word] for word in left]),
                               rtol=0.0, atol=atol).all())

    def __repr__(self):
        return (f"MatrixCylinderFunction(size={self.size}, "
                f"words={len(self.values)}, window=[{self.window.lo},{self.window.hi}])")
