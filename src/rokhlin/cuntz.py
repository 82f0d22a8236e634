"""Cuntz comparison over finite discrete bases and comparison-radius arithmetic.

Positive matrix-valued functions over a finite set of words (one read-only
``(words, size, size)`` stack each) are compared by pointwise rank
domination, one rule for every caller; the spectral cutoff and the witness
criterion ``(n+1) eta + m <unit> <= n mu  implies  eta <= mu`` provide the
desk-scale content of the comparison-radius machinery, and the bound
arithmetic turns tower heights plus a declared base-space dimension into the
per-level values ``((window_length + r_l) d - 1) / (2 r_l)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import BaseMismatch, InvariantViolated, NotHermitian
from .matrixfn import stack_table
from .subshift import ClopenSet, Window
from .towers import RokhlinSystem, return_profile

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = -1e-10
RANK_TOL = 1e-8


class PositiveElement:
    """Positive-semidefinite matrix per word of a finite discrete base: one
    read-only stack ``(words, size, size)`` in base order, by word in ``values``."""

    __slots__ = ("base", "size", "values", "_stack")

    def __init__(self, base, size: int, values: dict):
        base = tuple(base)
        if set(values) != set(base):
            raise ValueError("need exactly one matrix per base word")
        self._set(base, stack_table(base, size, values))

    def _set(self, base: tuple, stack: np.ndarray) -> "PositiveElement":
        """Keep ``stack`` if every row passes, else name the first bad word."""
        finite = np.isfinite(stack).all(axis=(1, 2))
        safe = np.where(finite[:, None, None], stack, 0.0)
        asym = np.abs(safe - safe.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        least = np.linalg.eigvalsh(safe).min(axis=1, initial=np.inf)
        failed = np.stack([~finite, asym > HERMITIAN_TOL, least < PSD_EIG_TOL], axis=1)
        if failed.any():
            k, test = divmod(int(failed.argmax()), 3)
            raise NotHermitian(f"matrix at {base[k]!r} " + ("has a non-finite entry",
                               "is not Hermitian", "has a negative eigenvalue")[test])
        stack.setflags(write=False)
        self.base, self.size, self._stack = base, stack.shape[1], stack
        self.values = MappingProxyType(dict(zip(base, stack)))
        return self

    @classmethod
    def _from_stack(cls, base: tuple, stack: np.ndarray) -> "PositiveElement":
        """The element with the rows of ``stack`` (checked, made read-only)."""
        return cls.__new__(cls)._set(base, stack)

    @classmethod
    def from_ranks(cls, base, size: int, ranks: dict) -> "PositiveElement":
        """Diagonal projections with prescribed pointwise ranks."""
        base = tuple(base)
        r = np.array([int(ranks[w]) for w in base], dtype=int)
        out = (r < 0) | (r > size)
        if out.any():
            raise ValueError(f"rank {r[out.argmax()]} out of range for size {size}")
        stack = np.zeros((len(base), size, size), dtype=complex)
        stack[:, range(size), range(size)] = np.arange(size) < r[:, None]
        return cls._from_stack(base, stack)

    def pad_to(self, size: int) -> "PositiveElement":
        if size < self.size:
            raise ValueError("can only pad to a larger size")
        if size == self.size:
            return self
        stack = np.zeros((len(self.base), size, size), dtype=complex)
        stack[:, : self.size, : self.size] = self._stack
        return PositiveElement._from_stack(self.base, stack)

    def direct_sum(self, other: "PositiveElement") -> "PositiveElement":
        if self.base != other.base:
            raise BaseMismatch("direct sum needs a common base")
        s, size = self.size, self.size + other.size
        stack = np.zeros((len(self.base), size, size), dtype=complex)
        stack[:, :s, :s], stack[:, s:, s:] = self._stack, other._stack
        return PositiveElement._from_stack(self.base, stack)

    def distance(self, other: "PositiveElement") -> float:
        if self.base != other.base or self.size != other.size:
            raise BaseMismatch("distance needs matching base and size")
        return float(np.linalg.norm(self._stack - other._stack, 2,
                                    axis=(1, 2)).max(initial=0.0))

    def rank_profile(self) -> dict:
        return dict(zip(self.base, _ranks(self._stack).tolist()))

    def __repr__(self):
        return f"PositiveElement(size={self.size}, words={len(self.base)})"


def _ranks(A: np.ndarray) -> np.ndarray:
    """Count of singular values above ``RANK_TOL`` of each matrix in ``A``."""
    return (np.linalg.svd(A, compute_uv=False) > RANK_TOL).sum(axis=-1)


def matrix_rank(A: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL``."""
    return int(_ranks(np.asarray(A)))


def _dominates(upper, lower) -> bool:
    """Pointwise rank domination: ``upper >= lower`` at every word."""
    return bool((np.asarray(upper) >= lower).all())


@dataclass(frozen=True)
class CuntzClass:
    """Comparison class of a positive element over a finite discrete base:
    fully determined by the pointwise rank profile."""

    size: int
    rank_profile: dict

    @classmethod
    def of(cls, a: PositiveElement) -> "CuntzClass":
        return cls(size=a.size, rank_profile=a.rank_profile())

    def __le__(self, other: "CuntzClass") -> bool:
        if set(self.rank_profile) != set(other.rank_profile):
            raise BaseMismatch("comparison needs a common base")
        return _dominates([other.rank_profile[w] for w in self.rank_profile],
                          list(self.rank_profile.values()))


def eps_cut(a: PositiveElement, eps: float) -> PositiveElement:
    """Functional-calculus cutoff: shift every eigenvalue down by ``eps``,
    clipping at zero.  Moves the element by at most ``eps`` in norm."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    lam, V = np.linalg.eigh(a._stack)
    cut = np.maximum(lam - eps, 0.0)
    return PositiveElement._from_stack(
        a.base, (V * cut[:, None, :]) @ V.conj().swapaxes(1, 2))


def cuntz_leq(a: PositiveElement, b: PositiveElement) -> bool:
    """Pointwise rank domination, the exact comparison over a finite base."""
    if a.base != b.base:
        raise BaseMismatch("comparison needs a common base")
    return _dominates(_ranks(b._stack), _ranks(a._stack))


def rc_witness_test(n: int, m: int, eta: PositiveElement,
                    mu: PositiveElement) -> bool:
    """The rank-surplus implication behind the comparison radius.

    When ``(n+1) rank(eta) + m * size <= n rank(mu)`` holds at every word, the
    comparison ``eta <= mu`` (rank domination; ``size`` is the larger one)
    must follow; returns whether the implication held
    (vacuously true when the hypothesis fails).  Over a finite discrete base
    this can never be falsified, which certifies comparison radius zero.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if eta.base != mu.base:
        raise BaseMismatch("witness test needs a common base")
    # Python integers, so that a large n or m cannot wrap around
    re, rm = (_ranks(x._stack).astype(object) for x in (eta, mu))
    if not _dominates(n * rm, (n + 1) * re + m * max(eta.size, mu.size)):
        return True
    return _dominates(rm, re)


@dataclass(frozen=True)
class RCBoundReport:
    """Per-level comparison-radius bound data for a tower system."""

    window_length: int
    heights: tuple
    declared_dim: int
    per_level: tuple
    bound: float
    separation_verified: bool

    def to_json(self) -> dict:
        return {"window_length": self.window_length,
                "heights": list(self.heights),
                "declared_dim": self.declared_dim,
                "per_level": [float(v) for v in self.per_level],
                "bound": float(self.bound),
                "separation_verified": self.separation_verified}


def per_level_value(window_length: int, r: int, dim: int) -> Fraction:
    return Fraction((window_length + r) * dim - 1, 2 * r)


def window_disjointness(Y: ClopenSet, k_max: int) -> bool:
    """Exactly whether ``h^k(Y)`` misses ``Y`` for ``k = 1 .. k_max``.

    When the translates are disjoint, no return time can be ``k_max`` or less,
    so every tower height over ``Y`` is at least ``k_max + 1``; that
    consequence is recomputed and enforced.
    """
    return _disjoint_translates(Y, k_max, lambda: return_profile(Y))


def _disjoint_translates(Y: ClopenSet, k_max: int, profile) -> bool:
    """``window_disjointness``, with the return profile of ``Y`` taken from
    ``profile()`` when the translates are disjoint."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    # h^k(Y) meets Y exactly when Y meets h^{-k}(Y)
    if not (Y & Y.translates(-k_max)).is_empty():
        return False
    if k_max >= 1:
        least = profile().times[0]
        if least < k_max + 1:
            raise InvariantViolated(
                "disjoint translates but a return time below the window length")
    return True


def rc_upper_bound(S: RokhlinSystem, window: Window,
                   declared_dim: int) -> RCBoundReport:
    """Comparison-radius bound for the projected decomposition over a window.

    Each projected base space sits inside a product of ``window_length + r_l``
    copies of a space of declared dimension, so its dimension is at most
    ``(window_length + r_l) * d``; the per-level values feed the max, clamped
    at zero.  When the window translates of the base set are disjoint the
    heights dominate the window length and the bound cannot exceed ``d``.
    """
    if declared_dim < 0:
        raise ValueError("declared dimension must be nonnegative")
    length = window.length
    per_level = tuple(per_level_value(length, r, declared_dim)
                      for r in S.heights)
    bound = max(0.0, max(float(v) for v in per_level))
    separated = _disjoint_translates(S.Y, length - 1, lambda: S.profile)
    if separated and bound > declared_dim:
        raise InvariantViolated("separation certified but the bound exceeds "
                                "the declared dimension")
    return RCBoundReport(window_length=length, heights=S.heights,
                         declared_dim=declared_dim, per_level=per_level,
                         bound=bound, separation_verified=separated)


def headline_bound(mdim: float):
    """The pair ``(1 + 36 * mdim, least integer above 36 * mdim)``."""
    scaled = 36.0 * float(mdim)
    if not (mdim >= 0 and np.isfinite(scaled)):
        raise ValueError("mean dimension must be nonnegative, with 36 * mdim finite")
    return 1.0 + scaled, int(np.floor(scaled)) + 1
