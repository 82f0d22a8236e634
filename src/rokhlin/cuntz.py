"""Cuntz comparison over finite discrete bases and comparison-radius arithmetic.

Positive matrix-valued functions over a finite set of words are compared by
pointwise rank domination; the spectral cutoff and the witness criterion
``(n+1) eta + m <unit> <= n mu  implies  eta <= mu`` provide the desk-scale
content of the comparison-radius machinery, and the bound arithmetic turns
tower heights plus a declared base-space dimension into the per-level values
``((window_length + r_l) d - 1) / (2 r_l)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BaseMismatch, InvariantViolated, NotHermitian
from .matrixfn import block_diagonal
from .subshift import ClopenSet, Window
from .towers import RokhlinSystem, return_profile

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = -1e-10
RANK_TOL = 1e-8


class PositiveElement:
    """Positive-semidefinite matrix per word of a finite discrete base."""

    __slots__ = ("base", "size", "values")

    def __init__(self, base, size: int, values: dict):
        base = tuple(base)
        if set(values) != set(base):
            raise ValueError("need exactly one matrix per base word")
        table = {}
        for w in base:
            A = np.array(values[w], dtype=complex)
            if A.shape != (size, size):
                raise ValueError(f"matrix for {w!r} has shape {A.shape}")
            if not np.isfinite(A).all():
                raise NotHermitian(f"matrix at {w!r} has a non-finite entry")
            if float(np.max(np.abs(A - A.conj().T), initial=0.0)) > HERMITIAN_TOL:
                raise NotHermitian(f"matrix at {w!r} is not Hermitian")
            if float(np.min(np.linalg.eigvalsh(A))) < PSD_EIG_TOL:
                raise NotHermitian(f"matrix at {w!r} has a negative eigenvalue")
            A.setflags(write=False)
            table[w] = A
        self.base = base
        self.size = size
        self.values = table

    @classmethod
    def from_ranks(cls, base, size: int, ranks: dict) -> "PositiveElement":
        """Diagonal projections with prescribed pointwise ranks."""
        values = {}
        for w in base:
            r = int(ranks[w])
            if not (0 <= r <= size):
                raise ValueError(f"rank {r} out of range for size {size}")
            values[w] = np.diag([1.0] * r + [0.0] * (size - r))
        return cls(base, size, values)

    def pad_to(self, size: int) -> "PositiveElement":
        if size < self.size:
            raise ValueError("can only pad to a larger size")
        if size == self.size:
            return self
        pad = np.zeros((size - self.size, size - self.size))
        return PositiveElement(self.base, size,
                               {w: block_diagonal([A, pad])
                                for w, A in self.values.items()})

    def direct_sum(self, other: "PositiveElement") -> "PositiveElement":
        if self.base != other.base:
            raise BaseMismatch("direct sum needs a common base")
        return PositiveElement(self.base, self.size + other.size,
                               {w: block_diagonal([self.values[w], other.values[w]])
                                for w in self.base})

    def distance(self, other: "PositiveElement") -> float:
        if self.base != other.base or self.size != other.size:
            raise BaseMismatch("distance needs matching base and size")
        return max(float(np.linalg.norm(self.values[w] - other.values[w], 2))
                   for w in self.base)

    def rank_profile(self) -> dict:
        return {w: matrix_rank(A) for w, A in self.values.items()}

    def __repr__(self):
        return f"PositiveElement(size={self.size}, words={len(self.base)})"


def matrix_rank(A: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL``."""
    if A.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(A, compute_uv=False) > RANK_TOL))


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
        return all(self.rank_profile[w] <= other.rank_profile[w]
                   for w in self.rank_profile)


def eps_cut(a: PositiveElement, eps: float) -> PositiveElement:
    """Functional-calculus cutoff: shift every eigenvalue down by ``eps``,
    clipping at zero.  Moves the element by at most ``eps`` in norm."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    values = {}
    for w, A in a.values.items():
        lam, V = np.linalg.eigh(A)
        cut = np.maximum(lam - eps, 0.0)
        values[w] = (V * cut) @ V.conj().T
    return PositiveElement(a.base, a.size, values)


def cuntz_leq(a: PositiveElement, b: PositiveElement) -> bool:
    """Pointwise rank domination, the exact comparison over a finite base."""
    if a.base != b.base:
        raise BaseMismatch("comparison needs a common base")
    size = max(a.size, b.size)
    a = a.pad_to(size)
    b = b.pad_to(size)
    ra = a.rank_profile()
    rb = b.rank_profile()
    return all(ra[w] <= rb[w] for w in a.base)


def rc_witness_test(n: int, m: int, eta: PositiveElement,
                    mu: PositiveElement) -> bool:
    """The rank-surplus implication behind the comparison radius.

    When ``(n+1) rank(eta) + m * size <= n rank(mu)`` holds at every word, the
    comparison ``eta <= mu`` (rank domination on the same padded profiles)
    must follow; returns whether the implication held
    (vacuously true when the hypothesis fails).  Over a finite discrete base
    this can never be falsified, which certifies comparison radius zero.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if eta.base != mu.base:
        raise BaseMismatch("witness test needs a common base")
    size = max(eta.size, mu.size)
    eta = eta.pad_to(size)
    mu = mu.pad_to(size)
    re = eta.rank_profile()
    rm = mu.rank_profile()
    hypothesis = all((n + 1) * re[w] + m * size <= n * rm[w] for w in eta.base)
    if not hypothesis:
        return True
    return all(re[w] <= rm[w] for w in eta.base)


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
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    # h^k(Y) meets Y exactly when Y meets h^{-k}(Y)
    if not (Y & Y.translates(-k_max)).is_empty():
        return False
    if k_max >= 1:
        least = return_profile(Y).times[0]
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
    separated = window_disjointness(S.Y, length - 1)
    if separated and bound > declared_dim:
        raise InvariantViolated("separation certified but the bound exceeds "
                                "the declared dimension")
    return RCBoundReport(window_length=length, heights=S.heights,
                         declared_dim=declared_dim, per_level=per_level,
                         bound=bound, separation_verified=separated)


def headline_bound(mdim: float):
    """The pair ``(1 + 36 * mdim, least integer above 36 * mdim)``."""
    if mdim < 0:
        raise ValueError("mean dimension must be nonnegative")
    value = 1.0 + 36.0 * mdim
    d = int(np.floor(36.0 * mdim)) + 1
    return value, d
