"""Finite formal series over the subshift and their evaluation homomorphisms.

An element is a finitely supported series ``a = sum_n f_n u^n`` whose
coefficients are cylinder functions.  The unitary implements the covariance
rule ``u f u* = f o h^{-1}``, so ``(f u^m)(g u^n) = f (g o h^{-m}) u^{m+n}``
and ``(f u^n)* = (conj(f) o h^n) u^{-n}``.

Membership in the orbit-breaking subalgebra of a set ``Y`` is the termwise
vanishing condition: ``f_n`` must vanish on ``Y_n``, the union of the first
``n`` forward (or backward, for negative ``n``) translates of ``Y``
(``Y.translates(n)``, kept on ``Y``).  The
evaluation ``gamma_{N,Z}`` sends such an element to the matrix function
``x -> [a_{j-k}(h^j(x))]_{j,k}`` on ``Z``; it is a unital *-homomorphism
precisely because of the vanishing condition.  Tower levels come stored
on the ``RokhlinSystem``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolated,
    PreconditionViolated,
    WindowTooSmall,
    ZeroElement,
)
from .matrixfn import MatrixCylinderFunction
from .subshift import ClopenSet, PointWindow, SubstitutionSystem, Window
from .towers import RokhlinSystem

MATRIX_TOL = 1e-10


class CylinderFunction:
    """A complex-valued function depending on finitely many coordinates."""

    __slots__ = ("system", "window", "values", "_column")

    def __init__(self, system: SubstitutionSystem, window: Window, values):
        language = system.language(window.length)
        bad = set(values) - language
        if bad:
            raise ValueError(f"values on inadmissible words: {sorted(bad)[:4]}")
        self.system = system
        self.window = window
        self.values = dict.fromkeys(language, 0j)
        for w, v in values.items():
            self.values[w] = complex(v)

    @classmethod
    def constant(cls, system: SubstitutionSystem, value: complex) -> "CylinderFunction":
        return cls(system, Window(0, 0), {w: value for w in system.language(1)})

    @classmethod
    def indicator(cls, C: ClopenSet) -> "CylinderFunction":
        return cls(C.system, C.window, {w: 1.0 for w in C.words})

    # -- evaluation ----------------------------------------------------------

    def value(self, word: str, window: Window) -> complex:
        if not window.contains(self.window):
            raise WindowTooSmall(f"{window} does not cover {self.window}")
        off = self.window.lo - window.lo
        return self.values[word[off : off + self.window.length]]

    def value_at(self, p: PointWindow) -> complex:
        return self.value(p.word, p.window)

    def column(self) -> np.ndarray:
        """The values in ``lexicon(self.window.length)`` order, as a complex
        array; built on the first call and kept, as no routine changes a
        function's table after construction."""
        try:
            return self._column
        except AttributeError:
            words = self.system.lexicon(self.window.length)[0]
            self._column = np.array([self.values[w] for w in words],
                                    dtype=complex)
            return self._column

    def values_on(self, window: Window) -> dict:
        if window == self.window:
            return dict(self.values)
        return {w: self.value(w, window)
                for w in self.system.language(window.length)}

    # -- algebra --------------------------------------------------------------

    def _binary(self, other: "CylinderFunction", op) -> "CylinderFunction":
        if self.system is not other.system:
            raise ValueError("functions belong to different systems")
        w = self.window.hull(other.window)
        left = self.values_on(w)
        right = other.values_on(w)
        return CylinderFunction(self.system, w,
                                {word: op(left[word], right[word]) for word in left})

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, CylinderFunction):
            return self._binary(other, lambda a, b: a * b)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: complex) -> "CylinderFunction":
        c = complex(c)
        return CylinderFunction(self.system, self.window,
                                {w: c * v for w, v in self.values.items()})

    def conj(self) -> "CylinderFunction":
        return CylinderFunction(self.system, self.window,
                                {w: v.conjugate() for w, v in self.values.items()})

    def compose_shift(self, j: int) -> "CylinderFunction":
        """The function ``f o h^j``; its window moves up by ``j``."""
        return CylinderFunction(self.system, self.window.shift(j), self.values)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)

    def vanishes_on(self, C: ClopenSet) -> bool:
        """Whether the function is zero at every point of ``C``: its value
        is read at the slice of each word of ``C`` on the common window."""
        if C.is_empty():
            return True
        w = self.window.hull(C.window)
        plan = self.system.restriction(w.length, self.window.lo - w.lo,
                                       self.window.length)
        return not self.column()[plan[C.indices_on(w)]].any()

    def support_set(self) -> ClopenSet:
        return ClopenSet(self.system, self.window,
                         {w for w, v in self.values.items() if v != 0})

    def __repr__(self):
        return f"CylinderFunction([{self.window.lo},{self.window.hi}], {len(self.values)} words)"


class FormalElement:
    """Finitely supported series ``sum_n f_n u^n``; zero terms are dropped."""

    __slots__ = ("system", "terms")

    def __init__(self, system: SubstitutionSystem, terms: dict):
        self.system = system
        self.terms = {int(n): f for n, f in terms.items() if not f.is_zero()}

    @classmethod
    def unit(cls, system: SubstitutionSystem) -> "FormalElement":
        return cls(system, {0: CylinderFunction.constant(system, 1.0)})

    @classmethod
    def zero(cls, system: SubstitutionSystem) -> "FormalElement":
        return cls(system, {})

    @classmethod
    def single(cls, n: int, f: CylinderFunction) -> "FormalElement":
        return cls(f.system, {n: f})

    @property
    def support(self):
        return tuple(sorted(self.terms))

    def coefficient(self, n: int) -> CylinderFunction:
        f = self.terms.get(n)
        if f is None:
            return CylinderFunction.constant(self.system, 0.0)
        return f

    def conditional_expectation(self) -> CylinderFunction:
        """The degree-zero coefficient (a projection of norm one, termwise)."""
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return not self.terms

    # -- *-algebra operations --------------------------------------------------

    def __add__(self, other: "FormalElement") -> "FormalElement":
        terms = dict(self.terms)
        for n, g in other.terms.items():
            terms[n] = terms[n] + g if n in terms else g
        return FormalElement(self.system, terms)

    def __sub__(self, other: "FormalElement") -> "FormalElement":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "FormalElement":
        return FormalElement(self.system,
                             {n: f.scale(c) for n, f in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, FormalElement):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, FormalElement):
            return self.scale(other)
        terms: dict = {}
        for m, f in self.terms.items():
            for n, g in other.terms.items():
                piece = f * g.compose_shift(-m)
                key = m + n
                terms[key] = terms[key] + piece if key in terms else piece
        return FormalElement(self.system, terms)

    def adjoint(self) -> "FormalElement":
        return FormalElement(
            self.system,
            {-n: f.conj().compose_shift(n) for n, f in self.terms.items()})

    def termwise_norm(self) -> float:
        """Sum of coefficient sup-norms (an upper bound for the operator norm)."""
        return sum(f.sup_norm() for f in self.terms.values())

    def to_json(self) -> dict:
        out = []
        for n in sorted(self.terms):
            f = self.terms[n]
            out.append({
                "n": n,
                "window": f.window.to_json(),
                "values": {w: [v.real, v.imag]
                           for w, v in sorted(f.values.items())},
            })
        return {"terms": out}

    @staticmethod
    def from_json(system: SubstitutionSystem, data: dict) -> "FormalElement":
        terms = {}
        for item in data["terms"]:
            window = Window.from_json(item["window"])
            values = {w: complex(re, im) for w, (re, im) in item["values"].items()}
            bad = sorted(w for w, v in values.items() if not np.isfinite(v))
            if bad:
                raise ValueError(f"non-finite coefficient at word {bad[0]!r}")
            terms[int(item["n"])] = CylinderFunction(system, window, values)
        return FormalElement(system, terms)

    def __repr__(self):
        return f"FormalElement(support={list(self.support)})"


# -- orbit-breaking membership ------------------------------------------------


def in_ob_subalgebra(a: FormalElement, Y: ClopenSet) -> bool:
    """Termwise vanishing test for membership in the orbit-breaking subalgebra."""
    return all(f.vanishes_on(Y.translates(n)) for n, f in a.terms.items())


def project_to_subalgebra(a: FormalElement, Y: ClopenSet) -> FormalElement:
    """Zero out each degree-``n`` coefficient on ``Y_n``."""
    terms = {}
    for n, f in a.terms.items():
        B = Y.translates(n)
        w = f.window.hull(B.window) if not B.is_empty() else f.window
        table = f.values_on(w)
        dead = B.words_on(w)
        terms[n] = CylinderFunction(
            a.system, w, {word: (0.0 if word in dead else v)
                          for word, v in table.items()})
    return FormalElement(a.system, terms)


# -- evaluation homomorphisms ---------------------------------------------------


def _entry_ranges(n: int, N: int):
    return range(max(0, n), N + min(0, n))


def gamma_eval(a: FormalElement, N: int, Z: ClopenSet, x: PointWindow,
               Y: ClopenSet) -> np.ndarray:
    """Evaluate the series at a point of ``Z`` as an ``N x N`` matrix.

    ``Z`` must sit inside ``Y`` with ``h^N(Z)`` back inside ``Y``; both are
    enforced, as is ``x in Z``.  Entry ``(j, k)`` is the degree ``j - k``
    coefficient evaluated along the forward orbit of ``x``.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not Z.issubset(Y):
        raise PreconditionViolated("Z is not contained in Y")
    if not Z.shift(N).issubset(Y):
        raise PreconditionViolated("h^N(Z) is not contained in Y")
    if not Z.contains_point(x):
        raise PreconditionViolated("x is not in Z")
    M = np.zeros((N, N), dtype=complex)
    for n, f in a.terms.items():
        if abs(n) >= N:
            continue
        for j in _entry_ranges(n, N):
            needed = f.window.shift(j)
            if not x.window.contains(needed):
                raise WindowTooSmall(
                    f"point window {x.window} cannot evaluate coefficient "
                    f"{n} at orbit step {j}")
            M[j, j - n] = f.values[x.word_on(needed)]
    return M


def gamma_component(a: FormalElement, S: RokhlinSystem, i: int) -> MatrixCylinderFunction:
    """The evaluation of ``a`` over the ``i``-th tower base, as exact data.

    Entry ``(j, j - n)`` at a base word is ``a_n`` read at the word's slice
    for ``h^j``.  Each entry is filled as one column over every base word of
    a ``(words, r, r)`` array; values are copied, never computed.
    """
    r = S.heights[i]
    T = S.bases[i]
    window = T.window
    terms = [(n, f) for n, f in a.terms.items() if abs(n) < r]
    for n, f in terms:
        for j in _entry_ranges(n, r):
            window = window.hull(f.window.shift(j))
    words = T.system.lexicon(window.length)[0][T.indices_on(window)].tolist()
    out = np.zeros((len(words), r, r), dtype=complex)
    for n, f in terms:
        span = f.window.length
        for j in _entry_ranges(n, r):
            off = f.window.lo + j - window.lo
            out[:, j, j - n] = [f.values[w[off : off + span]] for w in words]
    return MatrixCylinderFunction(T, window, r, dict(zip(words, out)))


def gamma_symbolic(a: FormalElement, S: RokhlinSystem) -> list:
    """Exact matrix functions over every tower ``0 .. m``.

    Requires membership in the orbit-breaking subalgebra of the system's base
    set; each component agrees with pointwise evaluation at every word.
    """
    if not in_ob_subalgebra(a, S.Y):
        raise PreconditionViolated(
            "element is not in the orbit-breaking subalgebra of Y")
    return [gamma_component(a, S, i) for i in range(S.m + 1)]


# -- randomized checks -----------------------------------------------------------


def _unit_disc(rng, count: int) -> np.ndarray:
    """``count`` random points of the complex unit disc, uniform by area.

    Point ``k`` takes radius ``sqrt(u[k, 0])`` and angle ``2 pi u[k, 1]`` from
    one ``rng.random((count, 2))`` draw: the same values, in the same order,
    as drawing ``rng.uniform()`` and ``rng.uniform(0, 2 pi)`` per point.
    """
    u = rng.random((count, 2))
    radius = np.sqrt(u[:, 0])
    angle = 2.0 * np.pi * u[:, 1]
    out = np.empty(count, dtype=complex)
    out.real = radius * np.cos(angle)
    out.imag = radius * np.sin(angle)
    return out


def sample_subalgebra_element(system: SubstitutionSystem, Y: ClopenSet, rng,
                              max_abs_degree: int, max_support: int | None = None,
                              window_lengths=(1, 2, 3, 4),
                              lo_range=(-2, 2)) -> FormalElement:
    """Random element of the orbit-breaking subalgebra.

    Coefficients get random values on the complex unit disc over small random
    windows (left ends drawn from ``lo_range``), then are projected into the
    subalgebra by zeroing each degree-``n`` coefficient on ``Y_n``; degrees whose
    coefficient dies entirely are dropped.
    """
    degrees = list(range(-max_abs_degree, max_abs_degree + 1))
    count = max_support if max_support is not None else len(degrees)
    count = min(count, len(degrees))
    chosen = rng.choice(len(degrees), size=rng.integers(1, count + 1),
                        replace=False)
    terms = {}
    for idx in sorted(chosen):
        n = degrees[int(idx)]
        length = int(rng.choice(window_lengths))
        lo = int(rng.integers(lo_range[0], lo_range[1] + 1))
        window = Window(lo, lo + length - 1)
        words = system.lexicon(length)[0]
        values = dict(zip(words, _unit_disc(rng, len(words)).tolist()))
        terms[n] = CylinderFunction(system, window, values)
    return project_to_subalgebra(FormalElement(system, terms), Y)


def sample_point(Z: ClopenSet, windows, rng) -> PointWindow:
    """Random point of ``Z`` observed on a window covering all of ``windows``."""
    w = Z.window
    for extra in windows:
        w = w.hull(extra)
    words = sorted(Z.words_on(w))
    if not words:
        raise ValueError("cannot sample from an empty set")
    return PointWindow(Z.system, w, words[int(rng.integers(len(words)))])


@dataclass(frozen=True)
class HomomorphismReport:
    trials: int
    max_deviation: float
    failures: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {"trials": self.trials, "max_deviation": self.max_deviation,
                "failures": self.failures, "tolerance": self.tolerance,
                "passed": self.passed}


def _needed_windows(elements, N: int):
    out = []
    for a in elements:
        for n, f in a.terms.items():
            if abs(n) >= N:
                continue
            for j in _entry_ranges(n, N):
                out.append(f.window.shift(j))
    return out


def homomorphism_check(Y: ClopenSet, N: int, Z: ClopenSet, trials: int,
                       seed: int = 0, pairs=None) -> HomomorphismReport:
    """Sampled multiplicativity and adjoint-preservation of the evaluation map.

    Draws random subalgebra pairs (or uses the supplied ``pairs``) and random
    points of ``Z``; reports the worst entrywise deviation of
    ``gamma(ab) - gamma(a)gamma(b)`` and ``gamma(a*) - gamma(a)*``, and counts
    a trial as failed when it exceeds ``MATRIX_TOL``.
    """
    system = Y.system
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    failures = 0
    total = trials if pairs is None else len(pairs)
    for t in range(total):
        if pairs is None:
            a = sample_subalgebra_element(system, Y, rng, N + 1, N + 2)
            b = sample_subalgebra_element(system, Y, rng, N + 1, N + 2)
        else:
            a, b = pairs[t]
        ab = a * b
        a_star = a.adjoint()
        windows = _needed_windows([a, b, ab, a_star], N)
        x = sample_point(Z, windows, rng)
        ga = gamma_eval(a, N, Z, x, Y)
        gb = gamma_eval(b, N, Z, x, Y)
        gab = gamma_eval(ab, N, Z, x, Y)
        gastar = gamma_eval(a_star, N, Z, x, Y)
        dev = max(float(np.max(np.abs(gab - ga @ gb))),
                  float(np.max(np.abs(gastar - ga.conj().T))))
        max_dev = max(max_dev, dev)
        if dev > MATRIX_TOL:
            failures += 1
    return HomomorphismReport(trials=total, max_deviation=max_dev,
                              failures=failures, tolerance=MATRIX_TOL)


# -- injectivity ------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityWitness:
    """Location of a nonzero matrix entry: tower ``l``, level ``j``, degree
    ``n``, and the base word at which the entry is attained."""

    l: int
    j: int
    n: int
    word: str
    value: complex


def injectivity_witness(S: RokhlinSystem, a: FormalElement) -> InjectivityWitness:
    """Explicit nonzero entry of the symbolic evaluation of a nonzero element.

    For the least nonnegative degree ``n`` with nonzero coefficient, the
    coefficient's support avoids ``Y_n``, so it meets some level
    ``h^j(T_l^0)`` with ``j >= n``; the entry ``(j, j - n)`` over tower ``l``
    then reproduces the coefficient value.  Negative-degree-only elements are
    handled through the adjoint.
    """
    if a.is_zero():
        raise ZeroElement("the zero element has no injectivity witness")
    if not in_ob_subalgebra(a, S.Y):
        raise PreconditionViolated(
            "element is not in the orbit-breaking subalgebra of Y")
    nonneg = [n for n in a.support if n >= 0]
    if not nonneg:
        flip = injectivity_witness(S, a.adjoint())
        return InjectivityWitness(l=flip.l, j=flip.j, n=-flip.n,
                                  word=flip.word, value=flip.value.conjugate())
    n = nonneg[0]
    support = a.terms[n].support_set()
    for l in range(S.m + 1):
        comp = None
        for j in range(n, S.heights[l]):
            hit = support & S.levels[l][j]
            if hit.is_empty():
                continue
            if comp is None:
                comp = gamma_component(a, S, l)
            window = comp.window.shift(-j).hull(hit.window)
            word = sorted(hit.words_on(window))[0]
            entry = comp.value(word, window.shift(j))[j, j - n]
            if entry != 0:
                return InjectivityWitness(l=l, j=j, n=n, word=word, value=entry)
    raise InvariantViolated("no witness found for a nonzero subalgebra element")


# -- window approximation -----------------------------------------------------------


def approximate_with_vanishing(f: CylinderFunction, B: ClopenSet, I: Window,
                               eps: float) -> CylinderFunction:
    """Approximate ``f`` by a function of the coordinates in ``I`` only that
    vanishes on ``B``.

    The candidate takes the value of ``f`` at an arbitrary admissible
    extension of the ``I``-word and is cut to zero on the projection of ``B``;
    the projection of a vanishing set keeps zero among each affected fiber's
    values, so the achieved error is bounded by the largest oscillation of
    ``f`` over a fiber.  Raises when the requested accuracy is not achievable
    at this window, reporting what is.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    system = f.system
    if not f.vanishes_on(B):
        raise PreconditionViolated("f does not vanish on the constraint set")
    hull = I.hull(f.window)
    if not B.is_empty():
        hull = hull.hull(B.window)
    f_table = f.values_on(hull)
    off_i = I.lo - hull.lo
    dead = {w[off_i : off_i + I.length] for w in B.words_on(hull)}
    projected = {}
    for w in sorted(system.language(hull.length)):
        key = w[off_i : off_i + I.length]
        if key not in projected:
            projected[key] = 0.0 if key in dead else f_table[w]
    err = max(abs(projected[w[off_i : off_i + I.length]] - f_table[w])
              for w in f_table)
    if err >= eps:
        raise WindowTooSmall(
            f"achievable error {err:.6g} does not beat eps={eps:.6g}",
            achievable=err)
    return CylinderFunction(system, I, projected)


def approximate_by_window_constant(a: FormalElement, z: PointWindow,
                                   eps: float):
    """Window-constant approximation admitted by the cylinder through ``z``.

    Returns the product-window set ``Y`` fixed by the observed word together
    with an element whose coefficients depend only on the observation window,
    vanish where membership requires, and differ from the original termwise by
    less than ``eps`` (exactly zero when the window already carries every
    coefficient).
    """
    system = a.system
    Y = system.cylinder(z.window, z.word)
    if not in_ob_subalgebra(a, Y):
        raise PreconditionViolated(
            "element is not admitted by the cylinder through the given word")
    I = z.window
    terms = {}
    for n, f in a.terms.items():
        terms[n] = approximate_with_vanishing(f, Y.translates(n), I, eps)
    b = FormalElement(system, terms)
    if not in_ob_subalgebra(b, Y):
        raise InvariantViolated("projected element left the subalgebra")
    return Y, b
