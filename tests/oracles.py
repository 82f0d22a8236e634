"""Independent brute-force oracles used to freeze expected values.

Nothing here imports the package's enumeration machinery: languages come from
factors of long iterated words, return times from scanning occurrence gaps.
The tower-check oracles are the pairwise definitions, written in clopen-set
algebra on the system they are given.
"""

import operator
from itertools import product
from typing import NamedTuple

import numpy as np


def iterate_substitution(rules: dict, start: str, min_len: int) -> str:
    """Apply the substitution from a single letter until the word is long."""
    word = start
    while len(word) < min_len:
        word = "".join(rules[a] for a in word)
    return word


def long_word(rules: dict, min_len: int = 4000) -> str:
    letters = sorted(rules)
    return iterate_substitution(rules, letters[0], min_len)


def factor_oracle(rules: dict, length: int, min_len: int = 4000) -> set:
    """Length-``length`` factors of a long iterated word, from every letter."""
    out = set()
    for start in sorted(rules):
        w = iterate_substitution(rules, start, min_len)
        out |= {w[i : i + length] for i in range(len(w) - length + 1)}
    return out


def occurrence_positions(word: str, pattern: str) -> list:
    return [i for i in range(len(word) - len(pattern) + 1)
            if word[i : i + len(pattern)] == pattern]


def gap_oracle(rules: dict, patterns, min_len: int = 4000):
    """Return-time data for the set of points matching one of ``patterns``
    at position zero: the set of gaps between consecutive occurrences in a
    long word, and the largest wait before the first occurrence.

    Interior occurrences only, so boundary effects cannot shrink a gap.
    """
    w = long_word(rules, min_len)
    positions = sorted(set(p for pat in patterns
                           for p in occurrence_positions(w, pat)))
    margin = max(len(p) for p in patterns)
    inner = [p for p in positions if margin < p < len(w) - 2 * margin]
    gaps = {b - a for a, b in zip(inner, inner[1:])}
    return gaps


def return_piece_words(rules: dict, patterns, r: int, length: int,
                       min_len: int = 4000) -> set:
    """Words of the given length starting a first return of exactly ``r``.

    Scans a long word: at each occurrence of a pattern, the next occurrence
    distance is the return time; collects the windows of the requested length.
    """
    w = long_word(rules, min_len)
    positions = sorted(set(p for pat in patterns
                           for p in occurrence_positions(w, pat)))
    out = set()
    for a, b in zip(positions, positions[1:]):
        if b - a == r and a + length <= len(w):
            out.add(w[a : a + length])
    return out


def brute_force_projection_error(fiber_values: dict, forced_zero: set):
    """Optimal sup-error of approximating fiber-constant data.

    ``fiber_values`` maps each fiber key to the list of (real) values the
    target function takes on that fiber; fibers in ``forced_zero`` must map to
    zero.  Returns (optimum, oscillation-bound).
    """
    worst_opt = 0.0
    worst_osc = 0.0
    for key, vals in fiber_values.items():
        lo, hi = min(vals), max(vals)
        worst_osc = max(worst_osc, hi - lo)
        if key in forced_zero:
            worst_opt = max(worst_opt, max(abs(v) for v in vals))
        else:
            worst_opt = max(worst_opt, (hi - lo) / 2.0)
    return worst_opt, worst_osc


def all_rank_profiles(base_size: int, matrix_size: int):
    return product(range(matrix_size + 1), repeat=base_size)


def _read(f, word: str, lo: int, off: int):
    """Value of the tabulated function ``f`` at ``h^off`` of the point whose
    word starts at coordinate ``lo``."""
    start = f.window.lo + off - lo
    return f.values[word[start : start + f.window.length]]


def _glued_oracle(path, components, word: str, lo: int) -> np.ndarray:
    """The block diagonal of the components ``mu[s]`` read ``offsets[s]``
    steps along the orbit of the point whose word starts at ``lo``."""
    blocks = [_read(components[idx], word, lo, off)
              for idx, off in zip(path.mu, path.offsets)]
    size = sum(B.shape[0] for B in blocks)
    glued = np.zeros((size, size), dtype=complex)
    pos = 0
    for B in blocks:
        k = B.shape[0]
        glued[pos : pos + k, pos : pos + k] = B
        pos += k
    return glued


def _path_window(path, components, window):
    """``window`` widened to carry the path set and every glued block."""
    window = window.hull(path.path_set.window)
    for idx, off in zip(path.mu, path.offsets):
        window = window.hull(components[idx].window.shift(off))
    return window


def gluing_violations_oracle(components, paths_by_level, tol: float = 1e-12):
    """Gluing violations ``(level, mu, word)``, found one word at a time.

    ``components[l]`` is a tabulated matrix function (a ``window`` and a
    ``values`` table keyed by the word on it); ``paths_by_level[l]`` lists the
    paths of level ``l``, each with ``mu``, ``offsets`` and a ``path_set``.  At
    each word of each nonempty path set, least word first, read on the
    narrowest window that carries every block, the top component is compared
    by ``np.allclose`` with the block diagonal of the components ``mu[s]``
    read ``offsets[s]`` steps along the orbit.
    """
    found = []
    for l in range(1, len(components)):
        top = components[l]
        for path in paths_by_level[l]:
            if path.path_set.is_empty():
                continue
            window = _path_window(path, components, top.window)
            for word in sorted(path.path_set.words_on(window)):
                want = _read(top, word, window.lo, 0)
                glued = _glued_oracle(path, components, word, window.lo)
                if not np.allclose(want, glued, rtol=0.0, atol=tol):
                    found.append((l, path.mu, word))
    return found


def allclose_oracle(f, g, atol: float) -> bool:
    """Whether two tabulated matrix functions on the same base agree within
    ``atol`` entry by entry, one base word at a time on the hull window."""
    if f.size != g.size or not (f.base == g.base):
        return False
    window = f.window.hull(g.window)
    return all(np.isclose(_read(f, word, window.lo, 0),
                          _read(g, word, window.lo, 0),
                          rtol=0.0, atol=atol).all()
               for word in f.base.words_on(window))


def _disjoint_words(pieces, window):
    """Word sets of the clopen ``pieces`` on ``window`` if pairwise disjoint,
    else None."""
    seen = set()
    total = 0
    for piece in pieces:
        words = piece.words_on(window)
        total += len(words)
        seen |= words
    if len(seen) != total:
        return None
    return frozenset(seen)


def partition_identities_oracle(S) -> dict:
    """The level-partition identities of the tower system ``S``, each set
    enumerated again wherever an identity uses it."""
    system = S.system
    window = S.verification_window()
    rm = max(S.heights)
    Y = S.Y

    def partitions(pieces, target):
        union = _disjoint_words(pieces, window)
        return union is not None and union == target.words_on(window)

    return {
        "interiors-partition-Y": partitions(S.interiors, Y),
        "levels-partition-X": partitions(
            [L for row in S.levels for L in row], system.full_set()),
        "tops-partition-Y": partitions(
            [T0.shift(r) for T0, r in zip(S.interiors, S.heights)], Y),
        "forward-union-partition": all(
            partitions([L for row in S.levels for L in row[:n]],
                       Y.translates(n))
            for n in range(rm + 1)),
        "backward-union-partition": all(
            partitions([L for row in S.levels for L in row[-n:]],
                       Y.translates(-n))
            for n in range(1, rm + 1)),
        "orbit-of-Y-covers-X": Y.translates(rm) == system.full_set(),
        "complement-partition": partitions(
            [L for row in S.levels for L in row[1:]], system.full_set() - Y),
    }


def admissible_sequences_oracle(S, l: int) -> list:
    """Every composition ``mu`` of the height ``r_l`` into heights of towers
    below ``l``, in lexicographic order, as ``(mu, offsets, path_set)``.

    Each set is ``T_l \\cap \\bigcap_s h^{-offsets[s]}(T_{mu[s]})``, computed
    from the bases alone; empty sets are listed too."""
    target = S.heights[l]
    heights = S.heights[:l]
    longest = target // min(heights) if heights else 0
    out = []
    for n in range(1, longest + 1):
        for mu in product(range(l), repeat=n):
            if sum(heights[i] for i in mu) != target:
                continue
            offsets = tuple(sum(heights[i] for i in mu[:s]) for s in range(n))
            path_set = S.bases[l]
            for i, off in zip(mu, offsets):
                path_set = path_set & S.bases[i].shift(-off)
            out.append((mu, offsets, path_set))
    return sorted(out, key=lambda entry: entry[0])


def boundary_path_cover_oracle(S, l: int, paths) -> bool:
    """The structural checks of level ``l`` over every ordered pair of the
    levels of tower ``l``; ``paths`` are the admissible paths of that level."""
    system = S.system
    window = S.verification_window()
    D = S.boundaries[l]
    cover = system.empty_set()
    for path in paths:
        if not path.path_set.issubset(D):
            return False
        cover = cover | path.path_set
    if cover != D:
        return False

    X_prev = S.tower_union(l - 1)
    X_l = S.tower_union(l)
    levels = [L for row in S.levels[:l + 1] for L in row]
    union = _disjoint_words(levels, window)
    if union is None or union != X_l.words_on(window):
        return False

    T, r = S.bases[l], S.heights[l]
    shifted = [T.shift(j) for j in range(r)]
    for j1 in range(r):
        for j2 in range(r):
            if j1 == j2:
                continue
            if not (shifted[j1] & shifted[j2]).issubset(X_prev):
                return False
            if not (shifted[j1] & S.levels[l][j2]).is_empty():
                return False
    for j in range(r):
        entering = T & X_prev.shift(-j)
        if not entering.issubset(D):
            return False
    return D == (T & X_prev)


# -- word-level rules of the evaluation and the lift -------------------------
#
# These are the per-word forms that the library replaced with interned
# languages, restriction plans and column fills: one scalar read or write per
# word and matrix entry.  They take the library's objects (sets, functions,
# tower systems) and read only their stored tables.


def unit_disc_oracle(rng) -> complex:
    """One random point of the complex unit disc, drawn as two scalars:
    radius ``sqrt(u)`` and angle ``uniform(0, 2 pi)``."""
    radius = np.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return radius * complex(np.cos(angle), np.sin(angle))


def words_on_oracle(C, window) -> frozenset:
    """The words on ``window`` of the points of ``C``, by filtering the whole
    language of that length on the slice of ``C``'s window."""
    if not C.words:
        return frozenset()
    if C.is_full():
        return C.system.language(window.length)
    off = C.window.lo - window.lo
    span = C.window.length
    return frozenset(w for w in C.system.language(window.length)
                     if w[off : off + span] in C.words)


def vanishes_on_oracle(f, C) -> bool:
    """Whether ``f`` is zero on ``C``: ``f`` tabulated over the whole language
    of the common window, then read at each word of ``C``."""
    if C.is_empty():
        return True
    w = f.window.hull(C.window)
    off = f.window.lo - w.lo
    table = {word: f.values[word[off : off + f.window.length]]
             for word in f.system.language(w.length)}
    return all(table[word] == 0 for word in words_on_oracle(C, w))


def gamma_component_oracle(a, S, i: int) -> tuple:
    """``(window, {word: matrix})`` of the evaluation over base ``i``: entry
    ``(j, j - n)`` at a base word is ``a_n(h^j(x))``, written one scalar at a
    time."""
    r = S.heights[i]
    T = S.bases[i]
    window = T.window
    for n, f in a.terms.items():
        if abs(n) < r:
            for j in range(max(0, n), r + min(0, n)):
                window = window.hull(f.window.shift(j))
    values = {}
    for word in words_on_oracle(T, window):
        M = np.zeros((r, r), dtype=complex)
        for n, f in a.terms.items():
            if abs(n) >= r:
                continue
            for j in range(max(0, n), r + min(0, n)):
                M[j, j - n] = _read(f, word, window.lo, j)
        values[word] = M
    return window, values


def lift_oracle(S, b) -> dict:
    """``{n: (window, {word: value})}``, the nonzero values of each degree of
    the lift of the stage element ``b``: a word on the interior level
    ``h^j(T_l^0)`` gives degree ``n`` the entry ``M[j, j - n]`` and degree
    ``-n`` the entry ``M[j - n, j]`` of ``b_l`` at its base point, one scalar
    read per entry."""
    window = S.levels[0][0].window
    for l, comp in enumerate(b.components):
        for j, L in enumerate(S.levels[l]):
            window = window.hull(L.window).hull(comp.window.shift(-j))
    tables = {}
    for l, comp in enumerate(b.components):
        for j, L in enumerate(S.levels[l]):
            for word in sorted(words_on_oracle(L, window)):
                M = _read(comp, word, window.lo, -j)
                for n in range(j + 1):
                    if M[j, j - n] != 0:
                        tables.setdefault(n, {})[word] = complex(M[j, j - n])
                    if n and M[j - n, j] != 0:
                        tables.setdefault(-n, {})[word] = complex(M[j - n, j])
    return {n: (window.shift(max(0, -n)), values)
            for n, values in tables.items()}


# -- word-table series arithmetic ---------------------------------------------
#
# The word -> value forms of cylinder-function and series arithmetic that the
# library replaced with one complex column per function: a function is a
# ``Table`` (its system, its window, and a dict from every word on the window
# to a Python complex), and a series is a dict from degree to table.  Every
# value is computed by CPython's complex arithmetic, one word at a time.


class Table(NamedTuple):
    system: object
    window: object
    values: dict


def table_of(f) -> Table:
    """The stored table of a library cylinder function."""
    return Table(f.system, f.window, dict(f.values))


def series_of(a) -> dict:
    """The stored tables of a library series, by degree."""
    return {n: table_of(f) for n, f in a.terms.items()}


def values_on_oracle(f: Table, window) -> dict:
    """``f`` tabulated over the whole language on a covering window: each
    word reads ``f`` at its slice."""
    if window == f.window:
        return dict(f.values)
    if not window.contains(f.window):
        raise ValueError(f"{window} does not cover {f.window}")
    off = f.window.lo - window.lo
    return {w: f.values[w[off : off + f.window.length]]
            for w in f.system.language(window.length)}


def binary_oracle(f: Table, g: Table, op) -> Table:
    """``op`` of two functions, word by word on the hull of their windows."""
    w = f.window.hull(g.window)
    left = values_on_oracle(f, w)
    right = values_on_oracle(g, w)
    return Table(f.system, w, {word: complex(op(left[word], right[word]))
                               for word in left})


def scale_oracle(f: Table, c) -> Table:
    c = complex(c)
    return Table(f.system, f.window, {w: c * v for w, v in f.values.items()})


def conj_oracle(f: Table) -> Table:
    return Table(f.system, f.window,
                 {w: v.conjugate() for w, v in f.values.items()})


def compose_shift_oracle(f: Table, j: int) -> Table:
    """``f o h^j``: the same table on the window moved up by ``j``."""
    return Table(f.system, f.window.shift(j), f.values)


def _nonzero_terms(terms: dict) -> dict:
    return {n: f for n, f in terms.items()
            if not all(v == 0 for v in f.values.values())}


def series_mul_oracle(a: dict, b: dict) -> dict:
    """``(f u^m)(g u^n) = f (g o h^{-m}) u^{m+n}``, summed per degree in the
    order of ``a``'s terms, then ``b``'s; zero terms are dropped."""
    terms = {}
    for m, f in a.items():
        for n, g in b.items():
            piece = binary_oracle(f, compose_shift_oracle(g, -m), operator.mul)
            key = m + n
            terms[key] = (binary_oracle(terms[key], piece, operator.add)
                          if key in terms else piece)
    return _nonzero_terms(terms)


def series_adjoint_oracle(a: dict) -> dict:
    """``(f u^n)* = (conj(f) o h^n) u^{-n}``."""
    return _nonzero_terms({-n: compose_shift_oracle(conj_oracle(f), n)
                           for n, f in a.items()})


def project_oracle(a: dict, Y) -> dict:
    """Each degree-``n`` coefficient set to zero, word by word, on the words
    of ``Y.translates(n)`` on the hull of both windows."""
    terms = {}
    for n, f in a.items():
        B = Y.translates(n)
        w = f.window.hull(B.window) if not B.is_empty() else f.window
        dead = words_on_oracle(B, w)
        terms[n] = Table(f.system, w,
                         {word: (0j if word in dead else v)
                          for word, v in values_on_oracle(f, w).items()})
    return _nonzero_terms(terms)


def series_json(a: dict) -> dict:
    """A series of tables in the shape of ``FormalElement.to_json``."""
    return {"terms": [{"n": n, "window": [a[n].window.lo, a[n].window.hi],
                       "values": {w: [v.real, v.imag]
                                  for w, v in sorted(a[n].values.items())}}
                      for n in sorted(a)]}


# -- clopen-set algebra ---------------------------------------------------------
#
# The word-set rules of ``ClopenSet``: an operation takes both operands' words
# on the hull of their windows, combines them as Python sets and brings the
# result to canonical form; a shift moves the window and canonicalizes again.
# A set is a ``SetForm`` here, and results are compared with the library's as
# ``(window, sorted words)``.


class SetForm(NamedTuple):
    system: object
    lo: int
    hi: int
    words: frozenset


def set_form(C) -> SetForm:
    """The stored form of a library ``ClopenSet``."""
    return SetForm(C.system, C.window.lo, C.window.hi, frozenset(C.words))


def form_key(F) -> tuple:
    """``((lo, hi), sorted words)`` of a ``SetForm`` or a ``ClopenSet``."""
    if not isinstance(F, SetForm):
        F = set_form(F)
    return (F.lo, F.hi), sorted(F.words)


def _is_full(F: SetForm) -> bool:
    return F.lo == F.hi and F.words == F.system.language(1)


def form_words_on(F: SetForm, lo: int, hi: int) -> set:
    """The words on ``[lo, hi]`` of the points of ``F``: the whole language
    for the full set, else the words whose slice on ``F``'s window is one of
    its words."""
    if not F.words:
        return set()
    if _is_full(F):
        return set(F.system.language(hi - lo + 1))
    if not (lo <= F.lo and F.hi <= hi):
        raise ValueError(f"[{lo}, {hi}] does not cover [{F.lo}, {F.hi}]")
    off, span = F.lo - lo, F.hi - F.lo + 1
    return {w for w in F.system.language(hi - lo + 1)
            if w[off : off + span] in F.words}


def canonical_form(system, lo: int, hi: int, words) -> SetForm:
    """The canonical form of the set whose points read ``words`` on
    ``[lo, hi]``: while the window is longer than one coordinate, cut its
    right end if membership does not depend on the last letter (every class
    of admissible words that agree but for it is wholly in or wholly out),
    else its left end likewise, else stop; the empty set and the full
    subshift sit on ``[0, 0]``."""
    words = frozenset(words)
    if not words:
        return SetForm(system, 0, 0, words)
    cuts = ((lambda w: w[:-1], lambda lo, hi: (lo, hi - 1)),
            (lambda w: w[1:], lambda lo, hi: (lo + 1, hi)))
    while hi > lo:
        for key, shrink in cuts:
            classes: dict = {}
            for v in system.language(hi - lo + 1):
                classes.setdefault(key(v), set()).add(v in words)
            if all(len(members) == 1 for members in classes.values()):
                lo, hi = shrink(lo, hi)
                words = frozenset(key(w) for w in words)
                break
        else:
            break
    if hi == lo and words == system.language(1):
        return SetForm(system, 0, 0, words)
    return SetForm(system, lo, hi, words)


def setop_oracle(A: SetForm, B: SetForm, op) -> SetForm:
    """``op`` (``operator.and_``, ``or_`` or ``sub`` on sets) of two sets,
    word by word on the hull of their windows."""
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    return canonical_form(A.system, lo, hi,
                          op(form_words_on(A, lo, hi), form_words_on(B, lo, hi)))


def shift_oracle(F: SetForm, j: int) -> SetForm:
    """``h^j(F)``: its words on the window moved down by ``j``, canonicalized."""
    return canonical_form(F.system, F.lo - j, F.hi - j, F.words)


def equal_oracle(A: SetForm, B: SetForm) -> bool:
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    return form_words_on(A, lo, hi) == form_words_on(B, lo, hi)


def translates_oracle(F: SetForm, n: int) -> SetForm:
    """``Y_n`` as a fold of unions: ``h^0 .. h^{n-1}`` of ``F`` for ``n > 0``,
    ``h^{-1} .. h^n`` for ``n < 0``, empty for ``n = 0``."""
    out = canonical_form(F.system, 0, 0, ())
    for k in (range(n) if n >= 0 else range(-1, n - 1, -1)):
        out = setop_oracle(out, shift_oracle(F, k), operator.or_)
    return out


def tower_unions_oracle(S) -> list:
    """``X_0 .. X_m`` as the per-level fold ``X = X | h^j(T_l)`` over the
    closed levels of each tower in turn."""
    X = canonical_form(S.system, 0, 0, ())
    out = []
    for T, r in zip(S.bases, S.heights):
        for j in range(r):
            X = setop_oracle(X, shift_oracle(set_form(T), j), operator.or_)
        out.append(X)
    return out


# -- word-table matrix functions and stage routines ----------------------------
#
# The word -> matrix forms that the library replaced with one read-only
# ``(words, size, size)`` stack per matrix function, read through restriction
# plans: a function is its ``values`` table (``MatrixTable``), read one word
# at a time at the word's slice on the function's window.  Tables come back
# as ``(window, {word: matrix})`` and are compared with the library's as
# bytes, signed zeros included.


class MatrixTable(NamedTuple):
    base: object
    window: object
    size: int
    values: dict


def matrix_table_of(f) -> MatrixTable:
    """The stored table of a library matrix function."""
    return MatrixTable(f.base, f.window, f.size, dict(f.values))


def matrix_value_oracle(f, word: str, window) -> np.ndarray:
    """``f`` at the point whose word on ``window`` is ``word``."""
    if not window.contains(f.window):
        raise ValueError(f"{window} does not cover {f.window}")
    return _read(f, word, window.lo, 0)


def matrix_stack_oracle(f, words, window) -> np.ndarray:
    """``f`` at each of ``words`` on ``window``, stacked in that order."""
    return np.array([matrix_value_oracle(f, w, window) for w in words],
                    dtype=complex).reshape(len(words), f.size, f.size)


def matrix_values_on_oracle(f, window) -> dict:
    """``f`` at every word of its base on a covering window, in word order."""
    return {w: matrix_value_oracle(f, w, window)
            for w in sorted(words_on_oracle(f.base, window))}


def matrix_restrict_oracle(f, subset) -> tuple:
    """``(window, table)`` of ``f`` restricted to ``subset``: on the hull of
    both windows, ``f`` at every word of ``subset``."""
    window = f.window.hull(subset.window)
    return window, {w: matrix_value_oracle(f, w, window)
                    for w in sorted(words_on_oracle(subset, window))}


def beta_boundary_oracle(D, paths, components, tol: float = 1e-12) -> tuple:
    """``(window, table)`` of the glued boundary function on ``D``: on the
    narrowest window that carries every path set and glued block, the paths
    glue their words in path order, least word first, and a word keeps the
    value of the first path that reaches it; a later path that differs
    beyond ``tol`` raises ``ValueError`` naming both paths and the word."""
    window = D.window
    for path in paths:
        window = _path_window(path, components, window)
    values, origin = {}, {}
    for path in paths:
        for word in sorted(words_on_oracle(path.path_set, window)):
            M = _glued_oracle(path, components, word, window.lo)
            if word not in values:
                values[word], origin[word] = M, path.mu
            elif not np.allclose(values[word], M, rtol=0.0, atol=tol):
                raise ValueError(
                    f"paths {origin[word]} and {path.mu} disagree at {word!r}")
    return window, {w: values[w] for w in sorted(words_on_oracle(D, window))}


def repair_gluing_oracle(components, paths_by_level) -> list:
    """Each component's ``MatrixTable`` overwritten on its path sets with the
    glued value of the components already repaired, path after path, so
    where path sets overlap the last path's value stays."""
    out = []
    for l, comp in enumerate(components):
        table = dict(comp.values)
        for path in paths_by_level[l] if l else ():
            for word in words_on_oracle(path.path_set, comp.window):
                table[word] = _glued_oracle(path, out, word, comp.window.lo)
        out.append(MatrixTable(comp.base, comp.window, comp.size, table))
    return out


def lift_series_oracle(S, b) -> dict:
    """``lift_oracle`` as a series of ``Table``s, in its degree order: every
    word of the window's language, zero where the lift writes nothing, so
    ``series_json`` has the shape of ``FormalElement.to_json``."""
    return {n: Table(S.system, window,
                     {w: values.get(w, 0j)
                      for w in sorted(S.system.language(window.length))})
            for n, (window, values) in lift_oracle(S, b).items()}


# -- positive elements, one matrix per word ----------------------------------
# The per-word rules that ``rokhlin.cuntz`` replaced by whole-stack array
# calls: each word's matrix is checked with its own ``eigvalsh``, ranked with
# its own SVD, cut with its own ``eigh`` and padded or summed as its own
# block-diagonal matrix, and comparisons pad both sides to one size.

ORACLE_HERMITIAN_TOL = 1e-12
ORACLE_PSD_EIG_TOL = -1e-10
ORACLE_RANK_TOL = 1e-8
ORACLE_STAGE_TOL = 1e-12


class OracleNotHermitian(Exception):
    """A matrix that is not finite, Hermitian and positive semidefinite."""


def _block_diagonal(blocks) -> np.ndarray:
    size = sum(B.shape[0] for B in blocks)
    out = np.zeros((size, size), dtype=complex)
    offset = 0
    for B in blocks:
        k = B.shape[0]
        out[offset : offset + k, offset : offset + k] = B
        offset += k
    return out


def matrix_rank_oracle(A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(A, compute_uv=False) > ORACLE_RANK_TOL))


class PositiveElementOracle:
    """A word -> matrix table, each matrix checked on its own, word after
    word in base order: shape, finiteness, symmetry, least eigenvalue."""

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
                raise OracleNotHermitian(f"matrix at {w!r} has a non-finite entry")
            if float(np.max(np.abs(A - A.conj().T), initial=0.0)) > ORACLE_HERMITIAN_TOL:
                raise OracleNotHermitian(f"matrix at {w!r} is not Hermitian")
            if size and float(np.min(np.linalg.eigvalsh(A))) < ORACLE_PSD_EIG_TOL:
                raise OracleNotHermitian(f"matrix at {w!r} has a negative eigenvalue")
            table[w] = A
        self.base = base
        self.size = size
        self.values = table

    def pad_to(self, size: int) -> "PositiveElementOracle":
        if size == self.size:
            return self
        pad = np.zeros((size - self.size, size - self.size))
        return PositiveElementOracle(self.base, size,
                                     {w: _block_diagonal([A, pad])
                                      for w, A in self.values.items()})

    def direct_sum(self, other) -> "PositiveElementOracle":
        return PositiveElementOracle(
            self.base, self.size + other.size,
            {w: _block_diagonal([self.values[w], other.values[w]])
             for w in self.base})

    def distance(self, other) -> float:
        return max(float(np.linalg.norm(self.values[w] - other.values[w], 2))
                   if self.size else 0.0 for w in self.base)

    def rank_profile(self) -> dict:
        return {w: matrix_rank_oracle(A) for w, A in self.values.items()}


def eps_cut_oracle(a: PositiveElementOracle, eps: float) -> PositiveElementOracle:
    values = {}
    for w, A in a.values.items():
        lam, V = np.linalg.eigh(A)
        cut = np.maximum(lam - eps, 0.0)
        values[w] = (V * cut) @ V.conj().T
    return PositiveElementOracle(a.base, a.size, values)


def cuntz_leq_oracle(a: PositiveElementOracle, b: PositiveElementOracle) -> bool:
    size = max(a.size, b.size)
    ra = a.pad_to(size).rank_profile()
    rb = b.pad_to(size).rank_profile()
    return all(ra[w] <= rb[w] for w in a.base)


def class_leq_oracle(ra: dict, rb: dict) -> bool:
    """The order of two rank profiles on one base."""
    return all(ra[w] <= rb[w] for w in ra)


def rc_witness_oracle(n: int, m: int, eta: PositiveElementOracle,
                      mu: PositiveElementOracle) -> bool:
    size = max(eta.size, mu.size)
    re = eta.pad_to(size).rank_profile()
    rm = mu.pad_to(size).rank_profile()
    if not all((n + 1) * re[w] + m * size <= n * rm[w] for w in eta.base):
        return True
    return all(re[w] <= rm[w] for w in eta.base)


# -- fibers of a projection, one word at a time --------------------------------


def phi_range_oracle(comps, proj_windows, bases, paths_by_level) -> tuple:
    """``(reason, preimage)`` of the projected-range check on the evaluated
    components ``comps``: each component tabulated on the hull of its window
    and ``proj_windows[l]``, its words walked in sorted order, and a word
    whose slice was seen before compared (``np.isclose`` order: the first
    value, then this one) with the value the slice got first; the factored
    tables are then checked against the gluing, word by word."""
    tables = []
    for l, comp in enumerate(comps):
        I = proj_windows[l]
        V = comp.window.hull(I)
        off = I.lo - V.lo
        table: dict = {}
        for w, M in sorted(matrix_values_on_oracle(comp, V).items()):
            key = w[off : off + I.length]
            if key in table:
                if not np.isclose(table[key], M, rtol=0.0,
                                  atol=ORACLE_STAGE_TOL).all():
                    return (f"component {l} depends on coordinates outside "
                            f"[{I.lo}, {I.hi}]", None)
            else:
                table[key] = M
        if set(table) != words_on_oracle(bases[l], I):
            raise ValueError(f"fibers of component {l} do not match its base")
        tables.append(table)
    projected = [MatrixTable(bases[l], proj_windows[l], comp.size, table)
                 for l, (comp, table) in enumerate(zip(comps, tables))]
    found = gluing_violations_oracle(projected, paths_by_level, ORACLE_STAGE_TOL)
    if found:
        l, mu, z = found[0]
        return (f"projected gluing fails at level {l}, mu={list(mu)}, "
                f"word {z!r}", None)
    return "", tuple(tables)


def approximate_oracle(f: Table, B, I, eps: float) -> tuple:
    """``(achievable, table)`` of the window-``I`` approximation of ``f``
    that vanishes on ``B``: over the sorted language of the hull window, the
    first word of each ``I``-slice gives the slice its value, zero where a
    word of ``B`` has that slice; ``table`` is ``None`` unless the largest
    ``abs`` of a difference is below ``eps``."""
    system = f.system
    hull = I.hull(f.window)
    if words_on_oracle(B, B.window):
        hull = hull.hull(B.window)
    f_table = values_on_oracle(f, hull)
    off_i = I.lo - hull.lo
    dead = {w[off_i : off_i + I.length] for w in words_on_oracle(B, hull)}
    projected = {}
    for w in sorted(system.language(hull.length)):
        key = w[off_i : off_i + I.length]
        if key not in projected:
            projected[key] = 0.0 if key in dead else f_table[w]
    err = max(abs(projected[w[off_i : off_i + I.length]] - f_table[w])
              for w in f_table)
    if err >= eps:
        return err, None
    return err, Table(system, I, {w: complex(v) for w, v in sorted(projected.items())})
