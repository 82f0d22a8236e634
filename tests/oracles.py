"""Independent brute-force oracles used to freeze expected values.

Nothing here imports the package's enumeration machinery: languages come from
factors of long iterated words, return times from scanning occurrence gaps.
The tower-check oracles are the pairwise definitions, written in clopen-set
algebra on the system they are given.
"""

from itertools import product

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
            window = top.window.hull(path.path_set.window)
            for idx, off in zip(path.mu, path.offsets):
                window = window.hull(components[idx].window.shift(off))
            for word in sorted(path.path_set.words_on(window)):
                want = _read(top, word, window.lo, 0)
                glued = np.zeros(want.shape, dtype=complex)
                pos = 0
                for idx, off in zip(path.mu, path.offsets):
                    block = _read(components[idx], word, window.lo, off)
                    k = block.shape[0]
                    glued[pos : pos + k, pos : pos + k] = block
                    pos += k
                if not np.allclose(want, glued, rtol=0.0, atol=tol):
                    found.append((l, path.mu, word))
    return found


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
