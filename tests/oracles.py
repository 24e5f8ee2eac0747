"""Independent reference implementations used only by the tests.

These deliberately use different algorithms from the package (global
term-rewriting instead of head recursion, plain Gaussian elimination instead
of fraction-free elimination, direct enumeration instead of closed forms) so
that agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

from fractions import Fraction


# -- naive Virasoro straightening by term rewriting ---------------------------


def straighten_words(words: dict, c, h, vacuum: bool = False) -> dict:
    """Normal-order a combination of mode words acting on the lowest-weight
    vector.  `words` maps tuples of integer modes (leftmost applied last) to
    coefficients; the result maps descending partition tuples to coefficients.

    Rewrites the leftmost inversion one step at a time until every surviving
    word is an ascending tuple of creation modes.
    """
    c, h = Fraction(c), Fraction(h)
    floor = -2 if vacuum else -1
    pending = {tuple(word): Fraction(x) for word, x in words.items()}
    result: dict[tuple, Fraction] = {}

    def add(d, key, val):
        val = d.get(key, Fraction(0)) + val
        if val:
            d[key] = val
        else:
            d.pop(key, None)

    while pending:
        word, coef = pending.popitem()
        if not word:
            add(result, (), coef)
            continue
        last = word[-1]
        if last > floor:
            # the rightmost operator hits the lowest-weight vector
            if last == 0 and not vacuum:
                add(pending, word[:-1], coef * h)
            # otherwise annihilates (includes L(-1) on the vacuum)
            continue
        idx = next((i for i in range(len(word) - 1)
                    if word[i] > word[i + 1]), None)
        if idx is None:
            add(result, tuple(sorted((-m for m in word), reverse=True)), coef)
            continue
        m, n = word[idx], word[idx + 1]
        add(pending, word[:idx] + (n, m) + word[idx + 2:], coef)
        add(pending, word[:idx] + (m + n,) + word[idx + 2:],
            coef * (m - n))
        if m + n == 0:
            add(pending, word[:idx] + word[idx + 2:],
                coef * Fraction(m ** 3 - m, 12) * c)
    return result


def apply_mode(mode: int, vec: dict, c, h, vacuum: bool = False) -> dict:
    """One Virasoro mode applied to a dict of partition monomials."""
    words = {}
    for partition, coef in vec.items():
        word = (mode,) + tuple(-p for p in partition)
        words[word] = words.get(word, Fraction(0)) + coef
    return straighten_words(words, c, h, vacuum)


def pair(u_partition, v_partition, c, h, vacuum: bool = False) -> Fraction:
    """Contravariant form of two basis monomials."""
    word = tuple(reversed([p for p in u_partition]))  # ascending positives
    words = {tuple(word) + tuple(-p for p in v_partition): Fraction(1)}
    return straighten_words(words, c, h, vacuum).get((), Fraction(0))


# -- brute-force partitions and series ----------------------------------------


def brute_partitions(n: int, min_part: int = 1) -> set:
    """All partitions of n with parts >= min_part, as descending tuples."""
    if n == 0:
        return {()}
    out = set()
    for first in range(min_part, n + 1):
        for rest in brute_partitions(n - first, first):
            out.add(tuple(sorted((first,) + rest, reverse=True)))
    return out


def product_series(factors, cutoff: int) -> list[int]:
    """Coefficients of prod_i 1/(1-q^{f}) over the given factor multiset,
    computed by repeated naive convolution."""
    series = [1] + [0] * cutoff
    for f in factors:
        out = series[:]
        for i in range(f, cutoff + 1):
            out[i] += out[i - f]
        series = out
    return series


# -- plain Gaussian elimination ------------------------------------------------


def gauss_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def independent_subsequence(vectors) -> list[int]:
    """Indices of the first maximal linearly independent subsequence: keep a
    vector exactly when appending it raises the rank of those kept."""
    kept: list = []
    indices = []
    for i, v in enumerate(vectors):
        if gauss_rank(kept + [list(v)]) > len(kept):
            kept.append(list(v))
            indices.append(i)
    return indices
