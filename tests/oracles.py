"""Independent reference implementations used only by the tests.

These deliberately use different algorithms from the package (global
term-rewriting instead of head recursion, plain Gaussian elimination instead
of fraction-free elimination, direct enumeration instead of closed forms or
recursions) so that agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


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


# -- charge-0 vertex modes by enumerating slot assignments ----------------------


def _binom(top: int, bot: int) -> int:
    """Binomial coefficient with arbitrary integer top, bot >= 0."""
    if bot < 0:
        return 0
    num = 1
    for t in range(bot):
        num *= top - t
    return num // factorial(bot)


def vertex_mode_by_slots(k: int, u, n: int, v) -> dict:
    """Mode u_n of Y(u, z) applied to v in the rank-one Fock space with
    (alpha, alpha) = 2k, for a charge-0 vector u.

    u and v map monomials (parts, charge) to coefficients (a dict or
    anything with .items()). Expands Y(u, z) as the normally ordered product
    of derivative fields and enumerates the modes of its factors: for
    u = alpha(-p_1)...alpha(-p_r) 1 it sums over assignments (m_1..m_r) with
    m_1 + ... + m_r = n + 1 - sum(p_i), slot i carrying
    (-1)^(p_i - 1) * binom(m_i + p_i - 1, p_i - 1).
    """
    out: dict = {}

    def _add_term(d, key, c):
        c = d.get(key, 0) + c
        if c:
            d[key] = c
        else:
            d.pop(key, None)

    def _mode_terms(uparts, target, parts, charge, coef, out):
        k2 = 2 * k
        charge_factor = k2 * charge
        counts0 = {}
        for p in parts:
            counts0[p] = counts0.get(p, 0) + 1

        def rec(i, rem, counts, capacity, factor, creators):
            if i == len(uparts):
                if rem != 0:
                    return
                remaining = []
                for val, cnt in counts.items():
                    remaining.extend([val] * cnt)
                new_parts = tuple(sorted(remaining + creators, reverse=True))
                _add_term(out, (new_parts, charge), factor)
                return
            p = uparts[i]
            exp = p - 1
            sign = -1 if exp % 2 else 1
            # annihilator slot: removes one existing part
            for val, cnt in counts.items():
                if not cnt:
                    continue
                b = _binom(val + exp, exp)
                if not b:
                    continue
                counts2 = dict(counts)
                counts2[val] = cnt - 1
                rec(i + 1, rem - val, counts2, capacity - val,
                    factor * sign * b * (k2 * val * cnt), creators)
            # zero slot: alpha(0) scales by 2k*charge
            if charge_factor:
                rec(i + 1, rem, counts, capacity,
                    factor * sign * charge_factor, creators)
            # creator slot: m <= -1; the rest can still reach rem - m only
            # if rem - m <= remaining annihilator capacity
            for m in range(rem - capacity, 0):
                b = _binom(m + exp, exp)
                if not b:
                    continue
                rec(i + 1, rem - m, counts, capacity,
                    factor * sign * b, creators + [-m])

        rec(0, target, counts0, sum(parts), coef, [])

    for (uparts, ucharge), cu in u.items():
        if ucharge != 0:
            raise ValueError("vertex_mode_by_slots needs a charge-0 operator vector")
        target = n + 1 - sum(uparts)
        for (parts, charge), cv in v.items():
            _mode_terms(uparts, target, parts, charge, Fraction(cu) * Fraction(cv), out)
    return out


# -- lattice vertex modes by commuting the operator past each oscillator -------


def lattice_vertex_mode_by_commutation(k: int, b, m: int, v) -> dict:
    """Mode (e^{b alpha})_(m) applied to v in the rank-one lattice space with
    (alpha, alpha) = 2k; v maps monomials (parts, charge) to coefficients (a
    dict or anything with .items()).

    Moves the operator right past one oscillator at a time by
    (e^b)_(m) a(-p) w' = a(-p) (e^b)_(m) w' - 2kb (e^b)_(m-p) w',
    which is [a(n), (e^b)_(m)] = 2kb (e^b)_(m+n), down to the exponential
    series on a bare ground state:
    (e^b)_(m) e^{c alpha} = sum over partitions lam of -m-1-2kbc of
    b^len(lam) / z_lam * a(-lam) e^{(b+c) alpha}, z_lam = prod_i i^{m_i} m_i!.
    """
    b = Fraction(b)
    out: dict = {}
    series: dict = {}
    memo: dict = {}

    def add(d, key, val):
        val = d.get(key, 0) + val
        if val:
            d[key] = val
        else:
            d.pop(key, None)

    def on_ground(mode, charge) -> dict:
        n = -mode - 1 - 2 * k * b * charge
        if n.denominator != 1 or n < 0:
            return {}
        n = int(n)
        if n not in series:
            series[n] = {}
            for lam in brute_partitions(n):
                z = 1
                for part in set(lam):
                    z *= part ** lam.count(part) * factorial(lam.count(part))
                series[n][lam] = b ** len(lam) / z
        return series[n]

    def on_monomial(mode, parts, charge) -> dict:
        """(e^b)_(mode) a(-parts) e^{charge alpha}, keyed by the output parts."""
        if not parts:
            return on_ground(mode, charge)
        key = (mode, parts, charge)
        if key not in memo:
            p, rest = parts[0], parts[1:]
            res: dict = {}
            for lam, x in on_monomial(mode, rest, charge).items():
                add(res, tuple(sorted(lam + (p,), reverse=True)), x)
            for lam, x in on_monomial(mode - p, rest, charge).items():
                add(res, lam, -2 * k * b * x)
            memo[key] = res
        return memo[key]

    for (parts, charge), cv in v.items():
        for lam, x in on_monomial(m, tuple(parts), Fraction(charge)).items():
            add(out, (lam, Fraction(charge) + b), Fraction(cv) * x)
    return out
