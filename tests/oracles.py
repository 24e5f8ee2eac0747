"""Independent reference implementations used only by the tests.

These deliberately use different algorithms from the package (global
term-rewriting instead of head recursion, Gauss-Jordan elimination over
Fraction instead of elimination mod primes, direct enumeration instead of
closed forms or recursions) so that agreement is meaningful evidence of
correctness.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm

from voacalc.core import SparseVec
from voacalc.w3 import DegenerateBlockError


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


# -- naive W3 straightening by term rewriting ----------------------------------


def straighten_w3_words(words: dict, c, lam=None, mu=None) -> dict:
    """Normal-order a combination of W3 mode words acting on the lowest-weight
    vector of the vacuum module (lam = mu = None) or of the Verma module with
    L_0, W_0 eigenvalues lam, mu.  `words` maps tuples of (gen, mode) letters
    (leftmost applied last) to coefficients; the result maps canonical
    (lparts, wparts) pairs to coefficients.

    Rewrites the leftmost inversion one step at a time with brackets read
    off the defining relations, expanding Lambda_p into L-words truncated by
    the weight of the word to its right, until every surviving word is a
    PBW word of creation modes: L before W, each in ascending mode.
    """
    c = Fraction(c)
    vacuum = lam is None and mu is None
    eigen = {"L": Fraction(lam or 0), "W": Fraction(mu or 0)}
    # creation modes: L(-n) for n >= 2 (vacuum) or 1, W(-n) for n >= 3 or 1
    floor = {"L": -2, "W": -3} if vacuum else {"L": -1, "W": -1}
    lambda_coef = Fraction(16) / (22 + 5 * c)
    pending: dict = {}
    result: dict = {}

    def add(d, key, val):
        val = d.get(key, Fraction(0)) + val
        if val:
            d[key] = val
        else:
            d.pop(key, None)

    def order(letter):
        gen, mode = letter
        return (mode > floor[gen], gen, mode)

    def bracket(x, y, tail):
        """[x, y] as a list of (letters, coefficient); tail is the word to
        the right, which bounds the Lambda sums."""
        (g, m), (h, n) = x, y
        p = m + n
        if g == h == "L":
            terms = [((("L", p),), Fraction(m - n))]
            if p == 0:
                terms.append(((), Fraction(m ** 3 - m, 12) * c))
        elif g == "L":
            terms = [((("W", p),), Fraction(2 * m - n))]
        elif h == "L":
            terms = [((("W", p),), Fraction(m - 2 * n))]
        else:
            coef = lambda_coef * (m - n)
            weight = -sum(mode for _, mode in tail)
            terms = [((("L", p),), (m - n) * (Fraction((p + 2) * (p + 3), 15)
                                              - Fraction((m + 2) * (n + 2), 6))
                      - coef * Fraction(3 * (p + 2) * (p + 3), 10))]
            terms += [((("L", -k), ("L", p + k)), coef) for k in range(2, weight - p + 1)]
            terms += [((("L", p - k), ("L", k)), coef) for k in range(-1, weight + 1)]
            if p == 0:
                terms.append(((), Fraction(m * (m * m - 1) * (m * m - 4), 360) * c))
        return terms

    # Each rewrite keeps or lowers (number of W letters, length), so taking
    # the words highest in that order first merges every copy of a word
    # before it is rewritten.
    queue: list = []

    def push(word, val):
        weight = 0
        for _, mode in reversed(word):
            weight -= mode
            if weight < 0:
                return  # a vector below the lowest weight is zero
        if word not in pending:
            keys = [order(x) for x in word]
            inversions = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1:])
            heapq.heappush(queue, (-sum(g == "W" for g, _ in word), -len(word),
                                   -inversions, word))
        add(pending, word, val)

    for word, x in words.items():
        push(tuple(word), Fraction(x))
    while queue:
        word = heapq.heappop(queue)[-1]
        if word not in pending:
            continue
        coef = pending.pop(word)
        if word and order(word[-1])[0]:
            # the rightmost mode is no creation mode: it hits the vector
            gen, mode = word[-1]
            if mode == 0 and eigen[gen]:
                push(word[:-1], coef * eigen[gen])
            continue
        idx = next((i for i in range(len(word) - 1)
                    if order(word[i]) > order(word[i + 1])), None)
        if idx is None:
            add(result, (tuple(-m for g, m in word if g == "L"),
                         tuple(-m for g, m in word if g == "W")), coef)
            continue
        head, tail = word[:idx], word[idx + 2:]
        push(head + (word[idx + 1], word[idx]) + tail, coef)
        for letters, x in bracket(word[idx], word[idx + 1], tail):
            if x:
                push(head + letters + tail, coef * x)
    return result


def w3_word(mono) -> tuple:
    """The (gen, mode) letters of a canonical W3 monomial."""
    lparts, wparts = mono
    return tuple(("L", -a) for a in lparts) + tuple(("W", -b) for b in wparts)


def w3_pair(u, v, c, lam=None, mu=None) -> Fraction:
    """Contravariant form of two W3 basis monomials."""
    adjoint = tuple((g, -m) for g, m in reversed(w3_word(u)))
    words = {adjoint + w3_word(v): Fraction(1)}
    return straighten_w3_words(words, c, lam, mu).get(((), ()), Fraction(0))


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


# -- the Kac determinant --------------------------------------------------------


def kac_weight(t, r: int, s: int) -> Fraction:
    """h_{r,s}(t) = (r^2-1)t/4 + (s^2-1)/(4t) - (rs-1)/2 at central charge
    c = 13 - 6(t + 1/t)."""
    t = Fraction(t)
    return Fraction(r * r - 1, 4) * t + Fraction(s * s - 1, 4) / t - Fraction(r * s - 1, 2)


def kac_product(t, h, n: int) -> Fraction:
    """prod_{rs <= n} (h - h_{r,s}(t))^p(n - rs): the Virasoro Verma Gram
    determinant at level n up to a factor that depends on n alone (Kac 1979;
    Feigin-Fuchs 1984)."""
    out = Fraction(1)
    for r in range(1, n + 1):
        for s in range(1, n // r + 1):
            out *= (Fraction(h) - kac_weight(t, r, s)) ** len(brute_partitions(n - r * s))
    return out


# -- Gram matrices entry by entry ----------------------------------------------


def gram_by_pairs(mod, w) -> list:
    """Gram matrix of a highest-weight module at weight w with one `pair`
    per entry, each straightening a whole mode word (the package builds the
    matrix from the matrices of the lower weights instead)."""
    units = mod.basis(w)
    return [[mod.pair(a, b) for b in units] for a in units]


def check_gram_ladder(make, top: int) -> None:
    """Asks fresh modules from `make()` for `gram` and `gram_rank` at the
    weights -1 .. top in ascending, descending and repeated order, and
    checks every answer against `gram_by_pairs` on a module of its own, that
    each module builds the basis of each weight once (counted through its
    `basis`), and that changing a returned matrix or one of its rows leaves
    the next answer as it was."""
    oracle = make()
    want = {w: gram_by_pairs(oracle, w) for w in range(-1, top + 1)}
    ranks = {w: gauss_rank(g) for w, g in want.items()}
    weights = list(range(-1, top + 1))
    for order in (weights, weights[::-1], [2, 2, top, 1, top, -1, 2]):
        module = make()
        built: dict = {}
        basis = module.basis
        module.basis = lambda w: built.update({w: built.get(w, 0) + 1}) or basis(w)
        for w in order:
            g = module.gram(w)
            assert g == want[w] and module.gram_rank(w) == ranks[w], (order, w)
            if g:
                g[0][-1] += 1
                g[-1].append(g[-1][0])
                g.pop(0)
        assert all(module.gram(w) == want[w] for w in order), order
        assert built == {w: 1 for w in range(1, top + 1)}, (order, built)


def decompose_by_pairs(mod, v, primaries) -> tuple[dict, SparseVec]:
    """W3Module.decompose with one `pair` per entry of each block's Gram
    matrix and of its right-hand side, each straightening a whole mode word,
    and a Gauss-Jordan solve (the package lowers by the adjoint modes and
    pairs once with the generator instead). Each block basis is a first
    maximal independent subsequence of the L_{-lambda} g found by
    Gauss-Jordan ranks; the projection does not depend on which."""
    weight = mod.vector_weight(v)
    units = mod.basis(weight)
    components = {}
    for label, g in [("vacuum", SparseVec.unit(mod.EMPTY))] + list(primaries):
        lams = sorted(brute_partitions(weight - mod.vector_weight(g)), reverse=True)
        span = [mod.apply_word([("L", -m) for m in lam], g) for lam in lams]
        keep = independent_subsequence([[x.coeff(u) for u in units] for x in span])
        block = [span[i] for i in keep]
        components[label] = SparseVec.zero()
        if not block:
            continue
        gram = [[mod.pair(a, b) for b in block] for a in block]
        if gauss_rank(gram) < len(block):
            raise DegenerateBlockError(f"block {label!r} is degenerate at weight {weight}")
        x = gauss_solve(gram, [mod.pair(a, v) for a in block])
        for xi, b in zip(x, block):
            components[label] = components[label] + b.scaled(xi)
    return components, v - sum(components.values(), SparseVec.zero())


# -- plain Gaussian elimination ------------------------------------------------


def gauss_echelon(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction:
    its nonzero rows and their pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        r = len(pivots)
        if r == len(mat):
            break
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
        pivots.append(col)
    return mat[:len(pivots)], pivots


def rref_mod(rows, ncols: int, p: int) -> dict:
    """The reduced row echelon form mod the prime p of the integer matrix
    with the given sparse rows ({column: int}), by Gauss-Jordan elimination
    column by column on dense lists of residues: {pivot column: {column:
    nonzero residue}}."""
    mat = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return {c: {j: x for j, x in enumerate(row) if x} for c, row in zip(pivots, mat)}


def gauss_rank(rows) -> int:
    return len(gauss_echelon(rows)[1])


def gauss_null_space(rows) -> list[list[Fraction]]:
    """One kernel vector per free column f, ascending: x_f = 1, the other
    free coordinates 0 and x_c = -R[i][f] at the pivot column c of row i of
    the reduced echelon form R."""
    reduced, pivots = gauss_echelon(rows)
    cols = len(rows[0])
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            x[c] = -row[f]
        basis.append(x)
    return basis


def gauss_solve(mat, rhs):
    """The solution of mat.x = rhs with x_c the last entry of row i of the
    reduced echelon form of [mat | rhs] at its pivot column c and 0 off the
    pivot columns, or None if the rhs column is a pivot."""
    reduced, pivots = gauss_echelon([list(row) + [b] for row, b in zip(mat, rhs)])
    if pivots and pivots[-1] == len(mat[0]):
        return None
    x = [Fraction(0)] * len(mat[0])
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return x


def primitive_integer_vector(x) -> list[Fraction]:
    """x scaled to coprime integers whose first nonzero entry is positive:
    the one such representative of the line through a nonzero x."""
    scale = lcm(*(c.denominator for c in x))
    ints = [c.numerator * (scale // c.denominator) for c in x]
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return [Fraction(c, g) for c in ints]


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Fraction
    with row swaps (the package eliminates mod primes)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        pivot = next((i for i in range(col, len(mat)) if mat[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / mat[col][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


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


# -- sparse vectors as plain {key: Fraction} dicts -----------------------------


def fraction_vector(pairs) -> dict:
    """The {key: nonzero Fraction} map of (key, coefficient) pairs, the
    coefficients of a repeated key added one Fraction at a time (the package
    stores a vector as ints over one denominator)."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}


def fraction_combination(*terms) -> dict:
    """sum of factor * vector over the (factor, {key: Fraction}) terms."""
    return fraction_vector((key, factor * c) for factor, vec in terms for key, c in vec.items())


def fraction_vector_repr(vec: dict) -> str:
    """How SparseVec writes the vector: its terms c*key ordered by repr(key)."""
    terms = [f"{c}*{key}" for key, c in sorted(vec.items(), key=lambda kc: repr(kc[0]))]
    return "SparseVec(" + (" + ".join(terms) or "0") + ")"


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
    (-1)^(p_i - 1) * binom(m_i + p_i - 1, p_i - 1). The slots multiply ints:
    with 2k*charge = num / q, every slot carries q except alpha(0), which
    carries num, and the sum over the assignments is divided by q^r and
    multiplied by the two coefficients once per pair of terms of u and v.
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
        zero = Fraction(k2 * charge)  # alpha(0) on the sector, num / q
        num, q = zero.numerator, zero.denominator
        counts0 = {}
        for p in parts:
            counts0[p] = counts0.get(p, 0) + 1
        ints: dict = {}  # new parts -> int over q^len(uparts)

        def rec(i, rem, counts, capacity, factor, creators):
            if i == len(uparts):
                if rem != 0:
                    return
                remaining = []
                for val, cnt in counts.items():
                    remaining.extend([val] * cnt)
                new_parts = tuple(sorted(remaining + creators, reverse=True))
                _add_term(ints, new_parts, factor)
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
                    factor * sign * b * k2 * val * cnt * q, creators)
            # zero slot: alpha(0) scales by 2k*charge = num / q
            if num:
                rec(i + 1, rem, counts, capacity, factor * sign * num, creators)
            # creator slot: m <= -1; the rest can still reach rem - m only
            # if rem - m <= remaining annihilator capacity
            for m in range(rem - capacity, 0):
                b = _binom(m + exp, exp)
                if not b:
                    continue
                rec(i + 1, rem - m, counts, capacity,
                    factor * sign * b * q, creators + [-m])

        rec(0, target, counts0, sum(parts), 1, [])
        scale = coef / q ** len(uparts)
        for new_parts, x in ints.items():
            _add_term(out, (new_parts, charge), scale * x)

    for (uparts, ucharge), cu in u.items():
        if ucharge != 0:
            raise ValueError("vertex_mode_by_slots needs a charge-0 operator vector")
        target = n + 1 - sum(uparts)
        for (parts, charge), cv in v.items():
            _mode_terms(uparts, target, parts, charge, Fraction(cu) * Fraction(cv), out)
    return out


# -- lattice vertex modes by commuting the operator past each oscillator -------


def bilinear_by_pairs(k: int, u, v) -> Fraction:
    """The contravariant form of the rank-one Fock space with (alpha, alpha)
    = 2k on u and v (maps of monomials (parts, charge) to coefficients, or
    anything with .items()), by scanning every pair of their terms."""
    total = Fraction(0)
    for (pu, cu), au in u.items():
        for (pv, cv), av in v.items():
            if cu + cv != 0 or pu != pv:
                continue
            norm = Fraction(1)
            for val in set(pu):
                mult = pu.count(val)
                norm *= (Fraction(2 * k * val) ** mult
                         * factorial(mult))
            total += au * av * norm
    return total


def _z(lam) -> int:
    """z_lam = prod_i i^(m_i) m_i! for the multiplicities m_i of the parts."""
    z = 1
    for part in set(lam):
        z *= part ** lam.count(part) * factorial(lam.count(part))
    return z


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
                series[n][lam] = b ** len(lam) / _z(lam)
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


# -- the lattice-operator kernel one Fraction term at a time -------------------


def lattice_by_terms(k: int, b, e0: int, n: int, parts: tuple) -> dict:
    """(e^{b alpha})_n on (parts, charge) with e0 = 2k*b*charge, as {new
    parts: coefficient}, one term per removal and partition.

    E^+(z) removes t of the mult copies of each part value with the factor
    C(mult, t) (-2kb)^t; E^-(z) then adds each partition lam of
    d = -n-1-e0+(weight removed) with the factor b^len(lam)/z_lam. With
    b = p/q and top the largest d, each term is an int over
    q^(len(parts)+top) top! (z_lam divides d!, which divides top!): the
    terms of a key are summed as ints and divided once."""
    b = Fraction(b)
    p, q = b.numerator, b.denominator
    top = -n - 1 - e0 + sum(parts)
    scale = len(parts) + top
    sums: dict = {}
    values = sorted(set(parts))
    for removed in product(*(range(parts.count(val) + 1) for val in values)):
        factor, kept, dplus = 1, [], 0
        for val, t in zip(values, removed):
            mult = parts.count(val)
            factor *= comb(mult, t) * (-2 * k * p) ** t
            kept += [val] * (mult - t)
            dplus += val * t
        d = -n - 1 - e0 + dplus
        for lam in (brute_partitions(d) if d >= 0 else ()):
            key = tuple(sorted(kept + list(lam), reverse=True))
            x = factor * p ** len(lam) * q ** (scale - sum(removed) - len(lam)) * factorial(top) // _z(lam)
            sums[key] = sums.get(key, 0) + x
    den = q ** scale * factorial(top) if top >= 0 else 1
    return {key: Fraction(x, den) for key, x in sums.items() if x}


def exp_series_by_recurrence(b, d: int) -> dict:
    """The weight-d terms S_d of exp(b sum_{p>=1} alpha(-p) z^p / p), as
    {lam: coefficient}, by the power-sum recurrence
    d S_d = b sum_{p=1}^{d} alpha(-p) S_{d-p}, S_0 = 1."""
    series = [{(): Fraction(1)}]
    for w in range(1, d + 1):
        s: dict = {}
        for p in range(1, w + 1):
            for mu, c in series[w - p].items():
                key = tuple(sorted(mu + (p,), reverse=True))
                s[key] = s.get(key, 0) + Fraction(b) * c / w
        series.append(s)
    return series[d]


# -- vertex modes by the iterate formula, one oscillator of u at a time --------


def vertex_mode_by_iterate(k: int, u, n: int, v) -> dict:
    """Mode u_n of Y(u, z) applied to v in the rank-one lattice space with
    (alpha, alpha) = 2k, for any u; u and v map monomials (parts, charge)
    to coefficients (a dict or anything with .items()).

    Peels one oscillator of u at a time by the iterate (normal-ordering)
    formula (Kac, Vertex Algebras for Beginners; Lepowsky-Li 2004)
        (a(-p)u')_(m) = sum_{j>=0} C(p+j-1, j) [a(-p-j) u'_(m+j)
                                               + (-1)^(p+1) u'_(m-p-j) a(j)],
    down to 1_(m) = delta_{m,-1} or to the lattice operator
    (e^{b alpha})_(m), taken from `lattice_by_terms`; a(0) acts on the
    charge c sector by 2kc. The creation sum stops where u'_(m+j) w has no
    room left: its part-sum |u'| + |w| - 2kbc - m - j - 1 must be >= 0.
    Fractions throughout, one term at a time."""
    out: dict = {}
    memo: dict = {}

    def add(d, key, val):
        val = d.get(key, 0) + val
        if val:
            d[key] = val
        else:
            d.pop(key, None)

    def mode(uparts, b, m, parts, charge) -> dict:
        """(a(-uparts) e^{b alpha})_(m) a(-parts) e^{charge alpha}, keyed by
        the output parts."""
        key = (uparts, b, m, parts, charge)
        if key in memo:
            return memo[key]
        res: dict = {}
        e0 = 2 * k * b * charge
        if not uparts:
            if b:
                res = lattice_by_terms(k, b, int(e0), m, parts)
            elif m == -1:
                res = {parts: Fraction(1)}
        else:
            p, rest = uparts[0], uparts[1:]
            for j in range(sum(rest) + sum(parts) - int(e0) - m):
                for lam, x in mode(rest, b, m + j, parts, charge).items():
                    add(res, tuple(sorted(lam + (p + j,), reverse=True)), comb(p + j - 1, j) * x)
            sign = (-1) ** (p + 1)
            for lam, x in mode(rest, b, m - p, parts, charge).items():
                add(res, lam, sign * 2 * k * charge * x)
            for j in set(parts):
                i = parts.index(j)
                factor = sign * comb(p + j - 1, j) * 2 * k * j * parts.count(j)
                for lam, x in mode(rest, b, m - p - j, parts[:i] + parts[i + 1:], charge).items():
                    add(res, lam, factor * x)
        memo[key] = res
        return res

    for (uparts, ucharge), cu in u.items():
        b = Fraction(ucharge)
        for (parts, charge), cv in v.items():
            if (2 * k * b * charge).denominator != 1:
                raise ValueError("2kb*charge must be an integer")
            for lam, x in mode(tuple(uparts), b, n, tuple(parts), Fraction(charge)).items():
                add(out, (lam, Fraction(charge) + b), Fraction(cu) * Fraction(cv) * x)
    return out
