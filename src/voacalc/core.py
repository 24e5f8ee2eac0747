"""Shared exact-arithmetic substrate: partitions, integer square roots,
sparse vectors, exact linear algebra, integer q-series helpers, the
verification-report builders (`check` and `check_values` for one check,
`report` for a suite) and the error every input check raises.

The linear algebra is one elimination of sparse integer rows mod primes,
drawn until its answer is certified exactly. Mod each prime the rows are
packed into ints, one slot per column, a forward pass brings them to
echelon form, and a back-substitution computes only its free-column
entries, all the certificate reads (none at full rank). A dense
rational matrix reaches it through `rank`, lists of sparse vectors through
`independent`, `solve` (and `coordinates`, its second half) and `kernel`;
each row is scaled to integers once, by `_integer_row`, from (column, num,
den) triples.

Every coefficient is exact, and a vector is ints over one denominator: a
`SparseVec` stores the pair ({key: int}, den) that `_int_sum` returns when
it adds int vectors over one lcm, as do the straightening memo values and
`vertex_mode`; the Gram rows are ints each over its own denominator.
`SparseVec.items` and `coeff` give `fractions.Fraction`s, as do `coordinates`
and the forms. No floats enter any computation.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class InputError(ValueError):
    """An argument outside what a function accepts; the CLI reports it as a
    usage error (exit 2)."""


def rational(text: str) -> Fraction:
    """Fraction(text), with unreadable text or a zero denominator as
    InputError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"expected a rational number, got {text!r}") from exc


# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partitions(n: int, min_part: int = 1, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts in [min_part, max_part], as descending
    tuples, ordered descending-lexicographically (largest first part first).

    partitions(0) == ((),); n < 0 gives no partitions.
    """
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    out: list[tuple[int, ...]] = []
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in partitions(n - first, min_part, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partition_count(n: int, min_part: int = 1, max_part: int | None = None) -> int:
    """Number of partitions of n with parts in [min_part, max_part]:
    len(partitions(n, min_part, max_part)), counted without listing them."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    top = n if max_part is None else min(n, max_part)
    return sum(partition_count(n - first, min_part, first)
               for first in range(min_part, top + 1))


def square_root(x) -> int | None:
    """The integer r >= 0 with r^2 = x, or None if x is not the square of an
    integer."""
    x = Fraction(x)
    if x < 0 or x.denominator != 1:
        return None
    r = math.isqrt(x.numerator)
    return r if r * r == x.numerator else None


# ---------------------------------------------------------------------------
# sparse vectors


class SparseVec:
    """Finite linear combination of hashable keys with exact rational
    coefficients, stored as the pair ({key: nonzero int}, den): the
    coefficient of a key is its int over den > 0, and den shares no factor
    with all the ints ({} is over 1), so equal vectors store equal pairs.
    The pair is what `_int_sum` returns; `items` and `coeff` give Fractions.
    Instances behave as immutable values; arithmetic returns new vectors.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        """The vector of (key, coefficient) pairs, or of a {key: coefficient}
        map: coefficients are anything `Fraction` takes, and the
        coefficients of a repeated key add up."""
        pieces = []
        if terms:
            for key, c in terms.items() if isinstance(terms, Mapping) else terms:
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                pieces.append((c.numerator, c.denominator, {key: 1}))
        self._ints, self._den = _int_sum(pieces)

    @staticmethod
    def _raw(ints: dict, den: int) -> "SparseVec":
        """The vector of an `_int_sum` pair, taken as it is."""
        v = SparseVec.__new__(SparseVec)
        v._ints, v._den = ints, den
        return v

    @staticmethod
    def unit(key) -> "SparseVec":
        return SparseVec._raw({key: 1}, 1)

    @staticmethod
    def of(x) -> "SparseVec":
        """x itself if it is a vector, else the unit vector of the key x."""
        return x if isinstance(x, SparseVec) else SparseVec.unit(x)

    @staticmethod
    def zero() -> "SparseVec":
        return SparseVec._raw({}, 1)

    def items(self) -> list[tuple]:
        """(key, Fraction coefficient) pairs."""
        den = self._den
        return [(key, Fraction(x, den)) for key, x in self._ints.items()]

    def keys(self):
        return self._ints.keys()

    def coeff(self, key) -> Fraction:
        return Fraction(self._ints.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._ints

    def __len__(self) -> int:
        return len(self._ints)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return SparseVec._raw(*_int_sum([(1, self._den, self._ints),
                                         (1, other._den, other._ints)]))

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return SparseVec._raw(*_int_sum([(1, self._den, self._ints),
                                         (-1, other._den, other._ints)]))

    def scaled(self, factor: int | Fraction) -> "SparseVec":
        return SparseVec._raw(*_int_sum([(factor.numerator, factor.denominator * self._den,
                                          self._ints)]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseVec) and self._den == other._den
                and self._ints == other._ints)

    def __repr__(self) -> str:
        if not self._ints:
            return "SparseVec(0)"
        parts = [f"{c}*{k}" for k, c in sorted(self.items(), key=lambda kv: repr(kv[0]))]
        return "SparseVec(" + " + ".join(parts) + ")"


def _int_sum(pieces: list[tuple[int, int, Mapping]]) -> tuple[dict, int]:
    """The sum of the pieces (num, den, {key: int}), each standing for
    num / den times its ints, as ({key: int}, D): the pieces meet over the
    lcm of their dens, zero sums are dropped, and D > 0 is divided down
    until it shares no factor with all the ints ({} is over 1)."""
    if len(pieces) == 1:
        (num, den, ints), = pieces
        total = {key: num * x for key, x in ints.items()}
    else:
        den = math.lcm(*(d for _, d, _ in pieces))
        total = {}
        get = total.get
        for num, d, ints in pieces:
            c = num * (den // d)
            for key, x in ints.items():
                total[key] = get(key, 0) + c * x
    g = math.gcd(den, *total.values())
    if g > 1:
        return {key: x // g for key, x in total.items() if x}, den // g
    return {key: x for key, x in total.items() if x}, den


# ---------------------------------------------------------------------------
# exact linear algebra (elimination mod primes, certified exactly)

def _integer_row(entries: Iterable[tuple[int, int, int]]) -> dict[int, int]:
    """A rational row given by (column, num, den) triples, each entry
    num / den, as {column: int} over its nonzero entries, scaled by the lcm
    of their dens (row space, null space and rank are unchanged by nonzero
    row scaling)."""
    row = [entry for entry in entries if entry[1]]
    scale = math.lcm(*(d for _, _, d in row))
    return {j: n * (scale // d) for j, n, d in row}


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2 ... 37, which no composite below
    3.3 * 10^24 passes."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The moduli of the certified elimination: the i-th prime below 2^61,
    counting down from the Mersenne prime 2^61 - 1."""
    p = 1 << 61
    for _ in range(i + 1):
        p -= 1
        while not _is_prime(p):
            p -= 1
    return p


# how the calls of `_eliminate` ended, all at its one return: "mod_p" (a
# pivot in every column, so the certificate is empty) or "kernel" (the kernel
# basis rebuilt from the primes satisfies M.x = 0 exactly); and under
# "primes" the eliminations mod a prime they ran. A count that nothing in
# the package reads.
rank_paths: Counter = Counter()


def _reduced(v: int, col: int, rows: dict[int, int], p: int, width: int
             ) -> list[tuple[int, int]]:
    """The (column, nonzero residue mod p) pairs, in ascending columns, of
    the packed row v (slot k, the bits k·width up, holds column col + k)
    after each slot in a column of rows is cleared by that row: rows maps a
    column c to the row that is 1 at c, packed from c + 1.

    Each step reads the low slot or, if it is 0, finds the next nonzero one
    by the lowest set bit, and shifts v past it. A slot at a column of rows
    with residue x adds p - x times the row, one multiply-add of ints. If every slot of v and of the rows is
    below p, a slot stays a nonnegative sum of one residue and one product
    below (p - 1)^2 per row met, so it is below 2^width (see `_echelon_mod`)
    and no carry crosses a slot."""
    mask = (1 << width) - 1
    out = []
    while v:
        x = v & mask
        if not x:
            k = ((v & -v).bit_length() - 1) // width
            col += k
            v >>= k * width
            x = v & mask
        v >>= width
        x %= p
        if x:
            row = rows.get(col)
            if row is None:
                out.append((col, x))
            else:
                v += (p - x) * row
        col += 1
    return out


def _echelon_mod(rows: list[dict[int, int]], ncols: int, p: int
                 ) -> tuple[list[int], dict[int, dict[int, int]]]:
    """The reduced row echelon form mod the prime p of the integer matrix
    with the given sparse rows, as (pivots, free): the pivot columns in
    ascending order, and {pivot: {free column: nonzero residue}}, each
    row's entries other than the 1 at its pivot (empty at full rank).

    Each row is one int with a slot of width = 2·bitlen(p) + bitlen(ncols
    + 1) bits per column, its residues summed unreduced in the slots (see
    `_reduced`): fewer than ncols rows are met, so a slot stays below
    (ncols + 1)·p^2 <= 2^width. A forward pass inserts the rows one at a
    time, so the pivot columns are the leftmost independent ones mod p:
    each row is reduced by the stored rows at its pivots from left to
    right, and the first residue it keeps is its pivot. Its later residues,
    divided by that one, are stored packed from the pivot + 1: 0 at every
    pivot stored before it, and never changed again. With a pivot in every
    column the form is the identity. Otherwise one back-substitution, from
    the last pivot to the first, reduces each stored row by the finished
    rows right of its pivot to its entries in the free columns.
    """
    width = 2 * p.bit_length() + (ncols + 1).bit_length()
    tails: dict[int, int] = {}  # pivot -> its stored row right of the 1
    for row in rows:
        rest = _reduced(sum(x % p << j * width for j, x in row.items()), 0, tails, p, width)
        if rest:
            (lead, x), *rest = rest
            inv = pow(x, -1, p)
            tails[lead] = sum(y * inv % p << (j - lead - 1) * width for j, y in rest)
            if len(tails) == ncols:
                return list(range(ncols)), {}
    pivots = sorted(tails)
    free: dict[int, dict[int, int]] = {}  # pivot -> its row in the free columns
    done: dict[int, int] = {}  # the same rows, packed as in tails
    for c in reversed(pivots):
        rest = _reduced(tails[c], c + 1, done, p, width)
        free[c] = dict(rest)
        done[c] = sum(y << (j - c - 1) * width for j, y in rest)
    return pivots, free


def _rationals(residues: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Numerators and a common denominator of rationals n/d congruent to the
    residues, each found with |n|, d <= sqrt(modulus/2) by the extended
    Euclidean algorithm (rational reconstruction), or None if one has none.
    The denominator so far is tried first, so most entries cost a product."""
    bound = math.isqrt(modulus >> 1)
    nums: list[int] = []
    den = 1
    for a in residues:
        n = a * den % modulus
        if n > bound:
            n -= modulus
        if n < -bound:
            r0, r1, s0, s1 = modulus, n + modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            if s1 < 0:
                r1, s1 = -r1, -s1
            nums = [x * s1 for x in nums]
            den *= s1
            n = r1
        nums.append(n)
    return nums, den


def _exact_kernel(free: list[int], pivots: list[int], residues: list[list[int]],
                  modulus: int) -> list[list[tuple[int, int]]] | None:
    """The kernel vectors whose pivot coordinates are the residues mod
    modulus read back as rationals (free column f at 1, the other free
    columns at 0), each scaled by its common denominator to the (column,
    integer) pairs of its support in ascending columns, f last; or None if
    one does not read back."""
    vectors = []
    for f, res in zip(free, residues):
        got = _rationals(res, modulus)
        if got is None:
            return None
        nums, den = got
        vectors.append([(c, n) for c, n in zip(pivots, nums) if n] + [(f, den)])
    return vectors


def _misses(vectors: list[list[tuple[int, int]]], rows: list[dict[int, int]]) -> bool:
    """Whether some sparse integer row is not 0 on some vector, in exact
    arithmetic."""
    return any(sum(row.get(j, 0) * y for j, y in v) for row in rows for v in vectors)


def _eliminate(rows: Sequence[dict[int, int]], ncols: int
               ) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The pivot columns (leftmost first) and the `_exact_kernel` vectors of
    the integer matrix with ncols columns and the given rows, each a dict
    {column: nonzero int} (an empty dict is a zero row), from the pivots and
    free-column entries of its `_echelon_mod` forms mod the primes `_prime(i)`.

    Every prime eliminates every row. Each free column f mod p gives the
    kernel vector with x_f = 1, the other free coordinates 0 and the rest on
    pivots left of f. These are combined over the primes by the Chinese
    remainder theorem and read back as rationals, and taken only once all of
    them satisfy M.x = 0 exactly. Then each f depends on the columns left of
    it over Q, and n - r_p independent kernel vectors bound the rank by r_p,
    which a minor nonzero mod p bounds from below: the free columns and
    kernel vectors are those of exact elimination over Q.

    One return ends the loop, once the certificate holds (at once with a pivot
    in every column: an empty certificate). A prime with other pivot columns
    than the one before starts the residues again. With h the sum over the rows
    of the bit lengths of the largest |entry| and the length, 2^h bounds every
    minor of M (Hadamard). Every prime is above 2^60. At most h // 60 give
    other pivots than Q, as they divide one nonzero minor; they split the rest
    into at most h // 60 + 1 runs, and a run with Q's pivots reads back the
    kernel entries, ratios of minors, within (2h+1) // 60 + 1 primes. Only a
    fault is uncertified after the product of the two counts: ArithmeticError.
    """
    # the echelon form does not depend on the order of the rows; taking
    # those that start furthest right first keeps the rows short
    m = sorted(filter(None, rows), key=lambda row: -min(row))
    h = sum(max(map(abs, row.values())).bit_length() + len(row).bit_length() for row in m)
    pivots = None
    for i in range((h // 60 + 1) * ((2 * h + 1) // 60 + 1)):
        rank_paths["primes"] += 1
        p = _prime(i)
        got, entries = _echelon_mod(m, ncols, p)
        if got != pivots:
            pivots = got
            free = sorted(set(range(ncols)).difference(pivots))
            residues = [[0] * bisect(pivots, f) for f in free]
            modulus = 1
        step = pow(modulus, -1, p)
        for f, res in zip(free, residues):
            for k, c in enumerate(pivots[:len(res)]):
                res[k] += modulus * ((-entries[c].get(f, 0) - res[k]) * step % p)
        modulus *= p
        vectors = _exact_kernel(free, pivots, residues, modulus)
        if vectors is not None and not _misses(vectors, m):
            rank_paths["kernel" if free else "mod_p"] += 1
            return pivots, vectors
    raise ArithmeticError(f"no certificate within the cap of primes ({i + 1})")


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of an exact rational matrix, its entries `int` or `Fraction`:
    the number of pivot columns of `_eliminate`, which returns at the first
    prime with a pivot in every column and otherwise certifies the rank by
    the exact kernel. Rows of unequal length and other entries are
    InputError."""
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(row) != ncols or not all(isinstance(x, (int, Fraction)) for x in row)
           for row in rows):
        raise InputError("rank takes rows of equal length with int or Fraction entries")
    m = [_integer_row((j, x.numerator, x.denominator) for j, x in enumerate(row))
         for row in rows]
    return len(_eliminate(m, ncols)[0])


def _columns(vectors: Sequence[SparseVec]) -> list[dict[int, int]]:
    """The `_integer_row`s of the matrix whose columns are the vectors: one
    row per key of their supports, in first-appearance order, each entry an
    int of a vector over its den. Pivot columns and kernels do not depend
    on the row order."""
    rows: dict = {}
    for j, v in enumerate(vectors):
        den = v._den
        for key, x in v._ints.items():
            rows.setdefault(key, []).append((j, x, den))
    return [_integer_row(entries) for entries in rows.values()]


def independent(vectors: Sequence[SparseVec]) -> list[int]:
    """Indices of the first maximal linearly independent subsequence of the
    vectors: the pivot columns of their matrix. Zero vectors are never kept."""
    return _eliminate(_columns(vectors), len(vectors))[0]


def solve(vectors: Sequence[SparseVec], target: SparseVec
          ) -> tuple[list[int], list[Fraction] | None]:
    """`independent(vectors)` and `coordinates(vectors, target)` from one
    elimination of [vectors | -target]: its pivot columns left of the last,
    and the kernel vector of the last column, or None if that is a pivot."""
    n = len(vectors)
    pivots, basis = _eliminate(_columns([*vectors, target.scaled(-1)]), n + 1)
    kept = [c for c in pivots if c < n]
    if not basis or basis[-1][-1][0] != n:
        return kept, None
    *pairs, (_, den) = basis[-1]
    x = [ZERO] * n
    for c, num in pairs:
        x[c] = Fraction(num, den)
    return kept, x


def coordinates(vectors: Sequence[SparseVec], target: SparseVec) -> list[Fraction] | None:
    """The x with sum_i x_i vectors[i] = target, 0 off the independent
    subsequence: the kernel vector of the free last column of
    [vectors | -target]. None if target is not in their span, that is, if
    the last column is a pivot."""
    return solve(vectors, target)[1]


def kernel(basis: Sequence, maps: Sequence[Callable[..., SparseVec]]) -> list[SparseVec]:
    """A basis of the joint kernel of linear maps on the span of the basis
    keys, each map given as a function of one key: the `_eliminate` kernel
    vectors, one per free column in ascending order. Each is scaled to
    coprime integer coefficients, the first in basis order positive: a
    deterministic representative of its line."""
    rows = [row for f in maps for row in _columns([f(b) for b in basis])]
    out = []
    for v in _eliminate(rows, len(basis))[1]:
        g = math.gcd(*(n for _, n in v)) * (1 if v[0][1] > 0 else -1)
        out.append(SparseVec._raw({basis[c]: n // g for c, n in v}, 1))
    return out


# ---------------------------------------------------------------------------
# integer q-series (coefficient lists indexed by q^0 .. q^cutoff)


def series_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


# ---------------------------------------------------------------------------
# verification reports


def check(name, source, expected, computed, ok, **extra) -> dict:
    """One entry of a suite's "checks" list; `extra` keys follow "pass"."""
    entry = {"name": name, "source": source, "expected": expected,
             "computed": computed, "pass": bool(ok)}
    entry.update(extra)
    return entry


def check_values(name, source, expected, computed, **extra) -> dict:
    """A check of a computed list against an expected one: both written
    comma-joined ("(none)" when empty); it passes iff the lists are equal."""
    expected, computed = list(expected), list(computed)
    texts = (",".join(map(str, values)) or "(none)" for values in (expected, computed))
    return check(name, source, *texts, expected == computed, **extra)


def report(suite, params, checks, comparisons=None, **extra) -> dict:
    """A suite's report, keys in this order: "suite", "params", the `extra`
    keys, "checks", with `comparisons` "recorded_comparisons" and
    "recorded_mismatches" (the names of those that do not match), and
    "pass". Only the checks decide "pass"; recorded comparisons never do."""
    out = {"suite": suite, "params": params, **extra, "checks": checks}
    if comparisons is not None:
        out["recorded_comparisons"] = comparisons
        out["recorded_mismatches"] = [c["name"] for c in comparisons if not c["matches"]]
    out["pass"] = all(ch["pass"] for ch in checks)
    return out
