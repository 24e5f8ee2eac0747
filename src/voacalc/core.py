"""Shared exact-arithmetic substrate: partitions, integer square roots,
sparse vectors, fraction-free linear algebra (one elimination; lists of
sparse vectors reach it only through `independent`, `coordinates` and
`kernel`), integer q-series helpers, the verification-report builders
(`check` and `check_values` for one check, `report` for a suite) and the
error every input check raises.

Every coefficient in this package is an exact rational (`fractions.Fraction`);
no floats enter any computation.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    """Finite linear combination of hashable keys with exact coefficients.

    Zero coefficients are never stored. Instances behave as immutable values;
    arithmetic returns new vectors.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        d: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, c in items:
                _add_term(d, key, c if isinstance(c, Fraction) else Fraction(c))
        self._terms = d

    @staticmethod
    def _raw(d: dict) -> "SparseVec":
        v = SparseVec.__new__(SparseVec)
        v._terms = d
        return v

    @staticmethod
    def unit(key) -> "SparseVec":
        return SparseVec._raw({key: ONE})

    @staticmethod
    def of(x) -> "SparseVec":
        """x itself if it is a vector, else the unit vector of the key x."""
        return x if isinstance(x, SparseVec) else SparseVec.unit(x)

    @staticmethod
    def zero() -> "SparseVec":
        return SparseVec._raw({})

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator:
        return iter(self._terms)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        d = dict(self._terms)
        _accumulate(d, other._terms, ONE)
        return SparseVec._raw(d)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        d = dict(self._terms)
        _accumulate(d, other._terms, -ONE)
        return SparseVec._raw(d)

    def scaled(self, factor: Fraction) -> "SparseVec":
        if not factor:
            return SparseVec._raw({})
        return SparseVec._raw({k: c * factor for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "SparseVec(0)"
        parts = [f"{c}*{k}" for k, c in sorted(self._terms.items(), key=lambda kv: repr(kv[0]))]
        return "SparseVec(" + " + ".join(parts) + ")"


def _add_term(d: dict, key, c: Fraction) -> None:
    acc = d.get(key)
    if acc is None:
        if c:
            d[key] = c
    else:
        acc = acc + c
        if acc:
            d[key] = acc
        else:
            del d[key]


def _accumulate(dst: dict, src: Mapping, factor: Fraction) -> None:
    if not factor:
        return
    for key, c in src.items():
        _add_term(dst, key, c * factor)


# ---------------------------------------------------------------------------
# exact linear algebra (fraction-free Bareiss elimination)

def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (row space, null space
    and rank are unchanged by nonzero row scaling)."""
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _bareiss_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination.

    Returns (echelon rows over the integers, pivot column list). Pivoting is
    deterministic: leftmost nonzero column, first nonzero row.
    """
    m = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][col]
        for i in range(r + 1, nrows):
            mi = m[i]
            mr = m[r]
            f = mi[col]
            for j in range(col, ncols):
                mi[j] = (p * mi[j] - f * mr[j]) // prev
        prev = p
        pivots.append(col)
        r += 1
    return m[:r], pivots


# p = 2^61 - 1, a Mersenne prime: the modulus of the rank certificate
_PRIME = (1 << 61) - 1

# how many `rank` calls each path answered: "mod_p" (certified full rank) or
# "bareiss" (the exact fallback); a count that nothing in the package reads
rank_paths: Counter = Counter()


def _rank_mod_p(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over GF(_PRIME) of the `_integer_rows` of the matrix: a lower
    bound on its rational rank, since a minor that is nonzero mod p is
    nonzero."""
    m = [[x % _PRIME for x in row] for row in _integer_rows(rows)]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        mr = m[r][col:]
        inv = pow(mr[0], -1, _PRIME)
        for i in range(r + 1, nrows):
            f = m[i][col] * inv % _PRIME
            if f:
                m[i][col:] = [(x - f * y) % _PRIME for x, y in zip(m[i][col:], mr)]
        r += 1
    return r


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of an exact rational matrix.

    The rank mod p = 2^61 - 1 is a lower bound on the rational rank, so when
    it is min(rows, cols) it is the rank (path "mod_p" of `rank_paths`).
    Otherwise the answer comes from the exact Bareiss elimination ("bareiss"):
    rank-deficient matrices pay for both."""
    if not rows or not rows[0]:
        return 0
    r = _rank_mod_p(rows)
    if r == min(len(rows), len(rows[0])):
        rank_paths["mod_p"] += 1
        return r
    rank_paths["bareiss"] += 1
    _, pivots = _bareiss_echelon(rows)
    return len(pivots)


def null_space(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Deterministic exact basis of {x : rows . x = 0}.

    One basis vector per free column, in ascending column order, with the free
    coordinate set to 1 and remaining free coordinates 0.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis: list[list[Fraction]] = []
    for f in free_cols:
        x = [ZERO] * ncols
        x[f] = ONE
        for i in range(len(pivots) - 1, -1, -1):
            col = pivots[i]
            row = ech[i]
            s = ZERO
            for j in range(col + 1, ncols):
                if x[j]:
                    s += Fraction(row[j]) * x[j]
            x[col] = -s / row[col]
        basis.append(x)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of rows . x = rhs, or None if inconsistent.

    Free coordinates are set to 0 (deterministic): the solution is the
    null_space vector of the free column -rhs of [rows | -rhs]. If that
    column is a pivot, every kernel vector ends in 0 and there is none.
    """
    if not rows:
        return None
    kernel = null_space([list(row) + [-b] for row, b in zip(rows, rhs)])
    if not kernel or not kernel[-1][-1]:
        return None
    return kernel[-1][:-1]


def _columns(vectors: Sequence[SparseVec]) -> list[list[Fraction]]:
    """The matrix whose columns are the vectors: one row per key of their
    supports, in first-appearance order. Pivot columns and kernels do not
    depend on the row order."""
    keys = dict.fromkeys(key for v in vectors for key in v.keys())
    return [[v.coeff(key) for v in vectors] for key in keys]


def independent(vectors: Sequence[SparseVec]) -> list[int]:
    """Indices of the first maximal linearly independent subsequence of the
    vectors: the pivot columns of their matrix. Zero vectors are never kept."""
    return _bareiss_echelon(_columns(vectors))[1]


def coordinates(vectors: Sequence[SparseVec], target: SparseVec) -> list[Fraction] | None:
    """The `solve` solution x of sum_i x_i vectors[i] = target (0 off the
    independent subsequence), or None if target is not in their span."""
    rows = _columns([*vectors, target]) or [[ZERO] * (len(vectors) + 1)]
    return solve([row[:-1] for row in rows], [row[-1] for row in rows])


def kernel(basis: Sequence, maps: Sequence[Callable[..., SparseVec]]) -> list[SparseVec]:
    """The null_space basis of the joint kernel of linear maps on the span of
    the basis keys, each map given as a function of one key. Each vector is
    normalized_integer_vector under the basis order."""
    rows = [row for f in maps for row in _columns([f(b) for b in basis])]
    index = {b: i for i, b in enumerate(basis)}
    return [normalized_integer_vector(SparseVec(zip(basis, coords)), index.__getitem__)
            for coords in null_space(rows or [[ZERO] * len(basis)])]


def normalized_integer_vector(v: SparseVec, key_order) -> SparseVec:
    """Scale v so all coefficients are coprime integers and the coefficient of
    the smallest key under key_order is positive. Deterministic representative
    of the line spanned by v."""
    if v.is_zero():
        return v
    denom_lcm = math.lcm(*(c.denominator for _, c in v.items()))
    factor = Fraction(denom_lcm, math.gcd(*(int(c * denom_lcm) for _, c in v.items())))
    lead_key = min(v.keys(), key=key_order)
    if v.coeff(lead_key) < 0:
        factor = -factor
    return v.scaled(factor)


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
