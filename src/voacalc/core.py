"""Shared exact-arithmetic substrate: partitions, sparse vectors,
fraction-free linear algebra, integer q-series helpers, the check entries
of verification reports and the error every input check raises.

Every coefficient in this package is an exact rational (`fractions.Fraction`);
no floats enter any computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

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
def partition_count(n: int, min_part: int = 1) -> int:
    """Number of partitions of n with parts >= min_part (1 for n == 0)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    for first in range(min_part, n + 1):
        total += _count_with_max(n - first, min_part, first)
    return total


@lru_cache(maxsize=None)
def _count_with_max(n: int, min_part: int, max_part: int) -> int:
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    for first in range(min_part, min(n, max_part) + 1):
        total += _count_with_max(n - first, min_part, first)
    return total


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
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    acc = d.get(key)
                    if acc is None:
                        d[key] = c
                    else:
                        acc = acc + c
                        if acc:
                            d[key] = acc
                        else:
                            del d[key]
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

    def __neg__(self) -> "SparseVec":
        return SparseVec._raw({k: -c for k, c in self._terms.items()})

    def scaled(self, factor: Fraction) -> "SparseVec":
        if not factor:
            return SparseVec._raw({})
        return SparseVec._raw({k: c * factor for k, c in self._terms.items()})

    def __mul__(self, factor) -> "SparseVec":
        return self.scaled(Fraction(factor))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def dense(self, basis: Sequence) -> list[Fraction]:
        """Coordinates against an ordered basis; every key must appear in it."""
        index = {key: i for i, key in enumerate(basis)}
        coords = [ZERO] * len(basis)
        for k, c in self._terms.items():
            coords[index[k]] = c
        return coords

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
        scale = 1
        for x in row:
            d = x.denominator
            if d != 1:
                g = _gcd(scale, d)
                scale = scale // g * d
        out.append([int(x * scale) for x in row])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of an exact rational matrix."""
    if not rows or not rows[0]:
        return 0
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

    Free coordinates are set to 0 (deterministic).
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    ech, pivots = _bareiss_echelon(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        row = ech[i]
        s = Fraction(row[ncols])
        for j in range(col + 1, ncols):
            if x[j]:
                s -= Fraction(row[j]) * x[j]
        x[col] = s / row[col]
    return x


def rows_from_vectors(vectors: Sequence[SparseVec], basis: Sequence) -> list[list[Fraction]]:
    return [v.dense(basis) for v in vectors]


def normalized_integer_vector(v: SparseVec, key_order) -> SparseVec:
    """Scale v so all coefficients are coprime integers and the coefficient of
    the smallest key under key_order is positive. Deterministic representative
    of the line spanned by v."""
    if v.is_zero():
        return v
    denom_lcm = 1
    for _, c in v.items():
        d = c.denominator
        g = _gcd(denom_lcm, d)
        denom_lcm = denom_lcm // g * d
    nums = [abs(int(c * denom_lcm)) for _, c in v.items()]
    g = 0
    for n in nums:
        g = _gcd(g, n)
    factor = Fraction(denom_lcm, g if g else 1)
    lead_key = min(v.keys(), key=key_order)
    if v.coeff(lead_key) < 0:
        factor = -factor
    return v.scaled(factor)


# ---------------------------------------------------------------------------
# integer q-series (coefficient lists indexed by q^0 .. q^cutoff)


def series_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def inverse_euler(cutoff: int) -> list[int]:
    """Coefficients of 1/phi(q) = prod_{m>=1} 1/(1-q^m): the partition numbers."""
    return [partition_count(n) for n in range(cutoff + 1)]


# ---------------------------------------------------------------------------
# verification reports


def check(name, source, expected, computed, ok, **extra) -> dict:
    """One entry of a suite's "checks" list; `extra` keys follow "pass"."""
    entry = {"name": name, "source": source, "expected": expected,
             "computed": computed, "pass": bool(ok)}
    entry.update(extra)
    return entry
