"""Virasoro highest-weight modules with exact arithmetic.

Implements Verma modules V(c, h) and the vacuum quotient Vbar(c, 0) =
V(c, 0)/U(Vir)L_{-1}v over exact rationals: PBW bases, straightened L_n
action, the contravariant (Shapovalov) form, singular vectors and c = 1
character series. HighestWeightModule, which the W3 modules share, holds
what does not depend on the algebra: the one PBW straightening recursion,
the contravariant form, Gram matrices (int numerators over one
denominator per row, on a ladder the module keeps: each weight is built
once, from the ones below it by the adjoint of a monomial's first mode, and
summed only on and above the diagonal; `gram` makes Fractions at the weight
asked for, and `gram_rank` reads the numerators) and primary spaces (the
`core.kernel` of L_1 and L_2 on a graded piece). A module supplies its
basis, how a monomial splits off its first mode or takes a new one, its
lowest-weight eigenvalues and its brackets; [L_n, L_m] sits in the base.

The straightening runs in ints: each memo value is {monomial: int} over
one int denominator, the bracket constants and the lowest-weight
eigenvalues enter as int pairs (numerator, denominator), and the pieces of
a value meet over one lcm. `act` sums its terms the same way, with the
ints of its input vector over its den, and returns the pair as a
`SparseVec`; `_int_gram` reads the ints directly.

Conventions
-----------
* [L_m, L_n] = (m - n) L_{m+n} + delta_{m+n,0} (m^3 - m)/12 * c.
* A basis monomial is a descending tuple (m_1 >= ... >= m_s) standing for
  L_{-m_1} ... L_{-m_s} v; parts >= 1 for Verma, >= 2 for the vacuum quotient.
* The contravariant form takes L_n adjoint to L_{-n} and <v, v> = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .core import (
    InputError,
    SparseVec,
    _int_sum,
    check,
    check_values,
    kernel,
    partition_count,
    partitions,
    rank,
    report,
    square_root,
)

VirMonomial = tuple  # descending tuple of positive ints

NOTHING = ({}, 1)  # the straightened zero vector; never written to


def _scaled(pieces: list, value: tuple[dict, int], num: int, den: int = 1) -> None:
    """Add num / den times a straightened value to the pieces of a
    `core._int_sum`, unless it is zero."""
    ints, d = value
    if ints and num:
        pieces.append((num, den * d, ints))


def monomial_str(mono: VirMonomial) -> str:
    if not mono:
        return "1"
    return "".join(f"L({-m})" for m in mono)


class HighestWeightModule:
    """What a highest-weight module needs beyond the brackets of its algebra.

    A subclass calls this `__init__`, sets `_memos` and `_eigen` (per
    generator name: the memo dict of its straightened action and its
    eigenvalue on the lowest-weight vector, as an int pair (numerator,
    denominator > 0)) and supplies:

    * `basis(weight)` and its size `dim(weight)`;
    * `level(mono)`, the weight of a monomial above the lowest one;
    * `monomial_str(mono)` and `sort_key(mono)`, how `terms` writes and
      orders monomials;
    * `_first(mono)`: (gen, m, rest) when mono = gen_{-m} rest, or None for
      the lowest-weight monomial `EMPTY`;
    * `_prepend(gen, m, mono)`: the canonical monomial gen_{-m} mono, or None
      when gen_{-m} may not stand first;
    * `_bracket(pieces, gen, n, other, a, rest)`, which adds the pieces of
      [gen_n, other_{-a}] rest, straightened values times int constants, by
      `_scaled`. This class holds [L_n, L_{-a}].

    On that this class builds the one straightening recursion `_act`, the
    action on vectors and its rendering, the contravariant form with its
    Gram matrices, and primary spaces (through `core.kernel`).
    """

    EMPTY = ()

    def __init__(self):
        # the `_int_gram` ladder, per weight from 0: (basis index, N, d)
        self._ladder = [({self.EMPTY: 0}, [[1]], [1])]

    @classmethod
    def get(cls, *args, **kwargs):
        """The constructor: a new module with its own memo tables. It keeps
        this name because `bench/worker.py`, the README and the tests build
        modules through it."""
        return cls(*args, **kwargs)

    # -- straightening --------------------------------------------------------

    def _act(self, gen: str, n: int, mono) -> tuple[dict, int]:
        """gen_n on a canonical monomial, straightened: prepend gen_n when it
        may stand first, act by the eigenvalue on the lowest-weight vector,
        else gen_n X_{-a} rest = X_{-a} gen_n rest + [gen_n, X_{-a}] rest.

        The value is ({monomial: int}, den), the vector of the ints over the
        int den > 0, which shares no factor with all of them. Its pieces meet
        over one lcm, by `core._int_sum`."""
        key = (n, mono)
        memo = self._memos[gen]
        hit = memo.get(key)
        if hit is not None:
            return hit
        if n > self.level(mono):
            return NOTHING
        if n < 0 and (head := self._prepend(gen, -n, mono)) is not None:
            out = {head: 1}, 1
        elif (first := self._first(mono)) is None:
            num, den = self._eigen[gen]
            out = ({mono: num}, den) if n == 0 and num else NOTHING
        else:
            other, a, rest = first
            inner, den = self._act(gen, n, rest)
            pieces: list = []
            for mid, x in inner.items():
                ints, d = self._act(other, -a, mid)
                if ints:
                    pieces.append((x, den * d, ints))
            self._bracket(pieces, gen, n, other, a, rest)
            out = _int_sum(pieces)
        memo[key] = out
        return out

    def _bracket(self, pieces: list, gen: str, n: int, other: str, a: int, rest) -> None:
        """[L_n, L_{-a}] rest = (n + a) L_{n-a} rest + delta_{n,a} (n^3 - n)/12 c rest."""
        _scaled(pieces, self._act("L", n - a, rest), n + a)
        if n == a:
            _scaled(pieces, ({rest: 1}, 1), (n**3 - n) * self.c.numerator, 12 * self.c.denominator)

    # -- action on vectors -------------------------------------------------

    def act(self, gen: str, n: int, v) -> SparseVec:
        """Apply gen_n to a vector (or a single monomial), fully straightened:
        the straightened values of its monomials, times its ints, are summed
        over one lcm."""
        if gen not in self._memos:
            raise InputError(f"unknown generator {gen!r}")
        v = SparseVec.of(v)
        pieces: list = []
        for mono, x in v._ints.items():
            ints, den = self._act(gen, n, mono)
            if ints:
                pieces.append((x, v._den * den, ints))
        return SparseVec._raw(*_int_sum(pieces))

    def apply_word(self, word, v=None) -> SparseVec:
        """Apply a word of modes, rightmost first: [(g1, n1), ..., (gr, nr)]
        computes g1_{n1} ... gr_{nr} v (v defaults to the lowest-weight
        vector)."""
        v = SparseVec.of(self.EMPTY if v is None else v)
        for gen, n in reversed(list(word)):
            v = self.act(gen, n, v)
        return v

    def terms(self, v: SparseVec) -> dict[str, str]:
        """v as an ordered {monomial string: coefficient string} map."""
        monos = sorted(v.keys(), key=self.sort_key)
        return {self.monomial_str(m): str(v.coeff(m)) for m in monos}

    # -- contravariant form -------------------------------------------------

    def pair(self, u, v) -> Fraction:
        """Contravariant form <u, v>: each mode is adjoint to its negative,
        and <v, v> = 1 on the lowest-weight vector. Each monomial of u lowers
        v, and the lowered vectors, times the ints of u, meet over one lcm."""
        u, v = SparseVec.of(u), SparseVec.of(v)
        pieces: list = []
        for mono, x in u._ints.items():
            w = v
            # the creation modes gen_{-m} of mono, left to right: their
            # adjoints gen_m act in this order in the form
            while not w.is_zero() and (first := self._first(mono)) is not None:
                gen, part, mono = first
                w = self.act(gen, part, w)
            pieces.append((x, u._den * w._den, w._ints))
        ints, den = _int_sum(pieces)
        return Fraction(ints.get(self.EMPTY, 0), den)

    def gram(self, weight: int) -> list[list[Fraction]]:
        """Contravariant Gram matrix at a weight, rows/cols in basis order:
        each `_int_gram` row of numerators over its own denominator, each
        entry the same exact value as `pair(a, b)`. The matrix is symmetric,
        so a Fraction is made only on and above the diagonal and the entry
        below it is the same object. Every call returns new lists."""
        g: list = []
        for a, (row, d) in enumerate(zip(*self._int_gram(weight))):
            upper = [Fraction(n, d) for n in row[a:]] if d > 1 else list(map(Fraction, row[a:]))
            g.append([above[a] for above in g] + upper)
        return g

    def _int_gram(self, weight: int) -> tuple[list[list[int]], list[int]]:
        """(N, d) with N an int matrix and row a of the Gram matrix at the
        weight N[a] / d[a]: the module's own lists, never to be changed.

        The module keeps the ladder of these pairs, one per weight from 0
        up, and a call builds only the weights above its highest, each from
        those below it: for a = gen_{-m} rest,
        <a, b> = <rest, gen_m b> = sum_c (gen_m b)_c <rest, c> over c in
        basis(weight - m), the step `pair` takes. With N' / d' the rows at
        weight - m and L the lcm of the `_act` denominators of the gen_m b,
        each gen_m b is written once as ints n_c = (gen_m b)_c L, shared by
        every row whose first mode is gen_{-m}; the entry is sum_c n_c N'[rest][c]
        and d[a] = L d'[rest]. Only the entries with b >= a are summed: the
        form is symmetric, N[a][b] / d[a] = N[b][a] / d[b], so the one below
        the diagonal is N[b][a] d[a] // d[b], an exact division. The ladder
        lives as long as the module, as its `_act` memo does: about 1 MB for
        a Virasoro Verma module to level 13."""
        ladder = self._ladder
        for w in range(len(ladder), weight + 1):
            basis = self.basis(w)
            firsts = [self._first(a) for a in basis]
            lowered = {}  # (gen, m) -> (L, per b: [(column of c, n_c)])
            for gen, m in dict.fromkeys((gen, m) for gen, m, _ in firsts):
                index = ladder[w - m][0]
                acts = [self._act(gen, m, b) for b in basis]
                den = math.lcm(*(d for _, d in acts))
                lowered[gen, m] = den, [[(index[c], x * (den // d)) for c, x in ints.items()]
                                         for ints, d in acts]
            rows, dens = [], []
            for a, (gen, m, rest) in enumerate(firsts):
                index, below, dens_below = ladder[w - m]
                den, col = lowered[gen, m]
                row = below[index[rest]]
                d = den * dens_below[index[rest]]
                rows.append([r[a] * d // e for r, e in zip(rows, dens)]
                            + [sum(n * row[j] for j, n in terms) for terms in col[a:]])
                dens.append(d)
            ladder.append(({b: i for i, b in enumerate(basis)}, rows, dens))
        return ladder[weight][1:] if weight >= 0 else ([], [])

    def gram_rank(self, weight: int) -> int:
        return rank(self._int_gram(weight)[0])

    def gram_nullity(self, weight: int) -> int:
        return self.dim(weight) - self.gram_rank(weight)

    # -- primary vectors ----------------------------------------------------

    def primary_space(self, weight: int) -> list[SparseVec]:
        """Deterministic basis of {x at the weight : L_1 x = L_2 x = 0}
        (weight >= 1; L_1 and L_2 generate all positive Virasoro modes), each
        vector scaled to coprime integers, first coefficient positive."""
        if weight < 1:
            raise InputError("primary spaces are graded by weights >= 1")
        return kernel(self.basis(weight), [partial(self.act, "L", n) for n in (1, 2)])


class VirasoroModule(HighestWeightModule):
    """Highest-weight module for the Virasoro algebra at central charge c.

    vacuum=False: the Verma module V(c, h).
    vacuum=True: the vacuum quotient Vbar(c, 0); requires h == 0. Canonical
    monomials then have all parts >= 2, and straightening drops any monomial
    with a part 1 (those span the submodule generated by L_{-1}v).
    """

    monomial_str = staticmethod(monomial_str)

    @staticmethod
    def sort_key(mono: VirMonomial) -> tuple:
        """Descending-lex order, where a proper prefix sorts after its
        extensions: L(-2)L(-1), L(-2), L(-1)L(-1), L(-1)."""
        return tuple(-p for p in mono) + (0,)

    def __init__(self, c, h=0, vacuum: bool = False):
        super().__init__()
        self.c = Fraction(c)
        self.h = Fraction(h)
        self.vacuum = bool(vacuum)
        if self.vacuum and self.h:
            raise InputError("vacuum quotient requires h = 0")
        self.min_part = 2 if self.vacuum else 1
        self._act_memo: dict = {}
        self._memos = {"L": self._act_memo}
        self._eigen = {"L": (self.h.numerator, self.h.denominator)}

    def basis(self, level: int) -> list[VirMonomial]:
        """Canonical monomials at the given level, descending-lex order."""
        return list(partitions(level, self.min_part))

    def dim(self, level: int) -> int:
        return partition_count(level, self.min_part)

    def level(self, mono: VirMonomial) -> int:
        return sum(mono)

    def _first(self, mono: VirMonomial):
        return ("L", mono[0], mono[1:]) if mono else None

    def _prepend(self, gen: str, m: int, mono: VirMonomial):
        if m >= (mono[0] if mono else self.min_part):
            return (m,) + mono
        return None


# ---------------------------------------------------------------------------
# characters (integer q-series, coefficients at q^0 .. q^cutoff)


def _require_integral_weight(h) -> int:
    h = Fraction(h)
    if h.denominator != 1 or h < 0:
        m = square_root(4 * h)
        if m is not None:
            raise InputError(
                f"lowest weight {h} = ({m}/2)^2 is a quarter-square with odd {m}; "
                "this family is degenerate and its series is not supported")
        raise InputError(f"lowest weight {h} does not give an integer-graded series")
    return h.numerator


def verma_character(h, cutoff: int) -> list[int]:
    """Coefficients of q^h / phi(q) at q^0..q^cutoff (integer h >= 0)."""
    h = _require_integral_weight(h)
    return [partition_count(j - h) for j in range(cutoff + 1)]


def irreducible_character_c1(h, cutoff: int) -> list[int]:
    """Coefficients of ch L(1, h) at q^0..q^cutoff for integer h >= 0.

    For h = m^2 this is (q^{m^2} - q^{(m+1)^2})/phi(q); for non-square h the
    Verma character q^h/phi(q) (the module is already irreducible).
    """
    out = verma_character(h, cutoff)
    m = square_root(h)
    if m is None:
        return out
    return [a - b for a, b in zip(out, verma_character((m + 1) ** 2, cutoff))]


# ---------------------------------------------------------------------------
# named verification suite: reducibility of V(1, m^2)


def verify_prop21(ms=(0, 1, 2), max_level: int = 5) -> dict:
    """Check that V(1, m^2) first becomes degenerate exactly at level 2m+1
    and that Gram ranks reproduce the irreducible character of L(1, m^2).

    Returns a report dict with named checks; report["pass"] is True iff all
    checks pass.
    """
    ms = tuple(ms)
    checks: list[dict] = []

    for m in ms:
        module = VirasoroModule.get(1, m * m)
        threshold = 2 * m + 1
        ranks = [module.gram_rank(lv) for lv in range(0, max_level + 1)]
        nullities = [module.dim(lv) - ranks[lv] for lv in range(1, max_level + 1)]

        below = nullities[:min(threshold - 1, max_level)]
        checks.append(check_values(f"nullity-below-threshold-m{m}", "PAPER",
                                   [0] * len(below), below,
                                   levels=list(range(1, len(below) + 1))))

        if threshold <= max_level:
            checks.append(check(f"nullity-at-threshold-m{m}", "PAPER", "1",
                                str(nullities[threshold - 1]),
                                nullities[threshold - 1] == 1, level=threshold))

        char = irreducible_character_c1(m * m, m * m + max_level)
        expected_ranks = char[m * m: m * m + max_level + 1]
        checks.append(check_values(f"rank-equals-irreducible-character-m{m}", "DERIVED",
                                   expected_ranks, ranks,
                                   levels=list(range(0, max_level + 1))))

    # converse direction: a non-square lowest weight stays nondegenerate
    nonsq = VirasoroModule.get(1, 2)
    nullities = [nonsq.gram_nullity(lv) for lv in range(1, max_level + 1)]
    checks.append(check_values("nonsquare-weight-nondegenerate-h2", "DERIVED",
                               [0] * len(nullities), nullities))

    return report("prop21", {"ms": list(ms), "max_level": max_level, "c": "1"}, checks)
