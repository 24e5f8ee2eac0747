"""Virasoro highest-weight modules with exact arithmetic.

Implements Verma modules V(c, h) and the vacuum quotient Vbar(c, 0) =
V(c, 0)/U(Vir)L_{-1}v over exact rationals: PBW bases, straightened L_n
action, the contravariant (Shapovalov) form, singular vectors and c = 1
character series. HighestWeightModule, which the W3 modules share, holds
what does not depend on the algebra: the one PBW straightening recursion,
the contravariant form, Gram matrices (each built from the ones below it,
by the adjoint of a monomial's first mode, as int numerators over one
denominator per row; Fractions only at the weight asked for, and
`gram_rank` reads the numerators) and primary spaces (the `core.kernel` of
L_1 and L_2 on a graded piece). A module supplies its basis, how a
monomial splits off its first mode or takes a new one, its lowest-weight
eigenvalues and its brackets; [L_n, L_m] sits in the base.

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
    ONE,
    InputError,
    SparseVec,
    ZERO,
    _accumulate,
    _add_term,
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


def monomial_str(mono: VirMonomial) -> str:
    if not mono:
        return "1"
    return "".join(f"L({-m})" for m in mono)


class HighestWeightModule:
    """What a highest-weight module needs beyond the brackets of its algebra.

    A subclass sets `_memos` and `_eigen` (per generator name: the memo dict
    of its straightened action and its eigenvalue on the lowest-weight
    vector) and supplies:

    * `basis(weight)` and its size `dim(weight)`;
    * `level(mono)`, the weight of a monomial above the lowest one;
    * `monomial_str(mono)` and `sort_key(mono)`, how `terms` writes and
      orders monomials;
    * `_first(mono)`: (gen, m, rest) when mono = gen_{-m} rest, or None for
      the lowest-weight monomial `EMPTY`;
    * `_prepend(gen, m, mono)`: the canonical monomial gen_{-m} mono, or None
      when gen_{-m} may not stand first;
    * `_bracket(out, gen, n, other, a, rest)`, which adds
      [gen_n, other_{-a}] rest to out. This class holds [L_n, L_{-a}].

    On that this class builds the one straightening recursion `_act`, the
    action on vectors and its rendering, the contravariant form with its
    Gram matrices, and primary spaces (through `core.kernel`).
    """

    EMPTY = ()

    @classmethod
    def get(cls, *args, **kwargs):
        """The constructor: a new module with its own memo tables. It keeps
        this name because `bench/worker.py`, the README and the tests build
        modules through it."""
        return cls(*args, **kwargs)

    # -- straightening --------------------------------------------------------

    def _act(self, gen: str, n: int, mono) -> dict:
        """gen_n on a canonical monomial, straightened: prepend gen_n when it
        may stand first, act by the eigenvalue on the lowest-weight vector,
        else gen_n X_{-a} rest = X_{-a} gen_n rest + [gen_n, X_{-a}] rest."""
        if n > self.level(mono):
            return {}
        key = (n, mono)
        memo = self._memos[gen]
        hit = memo.get(key)
        if hit is not None:
            return hit
        if n < 0 and (head := self._prepend(gen, -n, mono)) is not None:
            out = {head: ONE}
        elif (first := self._first(mono)) is None:
            eigen = self._eigen[gen]
            out = {mono: eigen} if n == 0 and eigen else {}
        else:
            other, a, rest = first
            out = {}
            for inner, coef in self._act(gen, n, rest).items():
                _accumulate(out, self._act(other, -a, inner), coef)
            self._bracket(out, gen, n, other, a, rest)
        memo[key] = out
        return out

    def _bracket(self, out: dict, gen: str, n: int, other: str, a: int, rest) -> None:
        """[L_n, L_{-a}] rest = (n + a) L_{n-a} rest + delta_{n,a} (n^3 - n)/12 c rest."""
        _accumulate(out, self._act("L", n - a, rest), Fraction(n + a))
        if n == a:
            _add_term(out, rest, Fraction(n**3 - n, 12) * self.c)

    # -- action on vectors -------------------------------------------------

    def act(self, gen: str, n: int, v) -> SparseVec:
        """Apply gen_n to a vector (or a single monomial), fully straightened."""
        if gen not in self._memos:
            raise InputError(f"unknown generator {gen!r}")
        out: dict = {}
        for mono, coef in SparseVec.of(v).items():
            _accumulate(out, self._act(gen, n, mono), coef)
        return SparseVec._raw(out)

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
        and <v, v> = 1 on the lowest-weight vector."""
        v = SparseVec.of(v)
        total = ZERO
        for mono, coef in SparseVec.of(u).items():
            w = v
            # the creation modes gen_{-m} of mono, left to right: their
            # adjoints gen_m act in this order in the form
            while not w.is_zero() and (first := self._first(mono)) is not None:
                gen, part, mono = first
                w = self.act(gen, part, w)
            total += coef * w.coeff(self.EMPTY)
        return total

    def gram(self, weight: int) -> list[list[Fraction]]:
        """Contravariant Gram matrix at a weight, rows/cols in basis order:
        each `_int_gram` row of numerators over its own denominator, each
        entry the same exact value as `pair(a, b)`."""
        rows, dens = self._int_gram(weight)
        return [[Fraction(n, d) for n in row] for row, d in zip(rows, dens)]

    def _int_gram(self, weight: int) -> tuple[list[list[int]], list[int]]:
        """(N, d) with N an int matrix and row a of the Gram matrix at the
        weight N[a] / d[a].

        Built up from weight 0: for a = gen_{-m} rest,
        <a, b> = <rest, gen_m b> = sum_c (gen_m b)_c <rest, c> over c in
        basis(weight - m), the step `pair` takes. With N' / d' the rows at
        weight - m and L the lcm of the denominators of the gen_m b, each
        gen_m b is written once as ints n_c = (gen_m b)_c L, shared by every
        row whose first mode is gen_{-m}; the entry is sum_c n_c N'[rest][c]
        and d[a] = L d'[rest]. The rows of the lower weights live only for
        this call."""
        if weight < 0:
            return [], []
        ladder = {0: ({self.EMPTY: 0}, [[1]], [1])}
        for w in range(1, weight + 1):
            basis = self.basis(w)
            firsts = [self._first(a) for a in basis]
            lowered = {}  # (gen, m) -> (L, per b: [(column of c, n_c)])
            for gen, m in dict.fromkeys((gen, m) for gen, m, _ in firsts):
                index = ladder[w - m][0]
                acts = [self._act(gen, m, b) for b in basis]
                den = math.lcm(*(x.denominator for act in acts for x in act.values()))
                lowered[gen, m] = den, [[(index[c], x.numerator * (den // x.denominator))
                                         for c, x in act.items()] for act in acts]
            rows, dens = [], []
            for gen, m, rest in firsts:
                index, below, dens_below = ladder[w - m]
                den, col = lowered[gen, m]
                row = below[index[rest]]
                rows.append([sum(n * row[j] for j, n in terms) for terms in col])
                dens.append(den * dens_below[index[rest]])
            ladder[w] = ({b: i for i, b in enumerate(basis)}, rows, dens)
        return ladder[weight][1:]

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
        self.c = Fraction(c)
        self.h = Fraction(h)
        self.vacuum = bool(vacuum)
        if self.vacuum and self.h:
            raise InputError("vacuum quotient requires h = 0")
        self.min_part = 2 if self.vacuum else 1
        self._act_memo: dict = {}
        self._memos = {"L": self._act_memo}
        self._eigen = {"L": self.h}

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
