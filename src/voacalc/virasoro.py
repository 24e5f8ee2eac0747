"""Virasoro highest-weight modules with exact arithmetic.

Implements Verma modules V(c, h) and the vacuum quotient Vbar(c, 0) =
V(c, 0)/U(Vir)L_{-1}v over exact rationals: PBW bases, straightened L_n
action, the contravariant (Shapovalov) form, singular vectors and c = 1
character series. The module machinery that does not depend on the
straightening rules (shared instances, forms, Gram matrices, primary
spaces) sits in HighestWeightModule, which the W3 modules share.

Conventions
-----------
* [L_m, L_n] = (m - n) L_{m+n} + delta_{m+n,0} (m^3 - m)/12 * c.
* A basis monomial is a descending tuple (m_1 >= ... >= m_s) standing for
  L_{-m_1} ... L_{-m_s} v; parts >= 1 for Verma, >= 2 for the vacuum quotient.
* The contravariant form takes L_n adjoint to L_{-n} and <v, v> = 1.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .core import (
    ONE,
    InputError,
    SparseVec,
    ZERO,
    _accumulate,
    _add_term,
    check,
    normalized_integer_vector,
    null_space,
    partition_count,
    partitions,
    rank,
)

VirMonomial = tuple  # descending tuple of positive ints


def monomial_str(mono: VirMonomial) -> str:
    if not mono:
        return "1"
    return "".join(f"L({-m})" for m in mono)


class HighestWeightModule:
    """What a highest-weight module needs beyond its own straightening.

    A subclass sets `params` (the normalized constructor arguments) and
    supplies `basis(weight)`, the memoized L-mode recursion
    `_act_l(n, mono)` and `_modes(mono)`, which yields (recursion, part) for
    the raising modes adjoint to a monomial's creation modes, in the order
    they act. `EMPTY` is the lowest-weight monomial. On that this class builds
    the shared instances, the action on vectors, the contravariant form with
    its Gram matrices, and primary spaces.
    """

    EMPTY = ()

    _instances: dict = {}
    _instances_lock = threading.Lock()

    @classmethod
    def get(cls, *args, **kwargs):
        """Shared instance per class and parameters; memo caches are per instance."""
        fresh = cls(*args, **kwargs)
        with cls._instances_lock:
            return cls._instances.setdefault((cls, fresh.params), fresh)

    def dim(self, weight: int) -> int:
        return len(self.basis(weight))

    @staticmethod
    def _apply(rec, n: int, v) -> SparseVec:
        """The mode with recursion `rec` and index n on a vector or monomial."""
        if not isinstance(v, SparseVec):
            return SparseVec._raw(dict(rec(n, v)))
        out: dict = {}
        for mono, coef in v.items():
            _accumulate(out, rec(n, mono), coef)
        return SparseVec._raw(out)

    # -- contravariant form -------------------------------------------------

    def pair(self, u, v) -> Fraction:
        """Contravariant form <u, v>: each mode is adjoint to its negative,
        and <v, v> = 1 on the lowest-weight vector."""
        if not isinstance(u, SparseVec):
            u = SparseVec.unit(u)
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        total = ZERO
        for mono, coef in u.items():
            w = v
            for rec, part in self._modes(mono):
                w = self._apply(rec, part, w)
                if w.is_zero():
                    break
            total += coef * w.coeff(self.EMPTY)
        return total

    def gram(self, weight: int) -> list[list[Fraction]]:
        """Contravariant Gram matrix at a weight, rows/cols in basis order."""
        units = [SparseVec.unit(b) for b in self.basis(weight)]
        return [[self.pair(a, b) for b in units] for a in units]

    def gram_rank(self, weight: int) -> int:
        return rank(self.gram(weight))

    def gram_nullity(self, weight: int) -> int:
        g = self.gram(weight)
        return len(g) - rank(g)

    # -- primary vectors ----------------------------------------------------

    def primary_space(self, weight: int) -> list[SparseVec]:
        """Deterministic basis of {x at the weight : L_1 x = L_2 x = 0}
        (weight >= 1; L_1 and L_2 generate all positive Virasoro modes), each
        vector scaled to coprime integers, first coefficient positive."""
        if weight < 1:
            raise InputError("primary spaces are graded by weights >= 1")
        basis = self.basis(weight)
        if not basis:
            return []
        rows: list[list[Fraction]] = []
        for n in (1, 2):
            images = [self._act_l(n, b) for b in basis]
            for t in self.basis(weight - n):
                rows.append([img.get(t, ZERO) for img in images])
        index = {b: i for i, b in enumerate(basis)}
        out = []
        for coords in null_space(rows or [[ZERO] * len(basis)]):
            vec = SparseVec({basis[j]: c for j, c in enumerate(coords) if c})
            out.append(normalized_integer_vector(vec, index.__getitem__))
        return out


class VirasoroModule(HighestWeightModule):
    """Highest-weight module for the Virasoro algebra at central charge c.

    vacuum=False: the Verma module V(c, h).
    vacuum=True: the vacuum quotient Vbar(c, 0); requires h == 0. Canonical
    monomials then have all parts >= 2, and straightening drops any monomial
    with a part 1 (those span the submodule generated by L_{-1}v).
    """

    monomial_str = staticmethod(monomial_str)

    def __init__(self, c, h=0, vacuum: bool = False):
        self.c = Fraction(c)
        self.h = Fraction(h)
        self.vacuum = bool(vacuum)
        if self.vacuum and self.h:
            raise InputError("vacuum quotient requires h = 0")
        self.params = (self.c, self.h, self.vacuum)
        self.min_part = 2 if self.vacuum else 1
        self._act_memo: dict = {}

    def basis(self, level: int) -> list[VirMonomial]:
        """Canonical monomials at the given level, descending-lex order."""
        if level < 0:
            return []
        return list(partitions(level, self.min_part))

    # -- action -----------------------------------------------------------

    def act(self, n: int, v) -> SparseVec:
        """Apply L_n to a vector (or a single monomial), fully straightened."""
        return self._apply(self._act_l, n, v)

    def apply_word(self, word, v) -> SparseVec:
        """Apply L_{n_1} ... L_{n_r} (rightmost mode first) to a vector."""
        out = v if isinstance(v, SparseVec) else SparseVec.unit(v)
        for n in reversed(list(word)):
            out = self.act(n, out)
        return out

    def _modes(self, mono: VirMonomial):
        return [(self._act_l, part) for part in mono]

    def _act_l(self, n: int, mono: VirMonomial) -> dict:
        if n > sum(mono):
            return {}
        key = (n, mono)
        memo = self._act_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not mono:
            if n > 0:
                out = {}
            elif n == 0:
                out = {(): self.h} if self.h else {}
            else:
                a = -n
                out = {} if (self.vacuum and a == 1) else {(a,): ONE}
        else:
            a = mono[0]
            rest = mono[1:]
            if n <= -a:
                out = {(-n,) + mono: ONE}
            else:
                out = {}
                for inner, coef in self._act_l(n, rest).items():
                    _accumulate(out, self._act_l(-a, inner), coef)
                _accumulate(out, self._act_l(n - a, rest), Fraction(n + a))
                if n == a:
                    central = Fraction(n**3 - n, 12) * self.c
                    if central:
                        _add_term(out, rest, central)
        memo[key] = out
        return out


# ---------------------------------------------------------------------------
# characters (integer q-series, coefficients at q^0 .. q^cutoff)


def is_perfect_square(x) -> bool:
    x = Fraction(x)
    if x < 0 or x.denominator != 1:
        return False
    n = x.numerator
    return math.isqrt(n) ** 2 == n


def _require_integral_weight(h) -> int:
    h = Fraction(h)
    if h.denominator != 1 or h < 0:
        if h.denominator == 4 and is_perfect_square(4 * h):
            m = math.isqrt((4 * h).numerator)
            raise InputError(
                f"lowest weight {h} = ({m}/2)^2 is a quarter-square with odd {m}; "
                "this family is degenerate and its series is not supported")
        raise InputError(f"lowest weight {h} does not give an integer-graded series")
    return h.numerator


def verma_character(h, cutoff: int) -> list[int]:
    """Coefficients of q^h / phi(q) at q^0..q^cutoff (integer h >= 0)."""
    h = _require_integral_weight(h)
    return [partition_count(j - h) if j >= h else 0 for j in range(cutoff + 1)]


def irreducible_character_c1(h, cutoff: int) -> list[int]:
    """Coefficients of ch L(1, h) at q^0..q^cutoff for integer h >= 0.

    For h = m^2 this is (q^{m^2} - q^{(m+1)^2})/phi(q); for non-square h the
    Verma character q^h/phi(q) (the module is already irreducible).
    """
    h = _require_integral_weight(h)
    out = [partition_count(j - h) if j >= h else 0 for j in range(cutoff + 1)]
    if is_perfect_square(h):
        m = math.isqrt(h)
        sub = (m + 1) ** 2
        for j in range(sub, cutoff + 1):
            out[j] -= partition_count(j - sub)
    return out


def char_series(label, cutoff: int) -> list[int]:
    """Dispatch on a module descriptor: ("verma", h) or ("l1", h)."""
    kind, h = label
    if kind == "verma":
        return verma_character(h, cutoff)
    if kind == "l1":
        return irreducible_character_c1(h, cutoff)
    raise InputError(f"unknown module descriptor {label!r}")


# ---------------------------------------------------------------------------
# formatting helpers shared with the CLI


def vector_str_terms(v: SparseVec) -> dict[str, str]:
    """Deterministic string form: monomials in descending-lex order."""
    keys = sorted(v.keys(), reverse=True)
    return {monomial_str(k): str(v.coeff(k)) for k in keys}


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
        checks.append(check(f"nullity-below-threshold-m{m}", "PAPER",
                            ",".join("0" for _ in below) or "(none)",
                            ",".join(str(x) for x in below) or "(none)",
                            all(x == 0 for x in below),
                            levels=list(range(1, len(below) + 1))))

        if threshold <= max_level:
            checks.append(check(f"nullity-at-threshold-m{m}", "PAPER", "1",
                                str(nullities[threshold - 1]),
                                nullities[threshold - 1] == 1, level=threshold))

        char = irreducible_character_c1(m * m, m * m + max_level)
        expected_ranks = char[m * m: m * m + max_level + 1]
        checks.append(check(f"rank-equals-irreducible-character-m{m}", "DERIVED",
                            ",".join(str(x) for x in expected_ranks),
                            ",".join(str(x) for x in ranks),
                            ranks == expected_ranks, levels=list(range(0, max_level + 1))))

    # converse direction: a non-square lowest weight stays nondegenerate
    nonsq = VirasoroModule.get(1, 2)
    nullities = [nonsq.gram_nullity(lv) for lv in range(1, max_level + 1)]
    checks.append(check("nonsquare-weight-nondegenerate-h2", "DERIVED",
                        ",".join("0" for _ in nullities),
                        ",".join(str(x) for x in nullities),
                        all(x == 0 for x in nullities)))

    return {
        "suite": "prop21",
        "params": {"ms": list(ms), "max_level": max_level, "c": "1"},
        "checks": checks,
        "pass": all(ch["pass"] for ch in checks),
    }
