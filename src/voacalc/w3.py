"""W3 algebra highest-weight modules with exact arithmetic.

The algebra is spanned by L_m, W_m and a central C acting as c, with

  [L_m, L_n] = (m-n) L_{m+n} + delta_{m+n,0} (m^3-m)/12 * C
  [L_m, W_n] = (2m-n) W_{m+n}
  [W_m, W_n] = (m-n) [ (m+n+2)(m+n+3)/15 - (m+2)(n+2)/6 ] L_{m+n}
               + 16/(22+5C) * (m-n) Lambda_{m+n}
               + m(m^2-1)(m^2-4)/360 * delta_{m+n,0} * C

  Lambda_m = sum_{k>=2} L_{-k} L_{m+k} + sum_{k>=-1} L_{m-k} L_k
             - (3/10)(m+2)(m+3) L_m

which requires 22 + 5c != 0. Lambda_m is never expanded abstractly: it is
applied to graded vectors with both sums truncated at the annihilation bound.

A canonical monomial is a pair of descending tuples (lparts, wparts) standing
for L_{-l_1}...L_{-l_s} W_{-w_1}...W_{-w_t} applied to the lowest-weight
vector. For the vacuum module (lowest weights 0, 0; the quotient by the
submodule generated by L_{-1}1, W_{-1}1, W_{-2}1) the basis constraint is
l_i >= 2 and w_j >= 3; for a Verma module with L_0, W_0 eigenvalues (lam, mu)
it is l_i, w_j >= 1.

The contravariant form takes L_n to L_{-n}, W_n to W_{-n}, with <1, 1> = 1.
Virasoro block bases come from `core.independent`. `decompose` pairs each
block vector through the adjoints of its Virasoro modes, and solves for the
projection with `core.coordinates`, as `verify thm32` does for the
recorded-word coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    InputError,
    SparseVec,
    _add_term,
    _int_sum,
    check,
    check_values,
    coordinates,
    independent,
    partition_count,
    partitions,
    rank,
    report,
)
from .virasoro import HighestWeightModule, _scaled

W3Monomial = tuple  # (lparts, wparts), each a descending tuple of ints

EMPTY: W3Monomial = ((), ())


def w3_monomial_str(mono: W3Monomial) -> str:
    lparts, wparts = mono
    if not lparts and not wparts:
        return "1"
    return ("".join(f"L({-a})" for a in lparts)
            + "".join(f"W({-b})" for b in wparts))


class DegenerateBlockError(InputError):
    """A requested orthogonal projection hit a block with singular Gram form."""


class W3Module(HighestWeightModule):
    """Highest-weight W3 module over exact rationals.

    W3Module(c) is the vacuum module; W3Module(c, lam, mu) the Verma module
    with lowest L_0 / W_0 eigenvalues lam, mu. One of lam, mu without the
    other is an InputError.
    """

    EMPTY = EMPTY
    monomial_str = staticmethod(w3_monomial_str)

    @staticmethod
    def sort_key(mono: W3Monomial) -> tuple:
        """Basis order: weight, W-weight, then descending-lex W and L parts."""
        lparts, wparts = mono
        return (sum(lparts) + sum(wparts), sum(wparts),
                tuple(-p for p in wparts), tuple(-p for p in lparts))

    def __init__(self, c, lam=None, mu=None):
        super().__init__()
        self.c = Fraction(c)
        if 22 + 5 * self.c == 0:
            raise InputError("central charge with 22 + 5c = 0 is not admitted "
                             "(the W,W bracket is undefined there)")
        if (lam is None) != (mu is None):
            raise InputError("lam and mu must be given together")
        self.vacuum = lam is None
        self.lam = Fraction(lam) if lam is not None else Fraction(0)
        self.mu = Fraction(mu) if mu is not None else Fraction(0)
        self.min_l = 2 if self.vacuum else 1
        self.min_w = 3 if self.vacuum else 1
        coef = 16 / (22 + 5 * self.c)
        self._lambda_coef = coef.numerator, coef.denominator
        self._memo_l: dict = {}
        self._memo_w: dict = {}
        self._memo_lambda: dict = {}
        self._memos = {"L": self._memo_l, "W": self._memo_w}
        self._eigen = {"L": (self.lam.numerator, self.lam.denominator),
                       "W": (self.mu.numerator, self.mu.denominator)}

    # -- basis ------------------------------------------------------------

    def basis(self, weight: int) -> list[W3Monomial]:
        """Canonical monomials at a weight: pure-L monomials first (ascending
        W-weight), descending-lex within each partition family."""
        out = []
        for wb in range(0, weight + 1):
            for wp in partitions(wb, self.min_w):
                for lp in partitions(weight - wb, self.min_l):
                    out.append((lp, wp))
        return out

    def dim(self, weight: int) -> int:
        return sum(partition_count(wb, self.min_w) * partition_count(weight - wb, self.min_l)
                   for wb in range(weight + 1))

    def level(self, mono: W3Monomial) -> int:
        return sum(mono[0]) + sum(mono[1])

    # -- straightened action ------------------------------------------------

    def _first(self, mono: W3Monomial):
        lparts, wparts = mono
        if lparts:
            return "L", lparts[0], (lparts[1:], wparts)
        if wparts:
            return "W", wparts[0], ((), wparts[1:])
        return None

    def _prepend(self, gen: str, m: int, mono: W3Monomial):
        """L_{-m} stands first above its descending L parts; W_{-m} only on
        a monomial without L parts."""
        lparts, wparts = mono
        if gen == "L":
            if m >= (lparts[0] if lparts else self.min_l):
                return (m,) + lparts, wparts
        elif not lparts and m >= (wparts[0] if wparts else self.min_w):
            return (), (m,) + wparts
        return None

    def _bracket(self, pieces: list, gen: str, n: int, other: str, a: int, rest) -> None:
        """Adds the pieces of [gen_n, other_{-a}] rest: [L_n, W_{-a}] =
        (2n+a) W_{n-a}, [W_n, L_{-a}] = (2a+n) W_{n-a}, and [W_n, W_{-a}] as
        in the module docstring, its L coefficient over 30; [L_n, L_{-a}] is
        the base class's."""
        if gen == "L" and other == "L":
            super()._bracket(pieces, gen, n, other, a, rest)
        elif gen == "L":
            _scaled(pieces, self._act("W", n - a, rest), 2 * n + a)
        elif other == "L":
            _scaled(pieces, self._act("W", n - a, rest), 2 * a + n)
        else:
            lcoef = (n + a) * (2 * (n - a + 2) * (n - a + 3) - 5 * (n + 2) * (2 - a))
            if lcoef:
                _scaled(pieces, self._act("L", n - a, rest), lcoef, 30)
            num, den = self._lambda_coef
            _scaled(pieces, self._lambda(n - a, rest), num * (n + a), den)
            if n == a:
                _scaled(pieces, ({rest: 1}, 1), n * (n * n - 1) * (n * n - 4) * self.c.numerator,
                        360 * self.c.denominator)

    def _lambda(self, m: int, mono: W3Monomial) -> tuple[dict, int]:
        """Lambda_m applied to a canonical monomial, as ints over one
        denominator like `_act`. Its two normal-ordered sums, over
        L_{-k}L_{m+k} for k >= 2 and L_{m-k}L_k for k >= -1, are both sums
        of L_{m-i}L_i over the mode i that acts first: i >= m+2, then
        i >= -1, each truncated at the level (L_i kills levels below i)."""
        key = (m, mono)
        hit = self._memo_lambda.get(key)
        if hit is not None:
            return hit
        lvl = self.level(mono)
        pieces: list = []
        for i in (*range(m + 2, lvl + 1), *range(-1, lvl + 1)):
            inner, den = self._act("L", i, mono)
            for mid, x in inner.items():
                _scaled(pieces, self._act("L", m - i, mid), x, den)
        _scaled(pieces, self._act("L", m, mono), -3 * (m + 2) * (m + 3), 10)
        out = _int_sum(pieces)
        self._memo_lambda[key] = out
        return out

    # -- Virasoro-block decomposition ----------------------------------------

    def vector_weight(self, v: SparseVec) -> int:
        """Weight of a homogeneous vector (error if mixed or zero)."""
        weights = {self.level(m) for m in v.keys()}
        if not weights:
            raise InputError("the zero vector has no weight")
        if len(weights) != 1:
            raise InputError(f"vector is not homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def block_basis(self, vec: SparseVec, weight: int) -> tuple[list, list[SparseVec]]:
        """Basis of the Virasoro block of vec at the weight: the first maximal
        independent subsequence of the L_{-lambda} vec, lambda in
        `partitions` order, and the lambdas kept."""
        lams = partitions(weight - self.vector_weight(vec), 1)
        span = [self.apply_word([("L", -m) for m in lam], vec) for lam in lams]
        kept = independent(span)
        return [lams[j] for j in kept], [span[j] for j in kept]

    def decompose(self, v: SparseVec, primaries) -> tuple[dict, SparseVec]:
        """Resolve v against the Virasoro blocks generated by the vacuum and
        the given primary vectors, by orthogonal projection under the
        contravariant form.

        primaries: list of (label, vector) pairs. Returns (components,
        remainder) where components maps each block label (the vacuum block is
        labelled "vacuum") to the projection of v into that block, and the
        remainder is orthogonal to every block. Raises DegenerateBlockError if
        some block's Gram matrix is singular at this weight, and InputError on
        a Verma module, where the blocks need not be orthogonal.

        A block vector is b = L_{-lambda_1} ... L_{-lambda_r} g, and
        <b, y> = <g, L_{lambda_r} ... L_{lambda_1} y>: y is lowered by the
        modes of lambda and paired once with g at the weight of g. Column j
        of the Gram matrix takes y = b_j, the right-hand side y = v. The
        lambdas share their first parts, so each y is lowered once per prefix.
        """
        if not self.vacuum:
            raise InputError("decompose needs the vacuum module: on a Verma module "
                             "the Virasoro blocks need not be orthogonal")
        weight = self.vector_weight(v)
        blocks = [("vacuum", SparseVec.unit(EMPTY))] + list(primaries)
        components: dict = {}
        for label, gen_vec in blocks:
            lams, block = self.block_basis(gen_vec, weight)
            pairings = []
            for y in (*block, v):
                seen = {(): y}  # prefix of lambda -> y lowered by its modes
                for lam in lams:
                    for k, part in enumerate(lam, 1):
                        if lam[:k] not in seen:
                            seen[lam[:k]] = self.act("L", part, seen[lam[:k - 1]])
                pairings.append([self.pair(gen_vec, seen[lam]) for lam in lams])
            *columns, rhs = pairings
            if rank(columns) < len(block):
                raise DegenerateBlockError(
                    f"block {label!r} has singular Gram form at weight {weight}; "
                    "orthogonal projection is undefined")
            coeffs = coordinates([SparseVec(enumerate(col)) for col in columns],
                                 SparseVec(enumerate(rhs)))
            components[label] = sum((b.scaled(x) for x, b in zip(coeffs, block) if x),
                                    SparseVec.zero())
        return components, v - sum(components.values(), SparseVec.zero())

    def descendant_gap(self, weight: int, primaries) -> dict:
        """Dimension bookkeeping of the joint Virasoro-descendant span of the
        vacuum and the given primaries at a weight."""
        blocks = [("vacuum", SparseVec.unit(EMPTY))] + list(primaries)
        spans = {}
        joint: list[SparseVec] = []
        for label, gen_vec in blocks:
            block = self.block_basis(gen_vec, weight)[1]
            spans[label] = len(block)
            joint.extend(block)
        joint_rank = len(independent(joint))
        dim = self.dim(weight)
        return {
            "weight": weight,
            "dim": dim,
            "block_dims": spans,
            "span_dim": joint_rank,
            "gap": dim - joint_rank,
        }


# -- frozen reference data for the bundled weight-9 verification -------------
#
# The verifier replays a specific computation: a weight-9 vector given as an
# integer combination of twelve monomial words applied to the lowest-weight
# vector of the c=1 vacuum module, together with the recorded right-hand
# sides of W_1 applied to each of the twelve words. One recorded right-hand
# side contains a weight-inconsistent monomial (weight 5 inside a weight-8
# identity); the verifier reports that identity with a per-monomial diff and
# with the unique weight-consistent reading checked separately, rather than
# silently correcting it.

_W = ("W", -3)

WEIGHT9_GENERATOR_TERMS: tuple = (
    (3312738, (("W", -3), ("W", -3), _W)),
    (-214776, (("L", -6), _W)),
    (-4379460, (("L", -5), ("L", -1), _W)),
    (-10304064, (("L", -4), ("L", -2), _W)),
    (-7494075, (("L", -3), ("L", -3), _W)),
    (2682708, (("L", -4), ("L", -1), ("L", -1), _W)),
    (8127252, (("L", -3), ("L", -2), ("L", -1), _W)),
    (424032, (("L", -2), ("L", -2), ("L", -2), _W)),
    (-2068431, (("L", -3), ("L", -1), ("L", -1), ("L", -1), _W)),
    (-2594664, (("L", -2), ("L", -2), ("L", -1), ("L", -1), _W)),
    (350889, (("L", -2), ("L", -1), ("L", -1), ("L", -1), ("L", -1), _W)),
    (159578, (("L", -1),) * 6 + (_W,)),
)

def _f(a, b=1):
    return Fraction(a, b)

# (lhs word, recorded right-hand side in canonical monomials)
W1_ACTION_TABLE: tuple = (
    ((("W", 1), ("W", -3), ("W", -3), _W), {
        ((2,), (3, 3)): _f(146, 3),
        ((8,), ()): _f(10070, 27),
        ((5, 3), ()): _f(49664, 729),
        ((3, 2), ()): _f(20480, 729),   # weight-inconsistent as recorded
        ((4, 4), ()): _f(7232, 729),
        ((4, 2, 2), ()): _f(28672, 729),
        ((6, 2), ()): _f(95872, 729),
        ((), (5, 3)): _f(310, 9),
    }),
    ((("W", 1), ("L", -6), _W), {
        ((), (5, 3)): _f(13),
        ((6, 2), ()): _f(2),
    }),
    ((("W", 1), ("L", -5), ("L", -1), _W), {
        ((), (4, 4)): _f(11),
        ((5, 3), ()): _f(5),
    }),
    ((("W", 1), ("L", -4), ("L", -2), _W), {
        ((2,), (3, 3)): _f(9),
        ((), (5, 3)): _f(9),
        ((4, 4), ()): _f(-5, 9),
        ((4, 2, 2), ()): _f(214, 27),
    }),
    ((("W", 1), ("L", -3), ("L", -3), _W), {
        ((), (5, 3)): _f(28),
        ((8,), ()): _f(-56, 27),
        ((5, 3), ()): _f(-28, 27),
        ((3, 3, 2), ()): _f(502, 27),
    }),
    ((("W", 1), ("L", -4), ("L", -1), ("L", -1), _W), {
        ((8,), ()): _f(-10),
        ((), (5, 3)): _f(18),
        ((6, 2), ()): _f(128, 3),
        ((5, 3), ()): _f(128, 3),
        ((4, 4), ()): _f(110, 3),
        ((4, 2, 2), ()): _f(64, 9),
    }),
    ((("W", 1), ("L", -3), ("L", -2), ("L", -1), _W), {
        ((), (4, 4)): _f(14),
        ((8,), ()): _f(704, 27),
        ((6, 2), ()): _f(280, 9),
        ((4, 2, 2), ()): _f(448, 27),
        ((5, 3), ()): _f(688, 27),
        ((3, 3, 2), ()): _f(839, 27),
    }),
    ((("W", 1), ("L", -2), ("L", -2), ("L", -2), _W), {
        ((2,), (3, 3)): _f(45),
        ((), (5, 3)): _f(15),
        ((8,), ()): _f(-40, 3),
        ((6, 2), ()): _f(-20, 3),
        ((4, 2, 2), ()): _f(-5, 3),
        ((2, 2, 2, 2), ()): _f(178, 9),
    }),
    ((("W", 1), ("L", -3), ("L", -1), ("L", -1), ("L", -1), _W), {
        ((8,), ()): _f(1064, 9),
        ((6, 2), ()): _f(1792, 9),
        ((5, 3), ()): _f(2520, 9),
        ((4, 4), ()): _f(896, 9),
        ((3, 3, 2), ()): _f(448, 9),
    }),
    ((("W", 1), ("L", -2), ("L", -2), ("L", -1), ("L", -1), _W), {
        ((), (5, 3)): _f(30),
        ((8,), ()): _f(8462, 27),
        ((6, 2), ()): _f(3152, 9),
        ((5, 3), ()): _f(4480, 27),
        ((4, 4), ()): _f(320, 9),
        ((4, 2, 2), ()): _f(2974, 27),
        ((3, 3, 2), ()): _f(1280, 27),
        ((2, 2, 2, 2), ()): _f(64, 9),
    }),
    ((("W", 1), ("L", -2), ("L", -1), ("L", -1), ("L", -1), ("L", -1), _W), {
        ((8,), ()): _f(25144, 9),
        ((6, 2), ()): _f(5280, 3),
        ((5, 3), ()): _f(9728, 9),
        ((4, 4), ()): _f(1280, 3),
        ((4, 2, 2), ()): _f(2048, 9),
        ((3, 3, 2), ()): _f(1024, 9),
    }),
    ((("W", 1),) + (("L", -1),) * 6 + (_W,), {
        ((8,), ()): _f(26800),
        ((6, 2), ()): _f(25600, 3),
        ((5, 3), ()): _f(25600, 3),
        ((4, 4), ()): _f(12800, 3),
    }),
)

INCONSISTENT_MONOMIAL: W3Monomial = ((3, 2), ())
CONSISTENT_READING: W3Monomial = ((3, 3, 2), ())

WEIGHT6_BASIS_REFERENCE: tuple = (
    ((), (3, 3)), ((), (6,)), ((2,), (4,)), ((3,), (3,)),
    ((6,), ()), ((4, 2), ()), ((3, 3), ()), ((2, 2, 2), ()),
)


def _word_str(word) -> str:
    return "".join(f"{g}({n})" for g, n in word)


def _vec_diff(mod: W3Module, expected: SparseVec, computed: SparseVec) -> dict:
    keys = sorted((expected - computed).keys(), key=mod.sort_key)
    return {w3_monomial_str(k): {"expected": str(expected.coeff(k)),
                                 "computed": str(computed.coeff(k))} for k in keys}


def verify_theorem32(c=1) -> dict:
    """Bundled verification of the weight-9 computation in the c=1 vacuum
    module.

    Mathematical checks (drive the pass flag): graded dimensions, the
    weight-6 basis, primary-space dimensions at weights 4..7, existence and
    uniqueness of a weight-9 primary vector inside the span of the twelve
    recorded generator words, its annihilation by L_1 and L_2, nonvanishing
    of W_1 on it (with the L(-2)^4 coefficient certificate), its position
    outside the form radical, membership of W_{-3}w in the vacuum-plus-
    weight-6 descendant sum, and the weight-8 dimension gap.

    Recorded comparisons (reported with exact per-monomial diffs, never
    assumed): the twelve recorded W_1 actions and the twelve recorded
    coefficients of the weight-9 vector, each checked verbatim against the
    engine. Mismatches are listed under recorded_mismatches and do not flip
    the pass flag; the weight-inconsistent monomial in the first action is
    additionally compared under its unique weight-consistent reading.

    Any other central charge runs the same computations in exploratory mode.
    """
    c = Fraction(c)
    mod = W3Module.get(c)
    checks: list[dict] = []

    checks.append(check_values("graded-dimensions-3-6", "PAPER", [2, 3, 4, 8],
                               [mod.dim(r) for r in range(3, 7)]))
    checks.append(check_values("graded-dimensions-7-8", "DERIVED", [10, 17],
                               [mod.dim(r) for r in (7, 8)]))
    basis6 = mod.basis(6)
    checks.append(check("weight6-basis-set", "PAPER",
                        sorted(w3_monomial_str(m) for m in WEIGHT6_BASIS_REFERENCE),
                        sorted(w3_monomial_str(m) for m in basis6),
                        set(basis6) == set(WEIGHT6_BASIS_REFERENCE) and len(basis6) == 8))

    primaries = {wt: mod.primary_space(wt) for wt in (4, 5, 6, 7)}
    checks.append(check_values("primary-dimensions-4-5-7", "PAPER", [0, 0, 0],
                               [len(primaries[w]) for w in (4, 5, 7)]))
    checks.append(check("primary-dimension-6", "PAPER", "1", str(len(primaries[6])),
                        len(primaries[6]) == 1))

    # The recorded weight-9 vector, straightened verbatim.
    recorded_words = [word for _, word in WEIGHT9_GENERATOR_TERMS]
    recorded_coeffs = [Fraction(cf) for cf, _ in WEIGHT9_GENERATOR_TERMS]
    straightened_words = [mod.apply_word(w) for w in recorded_words]
    u9_recorded = SparseVec.zero()
    for cf, sv in zip(recorded_coeffs, straightened_words):
        u9_recorded = u9_recorded + sv.scaled(cf)

    # The engine's weight-9 primary line.
    prim9 = mod.primary_space(9)
    checks.append(check("weight9-primary-dimension", "DERIVED", "1", str(len(prim9)),
                        len(prim9) == 1))

    u9 = prim9[0] if prim9 else None

    word_coords = None if u9 is None else coordinates(straightened_words, u9)
    checks.append(check("u9-in-recorded-span", "DERIVED", "yes",
                        "yes" if word_coords is not None else "no", word_coords is not None))

    recorded_terms = {_word_str(word): str(cf) for cf, word in WEIGHT9_GENERATOR_TERMS}
    u9_info = {
        "recorded_terms": recorded_terms,
        "recorded_straightened": mod.terms(u9_recorded),
    }

    if u9 is not None:
        u9_info["primary_straightened"] = mod.terms(u9)
        if word_coords is not None:
            u9_info["primary_word_coordinates"] = {
                _word_str(word): str(x)
                for word, x in zip(recorded_words, word_coords)}
        for n in (1, 2):
            img = mod.act("L", n, u9)
            checks.append(check(f"L{n}-kills-u9", "PAPER", "0",
                                mod.terms(img) or "0", img.is_zero()))
        w1u9 = mod.act("W", 1, u9)
        checks.append(check("W1-u9-nonzero", "PAPER", "nonzero",
                            "nonzero" if not w1u9.is_zero() else "0", not w1u9.is_zero(),
                            value=mod.terms(w1u9)))
        l2p4 = w1u9.coeff(((2, 2, 2, 2), ()))
        checks.append(check("W1-u9-L(-2)^4-coefficient", "PAPER", "nonzero", str(l2p4),
                            l2p4 != 0))
        pairings = [mod.pair(SparseVec.unit(b), u9) for b in mod.basis(9)]
        checks.append(check("u9-outside-form-radical", "PAPER", "nonzero pairing",
                            "nonzero" if any(pairings) else "all pairings 0", any(pairings)))
    else:
        for name in ("L1-kills-u9", "L2-kills-u9", "W1-u9-nonzero",
                     "W1-u9-L(-2)^4-coefficient", "u9-outside-form-radical"):
            checks.append(check(name, "PAPER", "-", "no weight-9 primary available", False))

    w_vec = SparseVec.unit(((), (3,)))
    # never empty: weight 6 has 8 monomials, and L_1 and L_2 impose at most
    # dim 5 + dim 4 = 4 + 3 = 7 conditions on them
    u6 = primaries[6][0]
    try:
        components, remainder = mod.decompose(
            SparseVec.unit(((), (3, 3))), [("w", w_vec), ("u6", u6)])
        checks.append(check("weight6-membership-w-component", "PAPER", "0",
                            mod.terms(components["w"]) or "0",
                            components["w"].is_zero(),
                            components={label: mod.terms(comp) or "0"
                                        for label, comp in components.items()}))
        checks.append(check("weight6-membership-remainder", "PAPER", "0",
                            mod.terms(remainder) or "0", remainder.is_zero()))
    except DegenerateBlockError as exc:
        for name in ("weight6-membership-w-component",
                     "weight6-membership-remainder"):
            checks.append(check(name, "PAPER", "0", f"undefined: {exc}", False))
    gap = mod.descendant_gap(8, [("w", w_vec), ("u6", u6)])
    checks.append(check("weight8-dimension-gap", "PAPER", "1", str(gap["gap"]),
                        gap["gap"] == 1,
                        detail={"dim": gap["dim"], "span_dim": gap["span_dim"],
                                "block_dims": gap["block_dims"]}))

    # -- verbatim comparisons against the recorded data ---------------------
    comparisons: list[dict] = []

    for idx, (word, printed) in enumerate(W1_ACTION_TABLE, start=1):
        computed = mod.apply_word(word)
        expected = SparseVec(printed)
        entry = {
            "name": f"w1-action-{idx:02d}",
            "source": "PAPER",
            "lhs": _word_str(word),
            "recorded": mod.terms(expected),
            "computed": mod.terms(computed),
            "matches": computed == expected,
        }
        if computed != expected:
            entry["diff"] = _vec_diff(mod, expected, computed)
        if INCONSISTENT_MONOMIAL in printed:
            moved = dict(printed)
            weight5_coeff = moved.pop(INCONSISTENT_MONOMIAL)
            _add_term(moved, CONSISTENT_READING, weight5_coeff)
            reread = SparseVec(moved)
            entry["weight_consistent_reading"] = {
                "moved": w3_monomial_str(INCONSISTENT_MONOMIAL),
                "read_as": w3_monomial_str(CONSISTENT_READING),
                "matches": computed == reread,
                "diff": _vec_diff(mod, reread, computed),
            }
        comparisons.append(entry)

    u9_entry = {
        "name": "u9-coefficients",
        "source": "PAPER",
        "recorded": recorded_terms,
        "matches": False,
        "residual_L1": mod.terms(mod.act("L", 1, u9_recorded)) or "0",
        "residual_L2": mod.terms(mod.act("L", 2, u9_recorded)) or "0",
    }
    if u9 is not None and word_coords is not None and word_coords[0]:
        scale = recorded_coeffs[0] / word_coords[0]
        scaled = [x * scale for x in word_coords]
        u9_entry["engine_scaled_to_recorded"] = {
            _word_str(word): str(x)
            for word, x in zip(recorded_words, scaled)}
        u9_entry["matches"] = scaled == recorded_coeffs
        u9_entry["diff"] = {
            _word_str(word): {"recorded": str(r), "computed": str(s)}
            for word, r, s in zip(recorded_words, recorded_coeffs, scaled)
            if r != s}
    comparisons.append(u9_entry)

    return report("thm32", {"c": str(c)}, checks, comparisons,
                  exploratory=c != 1, u9=u9_info)
