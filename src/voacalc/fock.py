"""Rank-one Heisenberg and lattice Fock spaces with exact vertex-operator
modes.

The Heisenberg algebra has modes alpha(m) with [alpha(m), alpha(n)] =
2km*delta_{m,-n} and alpha(0) acting on the charge-x sector by 2kx, where the
lattice is Z*alpha with (alpha, alpha) = 2k. A monomial is (parts, charge):
a descending tuple of positive integers standing for
alpha(-p_1)...alpha(-p_r) applied to 1 tensor e^{charge*alpha}; charges are
exact rationals (integral on the lattice space, arbitrary for the
single-charge modules). The weight of (parts, charge) is |parts| +
k*charge^2.

Vertex-operator modes Y(u, z) are computed exactly for every vector u of
the lattice space. For u = alpha(-p_1)...alpha(-p_r) e^{b*alpha}, Y(u, z)
is the normally ordered product of the fields d^(p-1)alpha(z)/(p-1)! with
Y(e^{b*alpha}, z) (Frenkel-Lepowsky-Meurman 1988). The factor of p has the
modes C(q-1, p-1) alpha(-q) z^(q-p) for q >= p, (-1)^(p-1) alpha(0) z^-p
and (-1)^(p-1) C(p+j-1, j) alpha(j) z^(-p-j) for j >= 1; e^{b*alpha} acts
as E^-(z) E^+(z) e_{b*alpha} z^{b*alpha(0)} with trivial two-cocycle
(all pairings are even). Every output monomial of u_n w has the part-sum
H = |u parts| + |w parts| - e0 - n - 1, e0 = 2kb*charge of w. u_n acts on
v one sector (charge, part-sum of its monomials) at a time, in normal order:
  1. annihilation: starting from every monomial of the sector, each
     oscillator p of u, largest first, creates (joins the tuple T of
     creating oscillators), acts as alpha(0), or removes one part j, on
     states (kept parts, T) that add up as they form; for b != 0, E^+(z)
     then removes t of the mult copies of each kept value (`_e_plus`);
  2. creation: C_T(Q) sums prod C(q_i-1, p_i-1) over the q_i >= p_i with
     sum Q, by the multiset of the q_i (one table serves a whole call); the
     kept parts meet C_T(H - |kept|) for b = 0, and for b != 0 C_T(Q) and
     the part-sum d = H - |kept| - Q terms of E^-(z) (`_exp_series`), once
     per kept parts, T and Q of the sector.
`heis_act`, `vir_act` and `lattice_vertex_mode` are the modes of
alpha(-1).1, omega and e^{b*alpha}, so `vertex_mode` is the one path into
the lattice kernel.

The steps run in ints. alpha(0) on the charge sector is num/q = 2k*charge
(q = 1 on the lattice space) and every oscillator of u contributes the
denominator q, so a value of u_n w is an int over q^len(u parts), times
H! when b != 0 (E^- of part-sum d is scaled by H!/d!). The ints of u and v
enter over their dens, and the values of all sectors meet in one
`core._int_sum`, whose pair is the returned vector.

theta is the involution alpha(n) -> -alpha(n), e^{x*alpha} -> e^{-x*alpha}.
The bilinear form has adjoints alpha(n) -> alpha(-n) and pairing
(e^{a*alpha}, e^{b*alpha}) = delta_{a+b,0}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb, factorial, isqrt, perm

from .core import (
    ONE,
    InputError,
    SparseVec,
    ZERO,
    _int_sum,
    check,
    check_values,
    partition_count,
    partitions,
    report,
    series_add,
)

FockMonomial = tuple  # (parts, charge): descending tuple of ints, Fraction

FOCK_SUITE_KS = (2, 3, 5)  # lattice parameters of `verify_fock`
FOCK_SUITE_NS = (2, 3)  # lattice parameters of its charged-doublet checks


def _add_term(d: dict, key, x: int) -> None:
    """Add x to the int of key in d, dropping it if the sum is 0."""
    acc = d.get(key)
    if acc is None:
        if x:
            d[key] = x
    else:
        acc += x
        if acc:
            d[key] = acc
        else:
            del d[key]


def _insert(parts, extra) -> tuple:
    """The descending tuple of parts together with the parts of extra."""
    return tuple(sorted((*parts, *extra), reverse=True))


def _z(parts) -> int:
    """z_lambda = prod_i i^(m_i) m_i! for the multiplicities m_i of the parts,
    in one pass over the runs of equal parts of the descending tuple: the
    r-th copy of i in its run contributes i*r."""
    z, prev, run = 1, None, 0
    for val in parts:
        run = run + 1 if val == prev else 1
        z *= val * run
        prev = val
    return z


EXP_SERIES_CACHE = 256  # (b, d) tables kept by `_exp_series`


@lru_cache(maxsize=EXP_SERIES_CACHE)
def _exp_series(b: int, d: int) -> tuple:
    """The weight-d terms of exp(b sum_{p>=1} alpha(-p) z^p / p), times d!:
    (lam, d!*b^len(lam)/z_lam) over partitions(d), all ints, since z_lam
    divides d! (Macdonald, Symmetric Functions, I.2)."""
    fact = factorial(d)
    return tuple((lam, fact // _z(lam) * b ** len(lam)) for lam in partitions(d, 1))


class FockSpace:
    """Fock spaces over the rank-one lattice with (alpha, alpha) = 2k."""

    def __init__(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise InputError("the lattice parameter k must be a positive integer")
        self.k = k

    VACUUM: FockMonomial = ((), Fraction(0))

    def weight(self, mono: FockMonomial) -> Fraction:
        parts, charge = mono
        return sum(parts) + self.k * Fraction(charge) ** 2

    # -- Heisenberg action ----------------------------------------------------

    def heis_act(self, m: int, v) -> SparseVec:
        """alpha(m) on a vector or monomial: the mode m of alpha(-1).1."""
        return self.vertex_mode(SparseVec.unit(((1,), ZERO)), m, v)

    # -- distinguished vectors ------------------------------------------------

    def omega(self) -> SparseVec:
        """Conformal vector alpha(-1)^2/(4k) . 1."""
        return SparseVec({((1, 1), Fraction(0)): Fraction(1, 4 * self.k)})

    def jvec(self) -> SparseVec:
        """Weight-4 theta-invariant vector
        alpha(-1)^4/(4k^2) - alpha(-3)alpha(-1)/k + 3 alpha(-2)^2/(4k) . 1."""
        k = self.k
        return SparseVec({
            ((1, 1, 1, 1), Fraction(0)): Fraction(1, 4 * k * k),
            ((3, 1), Fraction(0)): Fraction(-1, k),
            ((2, 2), Fraction(0)): Fraction(3, 4 * k),
        })

    def xvec(self, charge) -> SparseVec:
        """Pure exponential e^{charge*alpha}."""
        return SparseVec.unit(((), Fraction(charge)))

    def evec(self, m) -> SparseVec:
        """theta-invariant combination e^{m*alpha} + e^{-m*alpha}."""
        if m == 0:
            raise InputError("evec needs a nonzero charge")
        return self.xvec(m) + self.xvec(-m)

    # -- vertex-operator modes ------------------------------------------------

    def vertex_mode(self, u, n: int, v) -> SparseVec:
        """Mode u_n of Y(u, z) applied to v, for any vector or monomial u of
        the lattice space, in the normal order of the module docstring: one
        annihilation pass and one creation step per sector of v and (charge,
        part-sum) of u, which share H and one denominator."""
        created: dict = {}  # (T, Q) -> C_T(Q) for Q >= sum(T), for this call

        def creations(osc, total) -> dict:
            if not osc:
                return {} if total else {(): 1}
            if (out := created.get((osc, total))) is None:
                out = created[osc, total] = {}
                p, rest = osc[0], osc[1:]
                for q in range(p, total - sum(rest) + 1) if rest else (total,):
                    c = comb(q - 1, p - 1)
                    for extra, x in creations(rest, total - q).items():
                        _add_term(out, _insert(extra, (q,)), c * x)
            return out

        u, v = SparseVec.of(u), SparseVec.of(v)
        by_sum: dict = {}  # (u charge, u part-sum) -> [(u parts, int)]
        for (uparts, ucharge), x in u._ints.items():
            by_sum.setdefault((ucharge, sum(uparts)), []).append((uparts, x))
        sectors: dict = {}  # (v charge, v part-sum) -> [(parts, int)]
        for (parts, charge), x in v._ints.items():
            sectors.setdefault((charge, sum(parts)), []).append((parts, x))
        pieces: list = []  # (1, denominator, {(parts, output charge): int})
        setups: dict = {}  # (u charge, u part-sum, v charge) -> (b, e0, num, q, den, terms)
        two_k = 2 * self.k
        for (charge, vsum), starts in sectors.items():
            for (ucharge, usum), uterms in by_sum.items():
                if (setup := setups.get((ucharge, usum, charge))) is None:
                    zero = two_k * charge  # alpha(0) on the sector, num / q
                    b, e0 = self._exponent(ucharge, zero)
                    q = zero.denominator
                    top = max(len(uparts) for uparts, _ in uterms)
                    setup = setups[ucharge, usum, charge] = (
                        b, e0, zero.numerator, q, u._den * v._den * q ** top,
                        [(uparts, x * q ** (top - len(uparts))) for uparts, x in uterms])
                b, e0, num, q, den, terms = setup
                height = usum + vsum - e0 - n - 1
                if height < 0:
                    continue
                # annihilation: kept parts of v -> {creating oscillators T: int}
                final: dict = {}
                for uparts, cu in terms:
                    states = {(parts, ()): cu * x for parts, x in starts}
                    for p in uparts:
                        sign = 1 if p % 2 else -1
                        step: dict = {}
                        for (kept, osc), x in states.items():
                            if sum(osc) + p <= height:
                                _add_term(step, (kept, (*osc, p)), q * x)
                            if num:
                                _add_term(step, (kept, osc), sign * num * x)
                            for j in set(kept):
                                i = kept.index(j)
                                c = sign * comb(p + j - 1, j) * two_k * j * kept.count(j) * q
                                _add_term(step, (kept[:i] + kept[i + 1:], osc), c * x)
                        states = step
                    for (kept, osc), x in states.items():
                        xs = final.setdefault(kept, {})
                        xs[osc] = xs.get(osc, 0) + x
                # creation: C_T(Q) after the kept parts, and for b != 0 after
                # E^-(z) of part-sum d = H - |kept| - Q, scaled by H!/d!
                ints: dict = {}
                for kept, xs in (self._e_plus(b, final) if b else final).items():
                    room = height - sum(kept)
                    if room < 0:
                        continue
                    if not b:
                        for osc, x in xs.items():
                            if room >= sum(osc):
                                for extra, c in creations(osc, room).items():
                                    _add_term(ints, _insert(kept, extra) if extra else kept, c * x)
                        continue
                    for total in range(min(map(sum, xs)), room + 1 if any(xs) else 1):
                        made: dict = {}
                        for osc, x in xs.items():
                            if sum(osc) <= total:
                                for extra, c in creations(osc, total).items():
                                    _add_term(made, extra, c * x)
                        series = _exp_series(b, room - total) if made else ()
                        scale = perm(height, total + sum(kept))
                        for extra, y in made.items():
                            base, y = (*kept, *extra), scale * y
                            for lam, c in series:
                                _add_term(ints, _insert(base, lam), y * c)
                if ints:
                    out_charge = ucharge + charge
                    pieces.append((1, den * (factorial(height) if b else 1),
                                   {(new, out_charge): x for new, x in ints.items()}))
        return SparseVec._raw(*_int_sum(pieces))

    def _exponent(self, b, zero) -> tuple[int, int]:
        """(b, e0) as ints, e0 = b*zero with zero = 2k*charge, alpha(0) on
        the charge sector: e^{b*alpha}(z) carries z^e0 there, so its modes
        are integral only when e0 is."""
        if (b := Fraction(b)).denominator != 1:
            raise InputError(
                f"operator charge {b} is not an integer; the operator lies "
                "outside the lattice and would produce non-integer charges")
        e0, rest = divmod(b.numerator * zero.numerator, zero.denominator)
        if rest:
            raise InputError(
                f"mode exponent 2k*b*charge = {b * zero} is not an integer; "
                "the operator has no integral modes on this charge sector")
        return b.numerator, e0

    def lattice_vertex_mode(self, b, n: int, v) -> SparseVec:
        """Mode (e^{b*alpha})_n of the lattice operator with charge b != 0."""
        if Fraction(b) == 0:
            raise InputError("lattice operator needs a nonzero charge")
        return self.vertex_mode(self.xvec(b), n, v)

    def _e_plus(self, b: int, states: dict) -> dict:
        """E^+(z) of e^{b*alpha} on {kept parts: {T: int}}: it removes t of
        the mult copies of each part value with the factor C(mult, t)
        (-2kb)^t, and the states that reach the same parts add up."""
        out: dict = {}
        for parts, xs in states.items():
            values = sorted(set(parts), reverse=True)
            mults = [parts.count(val) for val in values]
            for removed in product(*(range(mult + 1) for mult in mults)):
                factor, kept = 1, ()
                for val, mult, t in zip(values, mults, removed):
                    factor *= comb(mult, t) * (-2 * self.k * b) ** t
                    kept += (val,) * (mult - t)
                acc = out.setdefault(kept, {})
                for osc, x in xs.items():
                    acc[osc] = acc.get(osc, 0) + factor * x
        return out

    def vir_act(self, n: int, v) -> SparseVec:
        """L_n via the conformal vector: L_n = (omega)_{n+1}."""
        return self.vertex_mode(self.omega(), n + 1, v)

    # -- involution and bilinear form ----------------------------------------

    def theta(self, v) -> SparseVec:
        v = SparseVec.of(v)
        return SparseVec._raw({(parts, -charge): -x if len(parts) % 2 else x
                               for (parts, charge), x in v._ints.items()}, v._den)

    def bilinear(self, u, v) -> Fraction:
        """Contravariant form: alpha(n) adjoint alpha(-n),
        (e^{a*alpha}, e^{b*alpha}) = delta_{a+b,0}, (1,1) = 1."""
        v = SparseVec.of(v)
        total = ZERO
        for (parts, charge), au in SparseVec.of(u).items():
            if av := v.coeff((parts, -charge)):
                total += au * av * (2 * self.k) ** len(parts) * _z(parts)
        return total

    # -- bases and characters -------------------------------------------------

    def _charges(self, weight: int) -> list[int]:
        """Integer charges x with k*x^2 <= weight, in the order 0, 1, -1, ..."""
        top = isqrt(max(weight, 0) // self.k)
        return [0, *(s * x for x in range(1, top + 1) for s in (1, -1))]

    def basis(self, space: str, weight: int) -> list[FockMonomial]:
        """Monomial basis of "m1" (charge 0) or "vl" (all integer charges)."""
        if space not in ("m1", "vl"):
            raise InputError(f"unknown space {space!r}; expected 'm1' or 'vl'")
        charges = (0,) if space == "m1" else self._charges(weight)
        return [(lam, Fraction(x)) for x in charges
                for lam in partitions(weight - self.k * x * x, 1)]

    def theta_basis(self, sign: str, space: str, weight: int) -> list[SparseVec]:
        """Deterministic basis of the theta eigenspace ("+" or "-")."""
        if sign not in ("+", "-"):
            raise InputError("sign must be '+' or '-'")
        eigenvalue = ONE if sign == "+" else -ONE
        out = []
        for mono in self.basis(space, weight):
            vec = SparseVec.unit(mono)
            if mono[1] > 0:
                out.append(vec + self.theta(vec).scaled(eigenvalue))
            elif mono[1] == 0 and self.theta(vec) == vec.scaled(eigenvalue):
                out.append(vec)
        return out

    def char_series(self, space: str, cutoff: int) -> list[int]:
        """Graded dimensions q^0..q^cutoff for space in {m1, m1+, m1-, vl,
        vl+, vl-}, counted without building bases. theta pairs the charges x
        and -x one to one and multiplies a charge-0 monomial by
        (-1)^(number of parts). A partition has as many parts as the largest
        part j of its conjugate; partition_count(n - j, 1, j) counts those."""
        if cutoff < 0:
            raise InputError("cutoff must be nonnegative")
        base, sign = (space[:-1], space[-1:]) if space[-1:] in "+-" else (space, "")
        if base not in ("m1", "vl"):
            raise InputError(f"unknown space {space!r}")
        out = []
        for n in range(cutoff + 1):
            pairs = sum(partition_count(n - self.k * x * x)
                        for x in self._charges(n) if x > 0 and base == "vl")
            if sign:
                first = 0 if sign == "+" else 1
                out.append(pairs + sum(partition_count(n - j, 1, j)
                                       for j in range(first, n + 1, 2)))
            else:
                out.append(partition_count(n) + 2 * pairs)
        return out


def monomial_str(mono: FockMonomial) -> str:
    """Render e.g. a(-3)a(-1)e(2); the vacuum renders as 1."""
    parts, charge = mono
    body = "".join(f"a({-p})" for p in parts)
    if charge:
        body += f"e({charge})"
    return body or "1"


def vector_str_terms(v: SparseVec) -> dict[str, str]:
    keys = sorted(v.keys(), key=lambda mono: (mono[1], mono[0]))
    return {monomial_str(m): str(v.coeff(m)) for m in keys}


# -- reference series for the character identities ---------------------------

def even_square_sum_series(cutoff: int) -> list[int]:
    """Sum of the irreducible c=1 characters at weights (2i)^2, i >= 0."""
    from .virasoro import irreducible_character_c1
    return reduce(series_add, (irreducible_character_c1(m * m, cutoff)
                               for m in range(0, isqrt(max(cutoff, 0)) + 1, 2)))


def lattice_charge_tail_series(k: int, cutoff: int) -> list[int]:
    """Sum over m >= 1 of q^{k m^2} / euler-product, truncated."""
    from .virasoro import verma_character
    return reduce(series_add, (verma_character(k * m * m, cutoff)
                               for m in range(1, isqrt(max(cutoff, 0) // k) + 1)),
                  [0] * (cutoff + 1))


# -- named verification suites ------------------------------------------------


def j3_eigenvalue(space: FockSpace, m: int) -> tuple[Fraction, bool]:
    """The eigenvalue 4m^4k^2 - m^2k of the mode J_3 of the weight-4 vector J
    on E^m = e^{m*alpha} + e^{-m*alpha}, and whether vertex_mode gives
    exactly that multiple of E^m."""
    k = space.k
    ev = Fraction(4 * m ** 4 * k ** 2 - m ** 2 * k)
    e = space.evec(m)
    return ev, space.vertex_mode(space.jvec(), 3, e) == e.scaled(ev)


def verify_lemma57(k: int = 3, cutoff: int = 20) -> dict:
    """Character decomposition of the orbifold spaces and the degree-4
    eigenvalue separating the charged summands."""
    space = FockSpace(k)
    m1p = space.char_series("m1+", cutoff)
    checks = [
        check_values("m1plus-series-head", "PAPER", [1, 0, 1, 1, 3, 3, 6, 7, 12, 14],
                     space.char_series("m1+", 9)),
        check_values("m1plus-equals-even-square-character-sum", "PAPER",
                     even_square_sum_series(cutoff), m1p, cutoff=cutoff),
        check_values("vlplus-orbifold-decomposition", "PAPER",
                     series_add(m1p, lattice_charge_tail_series(k, cutoff)),
                     space.char_series("vl+", cutoff), cutoff=cutoff, k=k),
    ]
    for m in (1, 2):
        ev, ok = j3_eigenvalue(space, m)
        checks.append(check(
            f"j3-eigenvalue-E{m}", "PAPER",
            f"(4*{m}^4*{k}^2 - {m}^2*{k})*E({m}) = {ev}*E({m})",
            "match" if ok else "mismatch", ok, k=k, m=m))

    return report("lemma57", {"k": k, "cutoff": cutoff}, checks)


def verify_fock() -> dict:
    """Bilinear-form values, mode-product identities, and the zero-mode
    eigenvalue on the charged doublet, with the recorded sign reported as a
    comparison."""
    ks, ns = FOCK_SUITE_KS, FOCK_SUITE_NS
    spaces = [FockSpace(k) for k in ks]
    one = SparseVec.unit(FockSpace.VACUUM)
    j7j = [sp.vertex_mode(sp.jvec(), 7, sp.jvec()) == one.scaled(Fraction(54))
           for sp in spaces]
    checks = [
        check_values("vacuum-norm", "PAPER", [1] * len(ks),
                     [sp.bilinear(one, one) for sp in spaces], ks=list(ks)),
        check_values("e1-norm", "PAPER", [2] * len(ks),
                     [sp.bilinear(sp.evec(1), sp.evec(1)) for sp in spaces], ks=list(ks)),
        check_values("j7-on-j", "PAPER", ["54*1"] * len(ks),
                     ["54*1" if ok else "unexpected" for ok in j7j], ks=list(ks)),
    ]
    for sp in spaces:
        for m in (1, 2):
            ev, ok = j3_eigenvalue(sp, m)
            checks.append(check(f"j3-eigenvalue-k{sp.k}-m{m}", "PAPER",
                                f"{ev}*E({m})", "match" if ok else "mismatch", ok))

    comparisons: list[dict] = []
    for n in ns:
        sp = FockSpace(n)
        x1, x2, x3 = sp.xvec(1), sp.xvec(-1), sp.xvec(-2)

        vals = (sp.bilinear(x1, x1), sp.bilinear(x2, x2), sp.bilinear(x1, x2))
        checks.append(check_values(f"x-doublet-pairings-n{n}", "PAPER", [0, 0, 1], vals))

        for name, b, mode, x, want, label in (("x2-lowering", -1, -2 * n - 1, x2, x3, "X3"),
                                              ("x1-raising", 1, 4 * n - 1, x3, x2, "X2")):
            ok = sp.lattice_vertex_mode(Fraction(b), mode, x) == want
            checks.append(check(f"{name}-product-n{n}", "PAPER", label,
                                label if ok else "unexpected", ok))

        trunc_ok = all(
            sp.lattice_vertex_mode(Fraction(-1), i, x2).is_zero()
            for i in range(-2 * n, -2 * n + 6))
        checks.append(check(
            f"x2-truncation-n{n}", "PAPER", "0 for modes >= -2n",
            "0" if trunc_ok else "nonzero", trunc_ok))

        # zero mode of the charge-0 product X1_{2n-2} X2 on X2
        inner = sp.lattice_vertex_mode(Fraction(1), 2 * n - 2, x2)
        zero_mode = sp.vertex_mode(inner, 0, x2)
        engine = x2.scaled(Fraction(-2 * n))
        checks.append(check(
            f"x1x2-zero-mode-eigenvalue-n{n}", "DERIVED",
            f"{-2 * n}*X2",
            f"{-2 * n}*X2" if zero_mode == engine else "unexpected",
            zero_mode == engine))
        recorded = x2.scaled(Fraction(2 * n))
        matches = zero_mode == recorded
        comparisons.append({
            "name": f"x1x2-zero-mode-recorded-n{n}",
            "source": "PAPER",
            "recorded": f"{2 * n}*X2",
            "computed": f"{-2 * n}*X2" if zero_mode == engine else "other",
            "matches": matches,
            "diff": "" if matches else
                    "sign: computed eigenvalue is the negative of the recorded one",
        })

    for sp in spaces:
        em = sp.xvec(-1)
        ok = (sp.lattice_vertex_mode(Fraction(1), 2 * sp.k - 1, em) == one
              and all(sp.lattice_vertex_mode(Fraction(1), nn, em).is_zero()
                      for nn in range(2 * sp.k, 2 * sp.k + 3)))
        checks.append(check(
            f"e-leading-mode-k{sp.k}", "DERIVED", "1 at mode 2k-1, 0 above",
            "match" if ok else "unexpected", ok))

    return report("fock", {"ks": list(ks), "ns": list(ns)}, checks, comparisons)
