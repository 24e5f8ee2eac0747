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
the lattice space. The lattice operators are the base case: e^{b*alpha}
acts as E^-(z) E^+(z) e_{b*alpha} z^{2kb*alpha(0)-pairing} with trivial
two-cocycle (all pairings are even), and its exponential series truncate by
the output weight. Every other monomial a(-p)u' reduces to u' by the iterate
(normal-ordering) formula
    (a(-p)u')_(n) = sum_{j>=0} C(p+j-1, j) [a(-p-j) u'_(n+j)
                                           + (-1)^(p+1) u'_(n-p-j) a(j)],
down to 1_(n) = delta_{n,-1} or to a lattice operator (Kac, Vertex Algebras
for Beginners; Lepowsky-Li 2004).

theta is the involution alpha(n) -> -alpha(n), e^{x*alpha} -> e^{-x*alpha}.
The bilinear form has adjoints alpha(n) -> alpha(-n) and pairing
(e^{a*alpha}, e^{b*alpha}) = delta_{a+b,0}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .core import (
    ONE,
    InputError,
    SparseVec,
    ZERO,
    _add_term,
    check,
    partitions,
    series_add,
    inverse_euler,
)
from .virasoro import irreducible_character_c1

FockMonomial = tuple  # (parts, charge): descending tuple of ints, Fraction


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
        """alpha(m) applied to a vector or monomial."""
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        out: dict = {}
        for (parts, charge), coef in v.items():
            if m < 0:
                new = tuple(sorted(parts + (-m,), reverse=True))
                _add_term(out, (new, charge), coef)
            elif m == 0:
                factor = 2 * self.k * charge
                if factor:
                    _add_term(out, (parts, charge), coef * factor)
            else:
                mult = parts.count(m)
                if mult:
                    reduced = list(parts)
                    reduced.remove(m)
                    _add_term(out, (tuple(reduced), charge),
                              coef * 2 * self.k * m * mult)
        return SparseVec._raw(out)

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

    def vertex_mode(self, u: SparseVec, n: int, v) -> SparseVec:
        """Mode u_n of Y(u, z) applied to v, for any vector u of the lattice
        space, by the iterate formula of the module docstring.

        Heisenberg modes keep charges, so for one monomial w of v the
        recursion of all terms of u of one charge stays in one charge sector
        and shares one memo of u'_(m) w, keyed by (u' parts, m, w parts).
        The memos are dropped before the next monomial of v: kept for the
        whole call they grow with the length of v.
        """
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        k2 = 2 * self.k

        def sector(ucharge, charge):
            e0 = self._exponent(ucharge, charge) if ucharge else 0
            memo: dict = {}

            def mode(uparts, m, parts) -> dict:
                # u'_(m) w lies below k*(ucharge + charge)^2, the lowest
                # weight of its charge sector, hence vanishes, once m >= top
                top = sum(uparts) + sum(parts) - e0
                if m >= top:
                    return {}
                key = (uparts, m, parts)
                out = memo.get(key)
                if out is not None:
                    return out
                out = {}
                if not uparts:
                    if ucharge:
                        lattice = self.lattice_vertex_mode(ucharge, m, (parts, charge))
                        out = {new: x for (new, _), x in lattice.items()}
                    elif m == -1:
                        out = {parts: 1}
                else:
                    p, rest = uparts[0], uparts[1:]
                    for j in range(top - p - m):
                        c = comb(p + j - 1, j)
                        for new, x in mode(rest, m + j, parts).items():
                            new = tuple(sorted(new + (p + j,), reverse=True))
                            _add_term(out, new, c * x)
                    # a(j) w = factor * low: a(0) scales by 2k*charge,
                    # a(j > 0) removes a part j
                    lowered = [(0, k2 * charge, parts)] if charge else []
                    for j in set(parts):
                        low = list(parts)
                        low.remove(j)
                        lowered.append((j, k2 * j * parts.count(j), tuple(low)))
                    sign = 1 if p % 2 else -1
                    for j, factor, low in lowered:
                        c = sign * comb(p + j - 1, j) * factor
                        for new, x in mode(rest, m - p - j, low).items():
                            _add_term(out, new, c * x)
                memo[key] = out
                return out

            return mode

        out: dict = {}
        for (parts, charge), cv in v.items():
            sectors: dict = {}
            for (uparts, ucharge), cu in u.items():
                if ucharge not in sectors:
                    sectors[ucharge] = sector(ucharge, charge)
                for new, x in sectors[ucharge](uparts, n, parts).items():
                    _add_term(out, (new, ucharge + charge), cu * cv * x)
        return SparseVec._raw(out)

    def _exponent(self, b, charge) -> int:
        """2k*b*charge: e^{b*alpha}(z) carries z^(2k*b*charge) on the
        charge sector, so its modes are integral only when this is."""
        if Fraction(b).denominator != 1:
            raise InputError(
                f"operator charge {b} is not an integer; the operator lies "
                "outside the lattice and would produce non-integer charges")
        e0 = 2 * self.k * b * charge
        if e0.denominator != 1:
            raise InputError(
                f"mode exponent 2k*b*charge = {e0} is not an integer; "
                "the operator has no integral modes on this charge sector")
        return int(e0)

    def lattice_vertex_mode(self, b, n: int, v) -> SparseVec:
        """Mode (e^{b*alpha})_n of the lattice operator with charge b != 0."""
        b = Fraction(b)
        if b == 0:
            raise InputError("lattice operator needs a nonzero charge")
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        out: dict = {}
        for (parts, charge), cv in v.items():
            e0 = self._exponent(b, charge)
            values = sorted(set(parts))
            # E^+(z) removes t of the mult copies of each part value with the
            # factor C(mult, t) (-2kb)^t; E^-(z) then adds a partition lam
            for removed in product(*(range(parts.count(val) + 1) for val in values)):
                factor, kept, dplus = cv, [], 0
                for val, t in zip(values, removed):
                    mult = parts.count(val)
                    factor *= comb(mult, t) * (-2 * self.k * b) ** t
                    kept += [val] * (mult - t)
                    dplus += val * t
                for lam in partitions(-n - 1 - e0 + dplus, 1):
                    # coefficient of alpha(-lam) in exp(b sum_p alpha(-p) z^p / p)
                    den = 1
                    for val in set(lam):
                        den *= val ** lam.count(val) * factorial(lam.count(val))
                    new_parts = tuple(sorted(kept + list(lam), reverse=True))
                    _add_term(out, (new_parts, charge + b),
                              factor * b ** len(lam) / den)
        return SparseVec._raw(out)

    def vir_act(self, n: int, v) -> SparseVec:
        """L_n via the conformal vector: L_n = (omega)_{n+1}."""
        return self.vertex_mode(self.omega(), n + 1, v)

    # -- involution and bilinear form ----------------------------------------

    def theta(self, v) -> SparseVec:
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        out: dict = {}
        for (parts, charge), coef in v.items():
            sign = -ONE if len(parts) % 2 else ONE
            _add_term(out, (parts, -charge), coef * sign)
        return SparseVec._raw(out)

    def bilinear(self, u, v) -> Fraction:
        """Contravariant form: alpha(n) adjoint alpha(-n),
        (e^{a*alpha}, e^{b*alpha}) = delta_{a+b,0}, (1,1) = 1."""
        if not isinstance(u, SparseVec):
            u = SparseVec.unit(u)
        if not isinstance(v, SparseVec):
            v = SparseVec.unit(v)
        total = ZERO
        for (pu, cu), au in u.items():
            for (pv, cv), av in v.items():
                if cu + cv != 0 or pu != pv:
                    continue
                norm = ONE
                for val in set(pu):
                    mult = pu.count(val)
                    norm *= (Fraction(2 * self.k * val) ** mult
                             * factorial(mult))
                total += au * av * norm
        return total

    # -- bases and characters -------------------------------------------------

    def _charges(self, weight: int):
        """Integer charges x with k*x^2 <= weight, in the order 0, 1, -1, ..."""
        yield 0
        x = 1
        while self.k * x * x <= weight:
            yield x
            yield -x
            x += 1

    def basis(self, space: str, weight: int) -> list[FockMonomial]:
        """Monomial basis of "m1" (charge 0) or "vl" (all integer charges)."""
        if weight < 0:
            return []
        if space == "m1":
            return [(lam, Fraction(0)) for lam in partitions(weight, 1)]
        if space == "vl":
            out = []
            for x in self._charges(weight):
                rest = weight - self.k * x * x
                for lam in partitions(rest, 1):
                    out.append((lam, Fraction(x)))
            return out
        raise InputError(f"unknown space {space!r}; expected 'm1' or 'vl'")

    def theta_basis(self, sign: str, space: str, weight: int) -> list[SparseVec]:
        """Deterministic basis of the theta eigenspace ("+" or "-")."""
        if sign not in ("+", "-"):
            raise InputError("sign must be '+' or '-'")
        want = 0 if sign == "+" else 1
        out = []
        for mono in self.basis(space, weight):
            parts, charge = mono
            if charge == 0:
                if len(parts) % 2 == want:
                    out.append(SparseVec.unit(mono))
            elif charge > 0:
                mirror = (parts, -charge)
                vec = SparseVec.unit(mono)
                flip = -ONE if (len(parts) % 2 != want) else ONE
                out.append(vec + SparseVec.unit(mirror).scaled(flip))
        return out

    def char_series(self, space: str, cutoff: int) -> list[int]:
        """Graded dimensions q^0..q^cutoff by direct basis counting for
        space in {m1, m1+, m1-, vl, vl+, vl-}."""
        if cutoff < 0:
            raise InputError("cutoff must be nonnegative")
        base, sign = (space[:-1], space[-1]) if space[-1] in "+-" else (space, "")
        if base not in ("m1", "vl"):
            raise InputError(f"unknown space {space!r}")
        out = []
        for n in range(cutoff + 1):
            if sign:
                out.append(len(self.theta_basis(sign, base, n)))
            else:
                out.append(len(self.basis(base, n)))
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
    total = [0] * (cutoff + 1)
    i = 0
    while (2 * i) ** 2 <= cutoff:
        total = series_add(total,
                           irreducible_character_c1((2 * i) ** 2, cutoff))
        i += 1
    return total


def lattice_charge_tail_series(k: int, cutoff: int) -> list[int]:
    """Sum over m >= 1 of q^{k m^2} / euler-product, truncated."""
    inv = inverse_euler(cutoff)
    total = [0] * (cutoff + 1)
    m = 1
    while k * m * m <= cutoff:
        shift = k * m * m
        shifted = [0] * (cutoff + 1)
        for i in range(cutoff + 1 - shift):
            shifted[i + shift] = inv[i]
        total = series_add(total, shifted)
        m += 1
    return total


# -- named verification suites ------------------------------------------------


def verify_lemma57(k: int = 3, cutoff: int = 20) -> dict:
    """Character decomposition of the orbifold spaces and the degree-4
    eigenvalue separating the charged summands."""
    space = FockSpace(k)
    checks: list[dict] = []

    head = space.char_series("m1+", 9)
    expected_head = [1, 0, 1, 1, 3, 3, 6, 7, 12, 14]
    checks.append(check(
        "m1plus-series-head", "PAPER",
        ",".join(str(x) for x in expected_head),
        ",".join(str(x) for x in head),
        head == expected_head))

    m1p = space.char_series("m1+", cutoff)
    square_sum = even_square_sum_series(cutoff)
    checks.append(check(
        "m1plus-equals-even-square-character-sum", "PAPER",
        ",".join(str(x) for x in square_sum),
        ",".join(str(x) for x in m1p),
        m1p == square_sum, cutoff=cutoff))

    vlp = space.char_series("vl+", cutoff)
    decomposition = series_add(m1p, lattice_charge_tail_series(k, cutoff))
    checks.append(check(
        "vlplus-orbifold-decomposition", "PAPER",
        ",".join(str(x) for x in decomposition),
        ",".join(str(x) for x in vlp),
        vlp == decomposition, cutoff=cutoff, k=k))

    j = space.jvec()
    for m in (1, 2):
        ev = Fraction(4 * m ** 4 * k ** 2 - m ** 2 * k)
        target = space.evec(m).scaled(ev)
        got = space.vertex_mode(j, 3, space.evec(m))
        checks.append(check(
            f"j3-eigenvalue-E{m}", "PAPER",
            f"(4*{m}^4*{k}^2 - {m}^2*{k})*E({m}) = {ev}*E({m})",
            "match" if got == target else "mismatch",
            got == target, k=k, m=m))

    return {
        "suite": "lemma57",
        "params": {"k": k, "cutoff": cutoff},
        "checks": checks,
        "pass": all(ch["pass"] for ch in checks),
    }


def verify_fock(ks=(2, 3, 5), ns=(2, 3)) -> dict:
    """Bilinear-form values, mode-product identities, and the zero-mode
    eigenvalue on the charged doublet, with the recorded sign reported as a
    comparison."""
    ks, ns = tuple(ks), tuple(ns)
    checks: list[dict] = []
    comparisons: list[dict] = []

    vac_norms = []
    e_norms = []
    j7j = []
    for k in ks:
        sp = FockSpace(k)
        one = SparseVec.unit(sp.VACUUM)
        vac_norms.append(sp.bilinear(one, one))
        e = sp.evec(1)
        e_norms.append(sp.bilinear(e, e))
        j = sp.jvec()
        got = sp.vertex_mode(j, 7, j)
        j7j.append("54*1" if got == one.scaled(Fraction(54)) else
                   "unexpected")
    checks.append(check(
        "vacuum-norm", "PAPER", ",".join("1" for _ in ks),
        ",".join(str(x) for x in vac_norms),
        all(x == 1 for x in vac_norms), ks=list(ks)))
    checks.append(check(
        "e1-norm", "PAPER", ",".join("2" for _ in ks),
        ",".join(str(x) for x in e_norms),
        all(x == 2 for x in e_norms), ks=list(ks)))
    checks.append(check(
        "j7-on-j", "PAPER", ",".join("54*1" for _ in ks),
        ",".join(j7j), all(x == "54*1" for x in j7j), ks=list(ks)))

    for k in ks:
        sp = FockSpace(k)
        j = sp.jvec()
        for m in (1, 2):
            ev = Fraction(4 * m ** 4 * k ** 2 - m ** 2 * k)
            got = sp.vertex_mode(j, 3, sp.evec(m))
            ok = got == sp.evec(m).scaled(ev)
            checks.append(check(
                f"j3-eigenvalue-k{k}-m{m}", "PAPER",
                f"{ev}*E({m})", "match" if ok else "mismatch", ok))

    for n in ns:
        sp = FockSpace(n)
        x1, x2, x3 = sp.xvec(1), sp.xvec(-1), sp.xvec(-2)

        vals = (sp.bilinear(x1, x1), sp.bilinear(x2, x2), sp.bilinear(x1, x2))
        checks.append(check(
            f"x-doublet-pairings-n{n}", "PAPER", "0,0,1",
            ",".join(str(v) for v in vals), vals == (0, 0, 1)))

        got = sp.lattice_vertex_mode(Fraction(-1), -2 * n - 1, x2)
        checks.append(check(
            f"x2-lowering-product-n{n}", "PAPER", "X3",
            "X3" if got == x3 else "unexpected", got == x3))

        got = sp.lattice_vertex_mode(Fraction(1), 4 * n - 1, x3)
        checks.append(check(
            f"x1-raising-product-n{n}", "PAPER", "X2",
            "X2" if got == x2 else "unexpected", got == x2))

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

    for k in ks:
        sp = FockSpace(k)
        em = sp.xvec(-1)
        lead = sp.lattice_vertex_mode(Fraction(1), 2 * k - 1, em)
        ok = lead == SparseVec.unit(sp.VACUUM)
        tail_ok = all(
            sp.lattice_vertex_mode(Fraction(1), nn, em).is_zero()
            for nn in range(2 * k, 2 * k + 3))
        checks.append(check(
            f"e-leading-mode-k{k}", "DERIVED", "1 at mode 2k-1, 0 above",
            "match" if (ok and tail_ok) else "unexpected", ok and tail_ok))

    return {
        "suite": "fock",
        "params": {"ks": list(ks), "ns": list(ns)},
        "checks": checks,
        "recorded_comparisons": comparisons,
        "recorded_mismatches": [c["name"] for c in comparisons
                                if not c["matches"]],
        "pass": all(ch["pass"] for ch in checks),
    }
