import random
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial, perm, prod

import pytest

from voacalc import fock
from voacalc.core import InputError, SparseVec, kernel, partitions
from voacalc.fock import (
    FockSpace,
    _exp_series,
    even_square_sum_series,
    lattice_charge_tail_series,
    monomial_str,
    verify_fock,
    verify_lemma57,
)

from oracles import (
    bilinear_by_pairs,
    exp_series_by_recurrence,
    lattice_by_terms,
    lattice_vertex_mode_by_commutation,
    vertex_mode_by_iterate,
    vertex_mode_by_slots,
)


@pytest.fixture(scope="module")
def k2():
    return FockSpace(2)


@pytest.fixture(scope="module")
def k3():
    return FockSpace(3)


def unit(parts, charge=0):
    return SparseVec.unit((tuple(parts), Fraction(charge)))


def test_heisenberg_relations(k2):
    one = SparseVec.unit(k2.VACUUM)
    # a(1) a(-1) 1 = 2k * 1
    out = k2.heis_act(1, k2.heis_act(-1, one))
    assert {m: out.coeff(m) for m in out.keys()} == {k2.VACUUM: Fraction(4)}
    # a(0) e^a = 2k e^a
    out = k2.heis_act(0, unit((), 1))
    assert {m: out.coeff(m) for m in out.keys()} == {((), Fraction(1)): Fraction(4)}
    # a(2) a(-1)^2 1 = 0 (no matching creator)
    assert k2.heis_act(2, unit((1, 1))).is_zero()
    # a(1) a(-1)^2 1 = 2 * 2k * a(-1)1
    out = k2.heis_act(1, unit((1, 1)))
    assert {m: out.coeff(m) for m in out.keys()} == {((1,), Fraction(0)): Fraction(8)}


def test_weights(k3):
    assert k3.weight(((2, 1), Fraction(0))) == 3
    assert k3.weight(((), Fraction(1))) == 3
    assert k3.weight(((1,), Fraction(-2))) == 13


def test_virasoro_action_from_conformal_vector(k2):
    # L(0) = omega_1 grades by weight; L(-1) 1 = 0; e^a has weight k
    for mono in (((2, 1), Fraction(0)), ((), Fraction(1))):
        v = SparseVec.unit(mono)
        out = k2.vir_act(0, v)
        assert out == v.scaled(k2.weight(mono))
    assert k2.vir_act(-1, SparseVec.unit(k2.VACUUM)).is_zero()
    # on a charge-0 and a charged monomial at output part-sums 22 and 23,
    # where H! no longer fits in 64 bits
    for space in (FockSpace(1), k2):
        for mono in (((7, 5, 4, 3, 2, 1), Fraction(0)), ((6, 5, 4, 3, 3, 2), Fraction(2))):
            v = SparseVec.unit(mono)
            assert space.vir_act(0, v) == v.scaled(space.weight(mono)), (space.k, mono)


def test_virasoro_commutator_on_fock_space(k2):
    # [L(m), L(n)] = (m-n)L(m+n) + delta (m^3-m)/12 with central charge 1
    vecs = [unit((2, 1)), unit((1,), 1), unit((3,))]
    for m in range(-2, 3):
        for n in range(-2, 3):
            for v in vecs:
                lhs = (k2.vir_act(m, k2.vir_act(n, v))
                       - k2.vir_act(n, k2.vir_act(m, v)))
                rhs = k2.vir_act(m + n, v).scaled(Fraction(m - n))
                if m + n == 0:
                    rhs = rhs + v.scaled(Fraction(m ** 3 - m, 12))
                assert lhs == rhs, (m, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m1_virasoro_primaries_sit_at_square_weights(k):
    """M(1) = sum over m >= 0 of L(1, m^2): below weight 11 the joint kernel
    of L_1 and L_2 is a line at weights 1, 4 and 9 and 0 elsewhere; at
    weight 4 it is spanned by the paper's J, here as the coprime integer
    vector -4k^2 J = 4k a(-3)a(-1) - 3k a(-2)^2 - a(-1)^4."""
    sp = FockSpace(k)
    primaries = {w: kernel(sp.basis("m1", w), [partial(sp.vir_act, n) for n in (1, 2)])
                 for w in range(1, 11)}
    assert [len(primaries[w]) for w in range(1, 11)] == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    j = SparseVec({((3, 1), 0): 4 * k, ((2, 2), 0): -3 * k, ((1, 1, 1, 1), 0): -1})
    assert primaries[4] == [j] and sp.jvec().scaled(Fraction(-4 * k * k)) == j


def test_bilinear_form_closed_form(k3):
    one = SparseVec.unit(k3.VACUUM)
    assert k3.bilinear(one, one) == 1
    # (a(-2)a(-1)1, a(-2)a(-1)1) = (2k*2)(2k*1) = 72 at k=3
    v = unit((2, 1))
    assert k3.bilinear(v, v) == 72
    # (a(-1)^2 1, a(-1)^2 1) = (2k)^2 * 2! = 72
    w = unit((1, 1))
    assert k3.bilinear(w, w) == 72
    assert k3.bilinear(v, w) == 0
    # charge pairing requires opposite charges
    assert k3.bilinear(unit((), 1), unit((), -1)) == 1
    assert k3.bilinear(unit((), 1), unit((), 1)) == 0


def test_bilinear_matches_pair_scan_oracle():
    # multi-term vectors whose charges 0, +-1, +-2 meet both opposite charges,
    # which pair, and equal nonzero charges, which do not
    rng = random.Random(5)
    paired = unpaired = 0
    for _ in range(300):
        sp = FockSpace(rng.choice((1, 2, 3)))
        pool = [(rng.choice(partitions(rng.randint(0, 4), 1)),
                 Fraction(rng.choice((0, 1, -1, 2, -2)))) for _ in range(4)]
        mirrors = [(parts, -charge) for parts, charge in pool]

        def vector(monos):
            return SparseVec([(mono, rng.choice((-3, -1, 1, 2, 5)))
                              for mono in rng.sample(monos, rng.randint(1, 3))])
        u, v = vector(pool), vector(pool + mirrors)
        want = bilinear_by_pairs(sp.k, u, v)
        assert sp.bilinear(u, v) == want, (sp.k, u, v)
        paired += want != 0
        unpaired += any(mono[1] and mono in v.keys() for mono in u.keys())
    assert paired >= 100 and unpaired >= 50


def test_bilinear_adjoint_of_heisenberg_modes(k2):
    u = unit((2,))
    v = unit((2, 1))
    assert k2.bilinear(k2.heis_act(1, v), u) == k2.bilinear(v, k2.heis_act(-1, u))
    x = unit((3, 1), 1)
    y = unit((2, 1, 1), -1)
    assert k2.bilinear(k2.heis_act(2, x), k2.heis_act(-1, y)) == \
        k2.bilinear(k2.heis_act(1, k2.heis_act(2, x)), y)


def test_jj_norm_and_j7j(k2, k3):
    for sp in (k2, k3, FockSpace(5)):
        j = sp.jvec()
        assert sp.bilinear(j, j) == 54
        out = sp.vertex_mode(j, 7, j)
        assert out == SparseVec.unit(sp.VACUUM).scaled(Fraction(54))


def test_j3_eigenvalue_on_charge_doublets():
    for k in (2, 3, 5):
        sp = FockSpace(k)
        j = sp.jvec()
        for m in (1, 2):
            ev = Fraction(4 * m ** 4 * k ** 2 - m ** 2 * k)
            assert sp.vertex_mode(j, 3, sp.evec(m)) == sp.evec(m).scaled(ev)


def test_lattice_mode_leading_terms(k2, k3):
    for sp in (k2, k3):
        k = sp.k
        em = unit((), -1)
        assert sp.lattice_vertex_mode(Fraction(1), 2 * k - 1, em) == \
            SparseVec.unit(sp.VACUUM)
        for n in range(2 * k, 2 * k + 4):
            assert sp.lattice_vertex_mode(Fraction(1), n, em).is_zero()
        # e^{-a}_{-2k-1} e^{-a} = e^{-2a}
        assert sp.lattice_vertex_mode(Fraction(-1), -2 * k - 1, em) == \
            unit((), -2)


def test_lattice_mode_charge_zero_action(k2):
    # e^{-a}_0 a(-1)1 = 2k e^{-a}
    out = k2.lattice_vertex_mode(Fraction(-1), 0, unit((1,)))
    assert out == unit((), -1).scaled(Fraction(4))


def test_lattice_zero_mode_eigenvalue_is_negative(k2, k3):
    # zero mode of X1_{2n-2} X2 on X2 multiplies by -2n
    for sp, n in ((k2, 2), (k3, 3)):
        x1, x2 = unit((), 1), unit((), -1)
        inner = sp.lattice_vertex_mode(Fraction(1), 2 * n - 2, x2)
        assert sp.vertex_mode(inner, 0, x2) == x2.scaled(Fraction(-2 * n))


def test_theta_involution(k2):
    v = unit((2, 1), 1).scaled(Fraction(3)) + unit((1,), -1)
    assert k2.theta(k2.theta(v)) == v
    assert k2.theta(unit((1,))) == unit((1,)).scaled(Fraction(-1))
    assert k2.theta(unit((), 1)) == unit((), -1)


def test_theta_basis_dimensions(k2):
    # charge-zero sector at weight 4 with an even number of parts
    assert len(k2.theta_basis("+", "m1", 4)) == 3
    # no weight-1 states in the symmetric lattice space for k >= 2
    for k in (2, 3, 5):
        assert len(FockSpace(k).theta_basis("+", "vl", 1)) == 0


def test_char_series_heads(k3):
    assert k3.char_series("m1+", 9) == [1, 0, 1, 1, 3, 3, 6, 7, 12, 14]
    assert k3.char_series("m1", 5) == [1, 1, 2, 3, 5, 7]
    # vl adds charge sectors at weights k m^2
    vl = k3.char_series("vl", 12)
    m1 = k3.char_series("m1", 12)
    assert vl[3] == m1[3] + 2  # e^{a} and e^{-a}
    for space in ("", "m2", "vl*"):
        with pytest.raises(InputError, match=re.escape(f"unknown space {space!r}")):
            k3.char_series(space, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_char_series_counts_the_bases(k):
    space = FockSpace(k)
    for name in ("m1", "vl"):
        assert space.char_series(name, 24) == [len(space.basis(name, n)) for n in range(25)]
        for sign in "+-":
            assert space.char_series(name + sign, 24) == [
                len(space.theta_basis(sign, name, n)) for n in range(25)]


def test_character_identities_to_q20(k3):
    cutoff = 20
    m1p = k3.char_series("m1+", cutoff)
    assert m1p == even_square_sum_series(cutoff)
    assert k3.char_series("vl+", cutoff) == [
        a + b for a, b in zip(m1p, lattice_charge_tail_series(3, cutoff))]


def test_vertex_mode_matches_slot_enumeration_oracle():
    rng = random.Random(4)
    for _ in range(320):
        sp = FockSpace(rng.choice((1, 2, 3)))
        u = SparseVec.zero()
        for _ in range(rng.randint(1, 2)):
            osc = rng.randint(1, 5)
            lams = [lam for lam in partitions(rng.randint(osc, osc + 4), 1)
                    if len(lam) == osc]
            u = u + unit(rng.choice(lams)).scaled(Fraction(rng.randint(-4, 4)))
        charge = rng.choice((0, 1, -1, 2, Fraction(1, 2)))
        v = SparseVec.zero()
        for _ in range(rng.randint(1, 2)):
            lam = rng.choice(partitions(rng.randint(0, 5), 1))
            v = v + unit(lam, charge).scaled(Fraction(rng.randint(1, 4)))
        n = rng.randint(-4, 9)
        assert dict(sp.vertex_mode(u, n, v).items()) == \
            vertex_mode_by_slots(sp.k, u, n, v), (sp.k, u, n, v)
    # alpha(m) is the mode m of u = a(-1).1: repeated parts, alpha(0) on
    # integral and fractional charges
    alpha = unit((1,))
    for k, charge, m in product((1, 2, 3), (0, 1, -1, 2, Fraction(1, 2), Fraction(1, 4)),
                                range(-4, 5)):
        v = (unit((2, 2, 1), charge).scaled(Fraction(3)) + unit((1, 1, 1), charge)
             + unit((3, 1, 1), charge) + unit((), charge).scaled(Fraction(-2)))
        assert dict(FockSpace(k).heis_act(m, v).items()) == \
            vertex_mode_by_slots(k, alpha, m, v), (k, charge, m)
    quarter = unit((), Fraction(1, 4))
    assert FockSpace(1).heis_act(0, quarter) == quarter.scaled(Fraction(1, 2))


def test_charged_vertex_modes_match_the_iterate_oracle():
    # u = a(-p_1)...a(-p_r) e^{b alpha}, which `vertex_mode_by_slots` does
    # not take, against the iterate formula: on integral charges, and on
    # fractional ones where 2kb*charge is integral and 2k*charge may not be
    rng = random.Random(31)
    nonzero = fractional = 0
    for _ in range(240):
        k, b = rng.choice((1, 2, 3)), rng.choice((1, -1, 2, -2))
        u = SparseVec.zero()
        for _ in range(rng.randint(1, 2)):
            osc = rng.randint(1, 3)
            lam = rng.choice([lam for lam in partitions(rng.randint(osc, osc + 3), 1)
                              if len(lam) == osc])
            u = u + unit(lam, b).scaled(Fraction(rng.randint(-4, 4), rng.choice((1, 3))))
        if rng.random() < 0.5:
            charge = Fraction(rng.choice((0, 1, -1, 2)))
        else:
            charge = Fraction(rng.choice((1, -1, 3)), 2 * k * abs(b))
        v = SparseVec.zero()
        for _ in range(rng.randint(1, 2)):
            lam = rng.choice(partitions(rng.randint(0, 4), 1))
            v = v + unit(lam, charge).scaled(Fraction(rng.randint(1, 4), rng.choice((1, 5))))
        # small heights: for the heaviest term of u and a monomial w of v,
        # H = |u parts| + |w parts| - 2kb*charge - n - 1 is |w parts| - 3 + (0..5)
        usum = max(sum(parts) for parts, _ in u.keys()) if not u.is_zero() else 0
        n = usum + 2 - int(2 * k * b * charge) - rng.randint(0, 5)
        want = vertex_mode_by_iterate(k, u, n, v)
        assert dict(FockSpace(k).vertex_mode(u, n, v).items()) == want, (k, u, n, v)
        nonzero += bool(want)
        fractional += bool(want) and charge.denominator > 1
    assert nonzero >= 170 and fractional >= 90


def test_vertex_mode_is_linear_in_v():
    # u_n v against the sum over the monomials w of v of c_w u_n w, where v
    # has two part-sums on each of several charges, integral and fractional,
    # with mixed denominators, and one coefficient is chosen so that two
    # monomials of one sector cancel an output term once the sector merges
    rng = random.Random(32)
    nonzero = cancelled = 0
    for k in (1, 2):
        sp = FockSpace(k)
        half = Fraction(1, 2 * k)  # 2kb*charge is integral for b = +-1
        for u, charges in (
                (sp.jvec(), (0, 2, Fraction(1, 3))),
                (unit((2, 1, 1)) + unit((3, 1)).scaled(Fraction(-2, 3)), (1, -1, Fraction(2, 5))),
                (sp.xvec(1), (0, -1, half)),
                (sp.xvec(-2), (1, 2, -half)),
                (unit((2, 1), -1) + unit((4,), -1).scaled(Fraction(3, 7)), (-1, 1, half)),
                (unit((1, 1), 1) + unit((3,), -1).scaled(Fraction(1, 2)), (0, 1, -half))):
            terms = [((lam, Fraction(charge)), Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                                        rng.choice((1, 2, 3, 7))))
                     for charge in charges for w in (3, 4) for lam in partitions(w, 1)[::2]]
            for n in range(-2, 5):  # the first two monomials share a sector
                a1, a2, *rest = (sp.vertex_mode(u, n, SparseVec.unit(w)).scaled(c)
                                 for w, c in terms)
                key = next((key for key in a1.keys() if a2.coeff(key)
                            and sum(a.coeff(key) for a in (a1, *rest))), None)
                if key is not None:
                    others = sum(a.coeff(key) for a in (a1, *rest))
                    terms[1] = (terms[1][0], -others / a2.coeff(key) * terms[1][1])
                    break
            v = SparseVec(terms)
            assert len(v) == len(terms)
            for m in range(-2, 5):
                whole = sp.vertex_mode(u, m, v)
                parts = [sp.vertex_mode(u, m, SparseVec.unit(w)).scaled(c) for w, c in terms]
                assert whole == sum(parts, SparseVec.zero()), (k, u, m)
                nonzero += not whole.is_zero()
                if key is not None and m == n:
                    assert not whole.coeff(key) and any(p.coeff(key) for p in parts)
                    cancelled += 1
    assert nonzero >= 70 and cancelled == 12


def _vl_vectors(sp, max_weight=5):
    return [SparseVec.unit(mono) for w in range(max_weight + 1)
            for mono in sp.basis("vl", w)]


@pytest.mark.parametrize("k", [1, 2])
def test_vertex_mode_of_exponential_is_lattice_mode(k):
    sp = FockSpace(k)
    for v in _vl_vectors(sp):
        for b in (1, -1, 2):
            for n in range(-6, 5):
                assert dict(sp.vertex_mode(sp.xvec(b), n, v).items()) == \
                    lattice_vertex_mode_by_commutation(k, b, n, v), (b, n, v)


@pytest.mark.parametrize("k", [1, 2])
def test_heisenberg_commutator_with_charged_modes(k):
    # [alpha(m), u_n] v = sum_i C(m, i) (alpha(i) u)_(m+n-i) v
    sp = FockSpace(k)
    for u in (unit((1,), 1), unit((2, 1), -1)):
        lowered = [sp.heis_act(i, u) for i in range(4)]
        for v in _vl_vectors(sp):
            for m in range(4):
                for n in range(-1, 2):
                    lhs = (sp.heis_act(m, sp.vertex_mode(u, n, v))
                           - sp.vertex_mode(u, n, sp.heis_act(m, v)))
                    rhs = SparseVec.zero()
                    for i in range(m + 1):
                        rhs = rhs + sp.vertex_mode(
                            lowered[i], m + n - i, v).scaled(Fraction(comb(m, i)))
                    assert lhs == rhs, (u, m, n, v)


def _sector_vectors(charge, max_weight):
    """The unit vectors of every parts of weight <= max_weight on charge."""
    return [unit(lam, charge) for w in range(max_weight + 1) for lam in partitions(w, 1)]


def test_charged_commutator_where_alpha_zero_is_not_integral():
    # as above, for u = a(-1)e(2) at k = 1 on charge 1/4: 2kb*charge = 1 is
    # integral, so u has integral modes there, but alpha(0) acts by 2k/4 = 1/2
    sp = FockSpace(1)
    u = unit((1,), 2)
    lowered = [sp.heis_act(i, u) for i in range(4)]
    nonzero = 0
    for v in _sector_vectors(Fraction(1, 4), 4):
        for m in range(4):
            for n in range(-3, 2):
                lhs = (sp.heis_act(m, sp.vertex_mode(u, n, v))
                       - sp.vertex_mode(u, n, sp.heis_act(m, v)))
                rhs = SparseVec.zero()
                for i in range(m + 1):
                    rhs = rhs + sp.vertex_mode(
                        lowered[i], m + n - i, v).scaled(Fraction(comb(m, i)))
                assert lhs == rhs, (m, n, v)
                nonzero += not lhs.is_zero()
    assert nonzero >= 120


def test_vertex_mode_matches_oracles_where_alpha_zero_is_not_integral():
    # charges where 2k*charge is not an integer, so alpha(0) carries a
    # denominator through the integer kernel
    rng = random.Random(20)
    nonzero = 0
    for _ in range(200):
        sp = FockSpace(rng.choice((1, 2, 3)))
        osc = rng.randint(1, 4)
        lams = [lam for lam in partitions(rng.randint(osc, osc + 3), 1) if len(lam) == osc]
        u = (unit(rng.choice(lams)).scaled(Fraction(rng.randint(1, 4), rng.choice((1, 3))))
             + unit(rng.choice(lams)).scaled(Fraction(-1, rng.randint(1, 5))))
        charge = rng.choice((Fraction(1, 3), Fraction(-2, 5)))
        v = SparseVec.zero()
        for _ in range(rng.randint(1, 2)):
            lam = rng.choice(partitions(rng.randint(0, 5), 1))
            v = v + unit(lam, charge).scaled(Fraction(rng.randint(1, 4), rng.choice((1, 7))))
        n = rng.randint(-4, 8)
        want = vertex_mode_by_slots(sp.k, u, n, v)
        assert dict(sp.vertex_mode(u, n, v).items()) == want, (sp.k, u, n, v)
        nonzero += bool(want)
    assert nonzero >= 110
    # e^{+-2 alpha} at k = 1 on charges +-1/4 and +-3/4: the exponent
    # 2kb*charge is +-1 or +-3, but 2k*charge is 1/2 or 3/2
    sp, nonzero = FockSpace(1), 0
    for b in (2, -2):
        for charge in (Fraction(1, 4), Fraction(-1, 4), Fraction(3, 4), Fraction(-3, 4)):
            for v in _sector_vectors(charge, 4):
                e0 = 2 * b * charge
                for n in range(int(-e0) - 6, int(-e0) + 4):
                    want = lattice_vertex_mode_by_commutation(1, b, n, v)
                    assert dict(sp.lattice_vertex_mode(b, n, v).items()) == want, (b, n, v)
                    nonzero += bool(want)
    assert nonzero >= 700


def test_vertex_mode_takes_a_monomial_for_u(k2):
    for mono in (((1,), Fraction(0)), ((2, 1), Fraction(0)), ((1,), Fraction(1)),
                 ((), Fraction(-1))):
        for v in _vl_vectors(k2, max_weight=3):
            for n in range(-3, 3):
                assert k2.vertex_mode(mono, n, v) == \
                    k2.vertex_mode(SparseVec.unit(mono), n, v), (mono, n, v)


def test_vertex_mode_outputs_fraction_coefficients_and_charges():
    # every coefficient is a Fraction, and every output charge is the
    # Fraction charge of the input plus that of u, in charge-0, charged and
    # fractional sectors
    sp = FockSpace(1)
    ops = [(u, partial(sp.vertex_mode, u)) for u in
           (sp.jvec(), sp.omega(), unit((1,), 2), sp.xvec(-2) + unit((2,), -2))]
    ops += [(sp.xvec(b), partial(sp.lattice_vertex_mode, b)) for b in (2, -2)]
    seen = 0
    for u, op in ops:
        (ucharge,) = {charge for _, charge in u.keys()}
        for charge in (0, 1, -1, Fraction(1, 4), Fraction(-3, 4)):
            for v in _sector_vectors(Fraction(charge), 3):
                for n in range(-3, 4):
                    for (parts, out_charge), c in op(n, v).items():
                        assert type(c) is Fraction, (u, n, v, c)
                        assert type(out_charge) is Fraction, (u, n, v, out_charge)
                        assert out_charge == ucharge + charge, (u, n, v)
                        seen += 1
    assert seen >= 6000


@pytest.mark.parametrize("k", [1, 2])
def test_translation_of_charged_modes(k):
    # (L_{-1} u)_n = -n u_{n-1}
    sp = FockSpace(k)
    for u in (unit((1,), 1), unit((2, 1), -1), unit((), 1)):
        du = sp.vir_act(-1, u)
        for v in _vl_vectors(sp):
            for n in range(-2, 3):
                assert sp.vertex_mode(du, n, v) == \
                    sp.vertex_mode(u, n - 1, v).scaled(Fraction(-n)), (u, n, v)


def test_lattice_vertex_mode_matches_commutation_oracle():
    rng = random.Random(11)
    nonzero = 0
    for _ in range(1200):
        k, b = rng.choice((1, 2, 3)), rng.choice((1, -1, 2, -2, 3))
        charge = rng.choice((0, 1, -1, 2, -2))
        v = SparseVec.zero()
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice(partitions(rng.randint(0, 7), 1))
            v = v + unit(lam, charge).scaled(Fraction(rng.choice((-3, -1, 1, 2))))
        # the exponential series adds oscillators of total weight
        # -n-1-2kb*charge plus the weight the removals free
        n = -1 - 2 * k * b * charge - rng.randint(-3, 5)
        want = lattice_vertex_mode_by_commutation(k, b, n, v)
        assert dict(FockSpace(k).lattice_vertex_mode(b, n, v).items()) == want, \
            (k, b, n, v)
        nonzero += bool(want)
    assert nonzero >= 1000


def test_lattice_kernel_matches_fraction_per_term_oracle():
    # the integer kernel, its two halves E^+ (`_e_plus`, on one state with T
    # empty) and E^- (`_exp_series`) composed as `vertex_mode` composes them,
    # in ints over top!, against the same sum taken one Fraction at a time,
    # on every parts of weight <= 8; the height top = -n-1-e0+|parts| >= 0
    # is the weight the exponential series may add (terms may cancel). Modes
    # with top < 0 are zero by the `height < 0` test of `vertex_mode` and
    # never reach the kernel.
    nonzero = 0
    for k in (1, 2, 3):
        sp = FockSpace(k)
        for b in (1, -1, 2, -2):
            for parts in (lam for w in range(9) for lam in partitions(w, 1)):
                removals = sp._e_plus(b, {parts: {(): 1}})
                assert all(list(xs) == [()] and type(xs[()]) is int for xs in removals.values())
                for charge in (0, 1, -1):
                    e0 = 2 * k * b * charge
                    for top in (0, 2, 5):
                        n = -1 - e0 + sum(parts) - top
                        ints: dict = {}
                        for kept, xs in removals.items():
                            d = top - sum(kept)
                            for lam, c in _exp_series(b, d) if d >= 0 else ():
                                assert type(c) is int
                                key = tuple(sorted(kept + lam, reverse=True))
                                ints[key] = ints.get(key, 0) + xs[()] * c * perm(top, top - d)
                        got = {key: Fraction(c, factorial(top)) for key, c in ints.items() if c}
                        assert got == lattice_by_terms(k, b, e0, n, parts), \
                            (k, b, e0, n, parts)
                        nonzero += bool(got)
    assert nonzero >= 7000


def test_exp_series_table_matches_power_sum_recurrence():
    for b in (1, -1, 2, -2, 3):
        for d in range(11):
            table = _exp_series(b, d)
            assert [lam for lam, _ in table] == list(partitions(d, 1))
            assert all(lam is mu for (lam, _), mu in zip(table, partitions(d, 1)))
            assert all(type(c) is int for _, c in table), (b, d)
            want = {lam: factorial(d) * c
                    for lam, c in exp_series_by_recurrence(b, d).items()}
            assert dict(table) == want, (b, d)


def _binomial(m, i):
    """C(m, i) for any integer m."""
    return prod(m - t for t in range(i)) // factorial(i)


def _alpha_by_hand(k, n, v):
    """alpha(n) on v: creation of the part -n for n < 0, 2k*charge at n = 0,
    and for n > 0 the removal of one of the mult parts n with 2k*n*mult."""
    terms = []
    for (parts, charge), c in v.items():
        if n < 0:
            terms.append(((tuple(sorted((*parts, -n), reverse=True)), charge), c))
        elif n == 0:
            terms.append(((parts, charge), c * 2 * k * charge))
        elif n in parts:
            i = parts.index(n)
            terms.append(((parts[:i] + parts[i + 1:], charge),
                          c * 2 * k * n * parts.count(n)))
    return SparseVec(terms)


@pytest.mark.parametrize("k", [1, 2])
def test_one_oscillator_modes_match_the_derivative_closed_form(k):
    # Y(a(-p).1, z) = d^(p-1)/dz^(p-1) a(z) / (p-1)!, so
    # (a(-p).1)_(m) = C(p-m-2, p-1) a(m-p+1): creation for m < p - 1,
    # a(0) at m = p - 1, annihilation above, and 0 where no part matches
    sp = FockSpace(k)
    for charge in (0, 1, -1, 2, Fraction(1, 2), Fraction(1, 4)):
        v = (unit((2, 2, 1), charge).scaled(Fraction(3)) + unit((4, 1, 1, 1), charge)
             + unit((6, 3), charge).scaled(Fraction(-1, 2)) + unit((), charge))
        for p, m in product(range(1, 5), range(-5, 7)):
            want = _alpha_by_hand(k, m - p + 1, v).scaled(Fraction(_binomial(p - m - 2, p - 1)))
            assert sp.vertex_mode(unit((p,)), m, v) == want, (k, charge, p, m)


def _vertex_mode_work(fn, *args) -> tuple[int, set]:
    """The work of the one `FockSpace.vertex_mode` call that fn(*args)
    makes: the states of all its annihilation steps (the entries of every
    `step` table) and the keys (T, Q) of its creation table `created`."""
    steps, tables = {}, []

    def local(frame, event, arg):
        if event == "line" and isinstance(step := frame.f_locals.get("step"), dict):
            steps[id(step)] = step  # kept alive, so every id stays one table
        elif event == "return":
            tables.append(frame.f_locals["created"])
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_name == "vertex_mode" and code.co_filename == fock.__file__:
            return local
        return None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    (table,) = tables
    return sum(map(len, steps.values())), set(table)


def test_annihilation_states_and_one_creation_table_per_call(k2):
    # a(m) = (a(-1).1)_m on a(-4)a(-2)a(-1)^2 e(1): its one oscillator
    # creates, acts as alpha(0) or removes a 4, a 2 or a 1, so 5 states;
    # the creation table C_(1)(-m) has one entry for m < 0 and none above
    height8 = unit((4, 2, 1, 1), 1)
    work = [_vertex_mode_work(k2.heis_act, m, height8) for m in range(-3, 5)]
    assert [states for states, _ in work] == [5] * 8
    assert [len(table) for _, table in work] == [1, 1, 1, 0, 0, 0, 0, 0]
    # L_n = omega_(n+1) on the whole charge-0 weight-8 space, one sector:
    # the annihilation pass starts from all 22 monomials, and the states
    # they reach in common are made once (181 when each monomial runs alone)
    weight8 = SparseVec({(lam, Fraction(0)): Fraction(1) for lam in partitions(8, 1)})
    work = [_vertex_mode_work(k2.vir_act, n, weight8) for n in (-2, 0, 2)]
    assert [(states, len(table)) for states, table in work] == [(164, 10), (164, 8), (164, 6)]
    for n in (-2, 0, 2):
        alone = [_vertex_mode_work(k2.vir_act, n, unit(lam))[0] for lam in partitions(8, 1)]
        assert sum(alone) == 181, n
    # J_3 on a charged vector whose two monomials lie in two sectors
    charged = unit((2, 1), 1) + unit((), 1).scaled(Fraction(3))
    states, table = _vertex_mode_work(k2.vertex_mode, k2.jvec(), 3, charged)
    assert (states, len(table)) == (72, 6)
    # one creation table serves every monomial of v: the whole space enters
    # each (T, Q) of its monomials once (89, 45 and 19 entries when each
    # monomial builds its own)
    for n, (_, table), apart in zip((-2, 0, 2), work, (89, 45, 19)):
        alone = [_vertex_mode_work(k2.vir_act, n, unit(lam))[1] for lam in partitions(8, 1)]
        assert table == set().union(*alone), n
        assert sum(map(len, alone)) == apart, n


def test_exp_series_expands_once_per_kept_parts_of_a_sector(k2, monkeypatch):
    # e^{alpha}_0 on the full charge -1 vector of weight 10 at k = 2 (the 22
    # monomials of part-sum 8, one sector): E^+ merges the kept parts of all
    # of them, so E^- reads 66 tables of 587 terms in all, where the
    # monomials one at a time read 185 tables of 3,885 terms
    reads = []

    def counted(b, d):
        reads.append(len(table := _exp_series(b, d)))
        return table

    monkeypatch.setattr(fock, "_exp_series", counted)
    full = SparseVec({(lam, Fraction(-1)): Fraction(1) for lam in partitions(8, 1)})
    whole = k2.lattice_vertex_mode(1, 0, full)
    assert (len(reads), sum(reads)) == (66, 587)
    del reads[:]
    apart = [k2.lattice_vertex_mode(1, 0, SparseVec.unit(mono)) for mono in full.keys()]
    assert (len(reads), sum(reads)) == (185, 3885)
    assert whole == sum(apart, SparseVec.zero()) and len(whole) == 56


@pytest.mark.parametrize("k", [1, 2])
def test_lattice_operator_commutator(k):
    # [u_m, v_n] w = sum_{i=0}^{max(0, -2k b1 b2)} C(m, i) (u_i v)_(m+n-i) w
    # for u = e^{b1 alpha}, v = e^{b2 alpha}: in rank one every pairing is
    # even, so the cocycle is trivial and the modes commute up to these terms
    sp = FockSpace(k)
    for b1, b2 in ((1, -1), (-1, 1), (1, 1), (1, -2)):
        top = max(0, -2 * k * b1 * b2)
        products = [sp.lattice_vertex_mode(b1, i, sp.xvec(b2)) for i in range(top + 1)]
        # u_0 v has weight top - 1; past 4 its modes take seconds, so those
        # run on the vectors of weight <= 1 only
        for w in _vl_vectors(sp, max_weight=2 if top <= 4 else 1):
            for m in range(-2, 3):
                for n in range(-1, 2):
                    lhs = (sp.lattice_vertex_mode(b1, m, sp.lattice_vertex_mode(b2, n, w))
                           - sp.lattice_vertex_mode(b2, n, sp.lattice_vertex_mode(b1, m, w)))
                    rhs = SparseVec.zero()
                    for i, uv in enumerate(products):
                        rhs = rhs + sp.vertex_mode(uv, m + n - i, w).scaled(
                            Fraction(_binomial(m, i)))
                    assert lhs == rhs, (b1, b2, m, n, w)


def test_non_integral_operator_charge_is_rejected(k2):
    with pytest.raises(ValueError):
        k2.lattice_vertex_mode(Fraction(1, 2), 0, SparseVec.unit(k2.VACUUM))


def test_zero_operator_charge_is_rejected(k2):
    with pytest.raises(InputError, match="lattice operator needs a nonzero charge"):
        k2.lattice_vertex_mode(0, 0, SparseVec.unit(k2.VACUUM))


def test_monomial_rendering():
    assert monomial_str(((3, 1), Fraction(0))) == "a(-3)a(-1)"
    assert monomial_str(((), Fraction(-2))) == "e(-2)"
    assert monomial_str(((1,), Fraction(1))) == "a(-1)e(1)"
    assert monomial_str(((), Fraction(0))) == "1"


def test_verify_lemma57_report():
    report = verify_lemma57(3, 20)
    assert report["pass"] is True
    assert [ch["name"] for ch in report["checks"]] == [
        "m1plus-series-head",
        "m1plus-equals-even-square-character-sum",
        "vlplus-orbifold-decomposition",
        "j3-eigenvalue-E1",
        "j3-eigenvalue-E2",
    ]


def test_verify_fock_report():
    report = verify_fock()
    assert report["pass"] is True
    assert report["recorded_mismatches"] == [
        "x1x2-zero-mode-recorded-n2", "x1x2-zero-mode-recorded-n3"]
    for cmp in report["recorded_comparisons"]:
        assert cmp["matches"] is False
