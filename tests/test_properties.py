"""Structural invariants checked on exhaustive small grids and seeded random
samples: bracket closure, straightening confluence, adjointness of the
contravariant forms, the charge-negation automorphism, the quartic-mode
commutator expansion, and the choice of block bases by elimination pivots.

Each battery is a cached function returning its violation count so that the
acceptance tests can run the same grids without paying twice.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

from voacalc.core import SparseVec, independent
from voacalc.fock import FockSpace
from voacalc.virasoro import VirasoroModule
from voacalc.w3 import W3Module

from oracles import independent_subsequence


# -- bracket closure ----------------------------------------------------------


def _apply_lambda(module, m, v):
    out = SparseVec.zero()
    for mono, coeff in v.items():
        ints, den = module._lambda(m, mono)
        out = out + SparseVec({k: Fraction(x, den) for k, x in ints.items()}).scaled(coeff)
    return out


@lru_cache(maxsize=None)
def bracket_closure_violations(c, max_weight, max_mode):
    """Count monomial/mode pairs violating any of the three commutation
    relations; also return the number of monomials scanned."""
    module = W3Module.get(c)
    bad = 0
    lam_coef = Fraction(16) / (22 + 5 * Fraction(c))
    monos = [m for w in range(max_weight + 1) for m in module.basis(w)]
    modes = range(-max_mode, max_mode + 1)
    for mono in monos:
        v = SparseVec.unit(mono)
        for m in modes:
            lm_v = module.act("L", m, v)
            wm_v = module.act("W", m, v)
            for n in modes:
                ln_v = module.act("L", n, v)
                wn_v = module.act("W", n, v)

                # [L_m, L_n] = (m-n) L_{m+n} + central
                lhs = module.act("L", m, ln_v) - module.act("L", n, lm_v)
                rhs = module.act("L", m + n, v).scaled(Fraction(m - n))
                if m + n == 0:
                    rhs = rhs + v.scaled(Fraction(m ** 3 - m, 12) * module.c)
                if lhs != rhs:
                    bad += 1

                # [L_m, W_n] = (2m - n) W_{m+n}
                lhs = module.act("L", m, wn_v) - module.act("W", n, lm_v)
                rhs = module.act("W", m + n, v).scaled(Fraction(2 * m - n))
                if lhs != rhs:
                    bad += 1

                # [W_m, W_n] = (m-n) [ (m+n+2)(m+n+3)/15 - (m+2)(n+2)/6 ] L_{m+n}
                #              + 16/(22+5c) (m-n) Lambda_{m+n} + central
                lhs = module.act("W", m, wn_v) - module.act("W", n, wm_v)
                lcoef = Fraction(m - n) * (
                    Fraction((m + n + 2) * (m + n + 3), 15)
                    - Fraction((m + 2) * (n + 2), 6))
                rhs = module.act("L", m + n, v).scaled(lcoef)
                rhs = rhs + _apply_lambda(module, m + n, v).scaled(
                    lam_coef * (m - n))
                if m + n == 0:
                    rhs = rhs + v.scaled(
                        Fraction(m * (m * m - 1) * (m * m - 4), 360) * module.c)
                if lhs != rhs:
                    bad += 1
    return bad, len(monos)


def test_bracket_closure_at_central_charge_one():
    bad, count = bracket_closure_violations(1, 6, 4)
    assert bad == 0 and count == 19


def test_bracket_closure_at_generic_central_charge():
    bad, count = bracket_closure_violations(Fraction(-3, 7), 5, 3)
    assert bad == 0 and count == 11


# -- straightening confluence --------------------------------------------------


@lru_cache(maxsize=None)
def w3_confluence_violations(samples=60, seed=414):
    """Random words applied whole versus in two stages must agree."""
    rng = random.Random(seed)
    module = W3Module.get(1)
    gens = [("L", n) for n in range(-4, 4) if n] + \
           [("W", n) for n in range(-4, 4) if n]
    bad = 0
    for _ in range(samples):
        word = tuple(rng.choice(gens) for _ in range(rng.randrange(2, 6)))
        cut = rng.randrange(1, len(word))
        direct = module.apply_word(word)
        staged = module.apply_word(word[:cut], module.apply_word(word[cut:]))
        if direct != staged:
            bad += 1
    return bad


@lru_cache(maxsize=None)
def virasoro_confluence_violations(samples=60, seed=99):
    rng = random.Random(seed)
    module = VirasoroModule.get(Fraction(5, 2), Fraction(7, 3))
    bad = 0
    for _ in range(samples):
        word = tuple(("L", rng.randrange(-4, 5)) for _ in range(rng.randrange(2, 6)))
        cut = rng.randrange(1, len(word))
        direct = module.apply_word(word)
        staged = module.apply_word(word[:cut], module.apply_word(word[cut:]))
        if direct != staged:
            bad += 1
    return bad


def test_straightening_confluence_on_random_words():
    assert w3_confluence_violations() == 0


def test_virasoro_confluence_on_random_words():
    assert virasoro_confluence_violations() == 0


# -- adjointness of the contravariant forms ------------------------------------


@lru_cache(maxsize=None)
def w3_adjointness_violations():
    module = W3Module.get(1)
    bad = 0
    for gen in ("L", "W"):
        for n in (1, 2, 3):
            for wu in range(2, 7):
                wv = wu + n
                if wv > 8:
                    continue
                for u_mono in module.basis(wu):
                    u = SparseVec.unit(u_mono)
                    for v_mono in module.basis(wv):
                        v = SparseVec.unit(v_mono)
                        if module.pair(module.act(gen, -n, u), v) != \
                                module.pair(u, module.act(gen, n, v)):
                            bad += 1
    return bad


@lru_cache(maxsize=None)
def virasoro_adjointness_violations(samples=40, seed=1234):
    rng = random.Random(seed)
    module = VirasoroModule.get(Fraction(-13, 7), Fraction(2, 5))
    bad = 0
    for _ in range(samples):
        n = rng.randrange(1, 4)
        wu = rng.randrange(0, 5)
        basis_u, basis_v = module.basis(wu), module.basis(wu + n)
        if not basis_u or not basis_v:
            continue
        u = SparseVec.unit(rng.choice(basis_u)).scaled(Fraction(rng.randrange(1, 7)))
        v = SparseVec.unit(rng.choice(basis_v)).scaled(Fraction(rng.randrange(1, 7)))
        if module.pair(module.act("L", -n, u), v) != module.pair(u, module.act("L", n, v)):
            bad += 1
    return bad


@lru_cache(maxsize=None)
def quadratic_mode_invariance_violations():
    # (L_m x, y) = (x, L_{-m} y) across every charge sector.  The quadratic
    # composite moves an even number of oscillators, so the mode-negation
    # adjoint rule transports it exactly.
    sp = FockSpace(2)
    bad = 0
    for w1 in range(0, 6):
        for w2 in range(0, 6):
            m = w2 - w1
            for bu in sp.basis("vl", w1):
                x = SparseVec.unit(bu)
                for bv in sp.basis("vl", w2):
                    y = SparseVec.unit(bv)
                    if sp.bilinear(sp.vir_act(m, x), y) != \
                            sp.bilinear(x, sp.vir_act(-m, y)):
                        bad += 1
    return bad


@lru_cache(maxsize=None)
def quartic_mode_invariance_violations():
    # (J_n x, y) = (x, J_{6-n} y) on the charge-zero subspace, where the
    # quartic operator's mode expansion is free of zero-mode terms.  On
    # charged sectors the expansion picks up odd powers of the charge
    # eigenvalue, and the mode-negation adjoint rule only transports those
    # with a sign twist, so the clean index reflection n -> 6 - n is a
    # charge-zero statement.
    sp = FockSpace(2)
    j = sp.jvec()
    bad = 0
    for w1 in range(0, 7):
        for w2 in range(0, 7):
            n = 3 + w1 - w2  # J_n maps weight w1 to w1 + 3 - n = w2
            if not 0 <= n <= 6:
                continue
            for bu in sp.basis("m1", w1):
                x = SparseVec.unit(bu)
                for bv in sp.basis("m1", w2):
                    y = SparseVec.unit(bv)
                    if sp.bilinear(sp.vertex_mode(j, n, x), y) != \
                            sp.bilinear(x, sp.vertex_mode(j, 6 - n, y)):
                        bad += 1
    return bad


@lru_cache(maxsize=None)
def oscillator_adjointness_violations(samples=60, seed=777):
    # The defining adjoint rule of the form, checked through independent
    # reduction paths on vectors of every available charge.
    sp = FockSpace(2)
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        n = rng.randrange(1, 4)
        w1 = rng.randrange(0, 6)
        basis1 = sp.basis("vl", w1)
        basis2 = sp.basis("vl", w1 + n)
        if not basis1 or not basis2:
            continue
        x = SparseVec.unit(rng.choice(basis1)).scaled(Fraction(rng.randrange(1, 5)))
        y = SparseVec.unit(rng.choice(basis2)).scaled(Fraction(rng.randrange(1, 5)))
        if sp.bilinear(sp.heis_act(-n, x), y) != sp.bilinear(x, sp.heis_act(n, y)):
            bad += 1
    return bad


def test_w3_adjointness_on_matched_weight_pairs():
    assert w3_adjointness_violations() == 0


def test_virasoro_adjointness_random():
    assert virasoro_adjointness_violations() == 0


def test_fock_form_invariance_for_quadratic_modes():
    assert quadratic_mode_invariance_violations() == 0


def test_fock_form_invariance_for_quartic_modes_charge_zero():
    assert quartic_mode_invariance_violations() == 0


def test_fock_oscillator_adjointness_on_charged_sectors():
    assert oscillator_adjointness_violations() == 0


# -- charge-negation automorphism ----------------------------------------------


@lru_cache(maxsize=None)
def theta_charge_zero_mode_violations(max_weight=8):
    # theta commutes with the modes of its fixed charge-zero vectors
    sp = FockSpace(2)
    bad = 0
    for u in (sp.omega(), sp.jvec()):
        if sp.theta(u) != u:
            bad += 1
        for weight in range(0, max_weight + 1):
            for mono in sp.basis("vl", weight):
                v = SparseVec.unit(mono)
                for n in range(-2, 4):
                    if sp.theta(sp.vertex_mode(u, n, v)) != \
                            sp.vertex_mode(u, n, sp.theta(v)):
                        bad += 1
    return bad


@lru_cache(maxsize=None)
def theta_lattice_mode_violations(max_weight=6):
    # theta intertwines a charge-b operator with the charge-(-b) operator
    sp = FockSpace(2)
    bad = 0
    for b in (Fraction(1), Fraction(-1)):
        for weight in range(0, max_weight + 1):
            for mono in sp.basis("vl", weight):
                v = SparseVec.unit(mono)
                for n in range(-4, 3):
                    if sp.theta(sp.lattice_vertex_mode(b, n, v)) != \
                            sp.lattice_vertex_mode(-b, n, sp.theta(v)):
                        bad += 1
    return bad


@lru_cache(maxsize=None)
def doublet_product_evenness_violations():
    bad = 0
    for k in (2, 3):
        sp = FockSpace(k)
        e = sp.evec(1)
        for j in range(0, 2 * k):
            out = (sp.lattice_vertex_mode(Fraction(1), j, e)
                   + sp.lattice_vertex_mode(Fraction(-1), j, e))
            if sp.theta(out) != out:
                bad += 1
    return bad


def test_theta_commutes_with_charge_zero_vertex_modes():
    assert theta_charge_zero_mode_violations() == 0


def test_theta_intertwines_lattice_modes():
    assert theta_lattice_mode_violations() == 0


def test_symmetric_doublet_products_are_theta_even():
    assert doublet_product_evenness_violations() == 0


# -- quartic-mode commutator expansion ------------------------------------------


@lru_cache(maxsize=None)
def quartic_commutator_violations(max_mode=4, max_weight=6):
    """[J_m, J_n] v = sum_i binom(m, i) (J_i J)_{m+n-i} v for m, n >= 0."""
    sp = FockSpace(2)
    j = sp.jvec()
    products = {i: sp.vertex_mode(j, i, j) for i in range(0, 8)}
    bad = 0
    for m in range(0, max_mode + 1):
        for n in range(0, max_mode + 1):
            for weight in range(0, max_weight + 1):
                for mono in sp.basis("m1", weight):
                    v = SparseVec.unit(mono)
                    lhs = (sp.vertex_mode(j, m, sp.vertex_mode(j, n, v))
                           - sp.vertex_mode(j, n, sp.vertex_mode(j, m, v)))
                    rhs = SparseVec.zero()
                    for i in range(0, m + 1):
                        if products[i].is_zero():
                            continue
                        rhs = rhs + sp.vertex_mode(
                            products[i], m + n - i, v).scaled(Fraction(comb(m, i)))
                    if lhs != rhs:
                        bad += 1
    return bad


def test_quartic_mode_commutator_expansion():
    assert quartic_commutator_violations() == 0


# -- block bases: elimination pivots against incremental rank -------------------


def test_pivot_columns_select_first_independent_subsequence():
    """W3Module.block_basis keeps the descendants that `core.independent`
    picks, the pivot columns of the matrix whose columns they are; that must
    be the first maximal independent subsequence."""
    rng = random.Random(2024)
    for _ in range(200):
        dim = rng.randrange(1, 7)
        vectors = []
        for _ in range(rng.randrange(0, 9)):
            roll = rng.random()
            if roll < 0.1:
                vectors.append([0] * dim)
            elif roll < 0.4 and vectors:
                # an integer combination of earlier vectors
                picks = rng.sample(vectors, min(len(vectors), rng.randrange(1, 3)))
                coefs = [rng.randrange(-3, 4) for _ in picks]
                vectors.append([sum(c * v[i] for c, v in zip(coefs, picks))
                                for i in range(dim)])
            else:
                vectors.append([rng.randrange(-4, 5) for _ in range(dim)])
        pivots = independent([SparseVec(enumerate(v)) for v in vectors])
        assert pivots == independent_subsequence(vectors), vectors
