import gc
import random
import weakref
from fractions import Fraction

import pytest

from voacalc.core import SparseVec
from voacalc.virasoro import (
    VirasoroModule,
    irreducible_character_c1,
    monomial_str,
    verify_prop21,
    verma_character,
)
from voacalc.w3 import W3Module

from oracles import (
    apply_mode,
    check_gram_ladder,
    fraction_det,
    gauss_rank,
    gram_by_pairs,
    kac_product,
    kac_weight,
    pair,
    straighten_words,
)

MODULE_PARAMS = [
    (Fraction(1), Fraction(0), False),
    (Fraction(1), Fraction(1), False),
    (Fraction(1), Fraction(4), False),
    (Fraction(5, 2), Fraction(7, 3), False),
    (Fraction(-13, 7), Fraction(2, 5), False),
    (Fraction(1), Fraction(0), True),
]


@pytest.mark.parametrize("c,h,vacuum", MODULE_PARAMS)
def test_basis_sizes_match_partition_counts(c, h, vacuum):
    module = VirasoroModule.get(c, h, vacuum=vacuum)
    min_part = 2 if vacuum else 1
    from oracles import brute_partitions
    for level in range(8):
        assert set(module.basis(level)) == brute_partitions(level, min_part)
    for level in range(-1, 21):
        assert module.dim(level) == len(module.basis(level))
    assert module.basis(-1) == [] and module.dim(-1) == 0


@pytest.mark.parametrize("c,h,vacuum", MODULE_PARAMS)
def test_single_mode_action_matches_rewriting_oracle(c, h, vacuum):
    module = VirasoroModule.get(c, h, vacuum=vacuum)
    for level in range(0, 6):
        for mono in module.basis(level):
            for mode in range(-3, 4):
                got = module.act("L", mode, SparseVec.unit(mono))
                want = apply_mode(mode, {mono: Fraction(1)}, c, h, vacuum)
                assert {k: got.coeff(k) for k in got.keys()} == want, (
                    f"L({mode}) on {monomial_str(mono)}")


@pytest.mark.parametrize("c,h,vacuum", MODULE_PARAMS[:4])
def test_random_words_match_rewriting_oracle(c, h, vacuum):
    rng = random.Random(5)
    module = VirasoroModule.get(c, h, vacuum=vacuum)
    for _ in range(30):
        word = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5)))
        got = module.apply_word([("L", n) for n in word])
        want = straighten_words({word: Fraction(1)}, c, h, vacuum)
        assert {k: got.coeff(k) for k in got.keys()} == want


@pytest.mark.parametrize("c,h,vacuum", MODULE_PARAMS)
def test_pairing_matches_oracle_and_is_symmetric(c, h, vacuum):
    module = VirasoroModule.get(c, h, vacuum=vacuum)
    for level in range(0, 5):
        basis = module.basis(level)
        for u in basis:
            for v in basis:
                lhs = module.pair(SparseVec.unit(u), SparseVec.unit(v))
                assert lhs == pair(u, v, c, h, vacuum)
                assert lhs == module.pair(SparseVec.unit(v), SparseVec.unit(u))


def test_adjointness_of_modes_under_pairing():
    module = VirasoroModule.get(Fraction(1), Fraction(2))
    rng = random.Random(3)
    basis4, basis5 = module.basis(4), module.basis(5)
    for _ in range(10):
        u = SparseVec({rng.choice(basis4): Fraction(rng.randrange(1, 5))})
        v = SparseVec({rng.choice(basis5): Fraction(rng.randrange(1, 5))})
        assert module.pair(module.act("L", -1, u), v) == module.pair(u, module.act("L", 1, v))


def test_terms_keep_descending_lex_order_across_weights():
    # a proper prefix follows its extensions, as `act --terms` reports print it
    module = VirasoroModule.get(1, 1)
    v = SparseVec({(1,): 1, (2,): 2, (1, 1): 3, (2, 1): 4, (): 5})
    assert list(module.terms(v).items()) == [
        ("L(-2)L(-1)", "4"), ("L(-2)", "2"), ("L(-1)L(-1)", "3"), ("L(-1)", "1"), ("1", "5")]


def test_gram_nullity_locates_first_singular_vector():
    # lowest weight m^2 at central charge 1 degenerates first at level 2m+1
    for m in (0, 1, 2):
        module = VirasoroModule.get(1, m * m)
        for level in range(1, 2 * m + 1):
            assert module.gram_nullity(level) == 0
        assert module.gram_nullity(2 * m + 1) == 1


def test_singular_vector_level_one():
    module = VirasoroModule.get(1, 0)
    vecs = module.primary_space(1)
    assert len(vecs) == 1 and list(vecs[0].keys()) == [(1,)]


def test_singular_vector_is_annihilated_and_in_radical():
    module = VirasoroModule.get(1, 1)
    vecs = module.primary_space(3)
    assert len(vecs) == 1
    sv = vecs[0]
    assert module.act("L", 1, sv).is_zero()
    assert module.act("L", 2, sv).is_zero()
    for b in module.basis(3):
        assert module.pair(SparseVec.unit(b), sv) == 0


def test_verma_character_is_shifted_partition_series():
    assert verma_character(0, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert verma_character(2, 6) == [0, 0, 1, 1, 2, 3, 5]


def test_irreducible_character_c1_square_and_nonsquare():
    # non-square lowest weight: already irreducible
    assert irreducible_character_c1(2, 6) == verma_character(2, 6)
    # square lowest weight m^2: subtract the series at (m+1)^2
    got = irreducible_character_c1(1, 8)
    verma1, verma4 = verma_character(1, 8), verma_character(4, 8)
    assert got == [a - b for a, b in zip(verma1, verma4)]
    assert irreducible_character_c1(0, 6) == [1, 0, 1, 1, 2, 2, 4]


def test_quarter_square_weights_are_rejected():
    with pytest.raises(ValueError):
        irreducible_character_c1(Fraction(9, 4), 10)
    with pytest.raises(ValueError):
        verma_character(Fraction(-1), 5)


def _central_charge(t):
    return 13 - 6 * (t + 1 / t)


@pytest.mark.parametrize("c,h,vacuum,top", [
    (Fraction(1), Fraction(4), False, 10),
    (Fraction(1), Fraction(5), False, 10),
    (Fraction(1), Fraction(5, 6), False, 10),
    (Fraction(-22, 5), Fraction(-1, 5), False, 10),
    (Fraction(1, 2), Fraction(0), True, 14),
])
def test_gram_from_lower_weights_equals_the_pairwise_gram(c, h, vacuum, top):
    module = VirasoroModule(c, h, vacuum=vacuum)
    for level in range(-1, top + 1):
        assert module.gram(level) == gram_by_pairs(module, level), level


@pytest.mark.parametrize("c,h", [
    (Fraction(-22, 5), Fraction(-1, 5)),
    (Fraction(1), Fraction(5, 6)),
])
def test_gram_rank_of_the_integer_ladder_equals_the_pairwise_rank(c, h):
    """`gram_rank` and `gram_nullity` read the integer numerators of the
    Gram matrix, whose denominators change from level to level here; both
    equal the Gauss-Jordan rank of the pairwise Gram."""
    module = VirasoroModule(c, h)
    for level in range(-1, 11):
        expected = gauss_rank(gram_by_pairs(module, level))
        assert module.gram_rank(level) == expected, level
        assert module.gram_nullity(level) == module.dim(level) - expected, level


@pytest.mark.parametrize("c,h,vacuum,top", [
    (Fraction(-22, 5), Fraction(-1, 5), False, 8),
    (Fraction(1, 2), Fraction(0), True, 10),
], ids=["verma", "vacuum"])
def test_the_module_keeps_its_gram_ladder(c, h, vacuum, top):
    """Each weight of the Gram ladder is built once per module, whatever
    order the weights are asked in, and a returned matrix is the caller's."""
    check_gram_ladder(lambda: VirasoroModule(c, h, vacuum=vacuum), top)


def test_gram_determinant_is_the_kac_product_up_to_a_level_constant():
    rng = random.Random(12)
    samples = []
    while len(samples) < 4:
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        h = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if all(kac_product(t, h, n) for n in range(1, 7)):
            samples.append((t, h))
    for n in range(1, 7):
        ratios = {fraction_det(VirasoroModule.get(_central_charge(t), h).gram(n))
                  / kac_product(t, h, n) for t, h in samples}
        assert len(ratios) == 1 and 0 not in ratios, (n, ratios)
    assert [fraction_det(VirasoroModule.get(1, 5).gram(n)) / kac_product(1, 5, n)
            for n in range(1, 5)] == [2, 32, 2304, 37748736]


def test_gram_determinant_vanishes_on_the_kac_curves():
    for t in (Fraction(1), Fraction(5, 3), Fraction(-2, 7)):
        c = _central_charge(t)
        for r in range(1, 7):
            for s in range(1, 6 // r + 1):
                module = VirasoroModule.get(c, kac_weight(t, r, s))
                for n in range(r * s, 7):
                    assert fraction_det(module.gram(n)) == 0, (t, r, s, n)
                    assert module.gram_nullity(n) >= 1, (t, r, s, n)


def test_gram_rank_equals_irreducible_dimension():
    for m in (0, 1, 2):
        module = VirasoroModule.get(1, m * m)
        char = irreducible_character_c1(m * m, m * m + 5)
        for level in range(6):
            assert module.gram_rank(level) == char[m * m + level]


def test_verify_prop21_report():
    report = verify_prop21()
    assert report["pass"] is True
    names = [ch["name"] for ch in report["checks"]]
    assert "nullity-at-threshold-m2" in names
    assert all(ch["source"] in ("PAPER", "TRIVIAL", "DERIVED")
               for ch in report["checks"])


def test_a_module_from_get_is_freed_once_dropped():
    """`get` builds a new module with its own memo tables; nothing else
    keeps it alive once its caller drops it."""
    modules = [VirasoroModule.get(1, 4), W3Module.get(1), W3Module.get(2, 1, 1)]
    for module in modules:
        module.gram(3)
    refs = [weakref.ref(module) for module in modules]
    del module, modules
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
