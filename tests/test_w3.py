import random
from collections import Counter
from fractions import Fraction

import pytest

from voacalc.core import InputError, SparseVec
from voacalc.virasoro import VirasoroModule
from voacalc.w3 import (
    CONSISTENT_READING,
    EMPTY,
    INCONSISTENT_MONOMIAL,
    W1_ACTION_TABLE,
    WEIGHT6_BASIS_REFERENCE,
    WEIGHT9_GENERATOR_TERMS,
    DegenerateBlockError,
    W3Module,
    verify_theorem32,
    w3_monomial_str,
)

from oracles import (
    decompose_by_pairs,
    gauss_rank,
    gauss_solve,
    gram_by_pairs,
    straighten_w3_words,
    w3_pair,
    w3_word,
)


@pytest.fixture(scope="module")
def vac():
    return W3Module.get(1)


def unit(lparts, wparts=()):
    return SparseVec.unit((tuple(lparts), tuple(wparts)))


def test_graded_dimensions(vac):
    assert [vac.dim(w) for w in range(9)] == [1, 0, 1, 2, 3, 4, 8, 10, 17]


@pytest.mark.parametrize("weights", [(), (1, 1)])
def test_dim_counts_the_basis(weights):
    module = W3Module.get(1, *weights)
    assert [module.dim(w) for w in range(-1, 13)] == [
        len(module.basis(w)) for w in range(-1, 13)]
    assert module.basis(-1) == [] and module.dim(-1) == 0


@pytest.mark.parametrize("c,weights", [
    (Fraction(1), ()), (Fraction(-3, 7), ()), (Fraction(2), (Fraction(1, 2), Fraction(-2, 3)))],
    ids=["vacuum-c1", "vacuum-c-3_7", "verma-c2"])
def test_straightening_matches_rewriting_oracle(c, weights):
    module = W3Module.get(c, *weights)
    for weight in range(6):
        basis = module.basis(weight)
        for mono in basis:
            for gen in "LW":
                for mode in range(-3, 4):
                    got = module.act(gen, mode, mono)
                    want = straighten_w3_words({((gen, mode),) + w3_word(mono): 1}, c, *weights)
                    assert {k: got.coeff(k) for k in got.keys()} == want, (gen, mode, mono)
    for weight in range(5):
        basis = module.basis(weight)
        for u in basis:
            for v in basis:
                assert module.pair(u, v) == w3_pair(u, v, c, *weights), (u, v)


def test_memo_tables_read_by_the_benchmark_fill_on_gram():
    # bench/worker.py counts memo entries through these attribute names
    vir, w3 = VirasoroModule(1, 1), W3Module(1)
    vir.gram(4)
    w3.gram(6)
    for memo in (vir._act_memo, w3._memo_l, w3._memo_w, w3._memo_lambda):
        assert isinstance(memo, dict) and memo


def test_dimension_weight_minus_one_formula(vac):
    # low weights satisfy dim = weight - 1
    for w in (2, 3, 4, 5):
        assert vac.dim(w) == w - 1


def test_weight6_basis_is_the_reference_set(vac):
    assert set(vac.basis(6)) == set(WEIGHT6_BASIS_REFERENCE)
    assert len(vac.basis(6)) == 8


def test_central_charge_validation():
    with pytest.raises(ValueError):
        W3Module.get(Fraction(-22, 5))


def test_w3_on_w_gives_central_term():
    for c in (Fraction(1), Fraction(7, 3)):
        module = W3Module.get(c)
        out = module.act("W", 3, unit((), (3,)))
        assert {k: out.coeff(k) for k in out.keys()} == {EMPTY: c / 3}


def test_level3_gram_is_diagonal():
    for c in (Fraction(1), Fraction(5)):
        module = W3Module.get(c)
        basis = module.basis(3)
        assert basis == [((3,), ()), ((), (3,))]
        g = module.gram(3)
        assert g == [[2 * c, 0], [0, c / 3]]


@pytest.mark.parametrize("c,weights,top", [
    (Fraction(4, 5), (), 11),
    (Fraction(1, 3), (Fraction(2, 7), Fraction(1, 5)), 6),
])
def test_gram_from_lower_weights_equals_the_pairwise_gram(c, weights, top):
    module = W3Module(c, *weights)
    for weight in range(-1, top + 1):
        assert module.gram(weight) == gram_by_pairs(module, weight), weight


def test_gram_rank_of_the_integer_ladder_equals_the_pairwise_rank():
    """`gram_rank` and `gram_nullity` on the W3 Verma module (1/3, 2/7, 1/5),
    whose Gram denominators change from weight to weight, equal the
    Gauss-Jordan rank of the pairwise Gram."""
    module = W3Module(Fraction(1, 3), Fraction(2, 7), Fraction(1, 5))
    for weight in range(-1, 7):
        expected = gauss_rank(gram_by_pairs(module, weight))
        assert module.gram_rank(weight) == expected, weight
        assert module.gram_nullity(weight) == module.dim(weight) - expected, weight


def test_level1_gram_determinant_closed_form():
    """At 20 seeded rational points (c, lam, mu) with 22 + 5c != 0, the
    level-1 Gram determinant of the W3 Verma module is
    2 lam^2 (32 lam + 2 - c) / (22 + 5c) - 9 mu^2: a closed form, not the
    pairing identity that both the ladder and `gram_by_pairs` use."""
    rng = random.Random(27)
    points = []
    while len(points) < 20:
        c, lam, mu = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))
        if 22 + 5 * c:
            points.append((c, lam, mu))
    for c, lam, mu in points:
        (a, b), (d, e) = W3Module(c, lam, mu).gram(1)
        assert a * e - b * d == 2 * lam**2 * (32 * lam + 2 - c) / (22 + 5 * c) - 9 * mu**2, \
            (c, lam, mu)


def test_annihilation_of_the_vacuum_vector(vac):
    one = SparseVec.unit(EMPTY)
    for n in range(-1, 4):
        assert vac.act("L", n, one).is_zero()
    for n in range(-2, 4):
        assert vac.act("W", n, one).is_zero()


def test_translation_mode_on_w_and_its_powers(vac):
    w = unit((), (3,))
    out = vac.act("L", -1, w)
    assert {k: out.coeff(k) for k in out.keys()} == {((), (4,)): Fraction(1)}
    # k-fold application gives k! times the mode pushed down by k
    v, fact = w, 1
    for k in range(1, 4):
        v = vac.act("L", -1, v)
        fact *= k
        assert {m: v.coeff(m) for m in v.keys()} == {((), (3 + k,)): Fraction(fact)}


def test_contravariance_of_the_form(vac):
    u = unit((2,), (3,))
    v = unit((), (5,))
    # <L(-a) x, y> = <x, L(a) y> and likewise for W
    assert vac.pair(vac.apply_word((("L", -2),), unit((), (3,))), v) == \
        vac.pair(unit((), (3,)), vac.act("L", 2, v))
    assert vac.pair(vac.apply_word((("W", -3),), unit((2,))), u) == \
        vac.pair(unit((2,)), vac.act("W", 3, u))


def test_primary_dimensions(vac):
    assert [len(vac.primary_space(w)) for w in (4, 5, 7)] == [0, 0, 0]
    assert len(vac.primary_space(6)) == 1
    assert len(vac.primary_space(9)) == 1


def test_weight6_primary_is_killed_by_positive_modes(vac):
    u6 = vac.primary_space(6)[0]
    for n in (1, 2):
        assert vac.act("L", n, u6).is_zero()


def test_recorded_formula_table_agreement(vac):
    """Ten of the twelve recorded single-mode action formulas reproduce
    exactly; the two divergent ones differ by a known, frozen amount."""
    mismatches = {}
    for idx, (word, recorded) in enumerate(W1_ACTION_TABLE, start=1):
        computed = vac.apply_word(word)
        recorded_vec = SparseVec({mono: coeff for mono, coeff in recorded.items()})
        if computed != recorded_vec:
            mismatches[idx] = computed - recorded_vec
    assert set(mismatches) == {1, 9}

    # formula 1: the recorded L(-8) coefficient is 27 times too large, the
    # recorded right-hand side omits the W(-4)W(-4) term, and the recorded
    # weight-5 monomial appears in the engine output only in its
    # weight-consistent reading with the same coefficient
    diff1 = mismatches[1]
    assert {m: diff1.coeff(m) for m in diff1.keys()} == {
        ((8,), ()): Fraction(10070, 729) - Fraction(10070, 27),
        ((), (4, 4)): Fraction(128, 27),
        ((3, 2), ()): -Fraction(20480, 729),
        ((3, 3, 2), ()): Fraction(20480, 729),
    }

    # formula 9: only the L(-8) coefficient differs
    diff9 = mismatches[9]
    assert {m: diff9.coeff(m) for m in diff9.keys()} == {
        ((8,), ()): Fraction(1792, 9) - Fraction(1064, 9),
    }


def test_weight_inconsistent_term_reading(vac):
    """The recorded weight-5 monomial in formula 1 fits a weight-9 identity
    only when read as the weight-8 monomial with a squared first factor; the
    engine coefficient of that monomial equals the recorded coefficient."""
    word, recorded = W1_ACTION_TABLE[0]
    assert INCONSISTENT_MONOMIAL == ((3, 2), ())
    assert CONSISTENT_READING == ((3, 3, 2), ())
    computed = vac.apply_word(word)
    assert computed.coeff(INCONSISTENT_MONOMIAL) == 0
    assert computed.coeff(CONSISTENT_READING) == recorded[INCONSISTENT_MONOMIAL]
    assert computed.coeff(CONSISTENT_READING) == Fraction(20480, 729)


def test_recorded_weight9_vector_straightens_into_the_basis(vac):
    v = SparseVec.zero()
    for coeff, word in WEIGHT9_GENERATOR_TERMS:
        v = v + vac.apply_word(word).scaled(Fraction(coeff))
    assert not v.is_zero()
    assert vac.vector_weight(v) == 9
    # it lies in the recorded 12-word span but is NOT the weight-9 primary:
    # applying the two lowering modes leaves specific nonzero residues
    res1 = vac.act("L", 1, v)
    assert {m: res1.coeff(m) for m in res1.keys()} == {
        ((2,), (6,)): Fraction(50528016),
        ((), (8,)): Fraction(1137428160),
    }
    res2 = vac.act("L", 2, v)
    assert {m: res2.coeff(m) for m in res2.keys()} == {
        ((2,), (5,)): Fraction(61756464),
        ((), (7,)): Fraction(1404713784),
    }


def test_true_weight9_primary_word_coordinates(vac):
    """The one-dimensional weight-9 primary space, written in the recorded
    twelve-word coordinates, matches the recorded integer vector in the first
    ten coordinates after rescaling and deviates in the last two by exact
    rational factors 3 and 6."""
    u9 = vac.primary_space(9)[0]
    words = [word for _, word in WEIGHT9_GENERATOR_TERMS]
    span = [vac.apply_word(word) for word in words]
    basis = vac.basis(9)
    rows = [[sv.coeff(b) for sv in span] for b in basis]
    coords = gauss_solve(rows, [u9.coeff(b) for b in basis])
    assert coords is not None
    scale = Fraction(3312738) / coords[0]
    scaled = [x * scale for x in coords]
    recorded = [Fraction(c) for c, _ in WEIGHT9_GENERATOR_TERMS]
    assert scaled[:10] == recorded[:10]
    assert scaled[10] == recorded[10] / 3
    assert scaled[11] == recorded[11] / 6
    for n in (1, 2):
        assert vac.act("L", n, u9).is_zero()


def test_w1_on_weight9_primary_is_nonzero_with_l2_power_term(vac):
    u9 = vac.primary_space(9)[0]
    out = vac.act("W", 1, u9)
    assert not out.is_zero()
    assert out.coeff(((2, 2, 2, 2), ())) != 0


def test_weight9_primary_outside_form_radical(vac):
    u9 = vac.primary_space(9)[0]
    assert any(vac.pair(SparseVec.unit(b), u9) != 0 for b in vac.basis(9))


def test_decompose_w3_of_w_has_no_w_component(vac):
    w = unit((), (3,))
    u6 = vac.primary_space(6)[0]
    v = vac.act("W", -3, w)
    components, remainder = vac.decompose(v, [("w", w), ("u6", u6)])
    assert components["w"].is_zero()
    assert remainder.is_zero()
    assert not components["vacuum"].is_zero()
    assert not components["u6"].is_zero()


@pytest.mark.parametrize("c", [1, 2])
def test_decompose_matches_the_pairwise_projection(c):
    """decompose, which lowers by the adjoint modes of each block word and
    pairs once with the generator, gives the components and remainder of the
    projection with one `pair` per Gram entry (`decompose_by_pairs`), on
    seeded random vectors at weights 3-10. The blocks are the vacuum, W(-3),
    the weight-6 primary (empty below weight 6) and W(-4) = L(-1)W(-3), which
    is not primary."""
    mod = W3Module.get(c)
    w, w4 = unit((), (3,)), unit((), (4,))
    assert mod.act("L", -1, w) == w4 and not mod.act("L", 1, w4).is_zero()
    primaries = [("w", w), ("u6", mod.primary_space(6)[0]), ("w4", w4)]
    rng = random.Random(18 + c)
    nonzero = Counter()
    for weight in range(3, 11):
        basis = mod.basis(weight)
        for _ in range(2):
            v = SparseVec({m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
                           for m in rng.sample(basis, min(len(basis), 4))})
            got = mod.decompose(v, primaries)
            assert got == decompose_by_pairs(mod, v, primaries), (weight, v)
            nonzero.update(label for label, comp in got[0].items() if not comp.is_zero())
            nonzero["remainder"] += not got[1].is_zero()
    assert set(+nonzero) == {"vacuum", "w", "u6", "w4", "remainder"}, nonzero


def test_decompose_and_the_pairwise_projection_both_reject_a_degenerate_block():
    # at c = 1/2 the vacuum block has a singular Gram form from weight 6 on
    mod = W3Module.get(Fraction(1, 2))
    primaries = [("w", unit((), (3,))), ("u6", mod.primary_space(6)[0])]
    v = unit((), (3, 3))
    with pytest.raises(DegenerateBlockError, match="vacuum"):
        mod.decompose(v, primaries)
    with pytest.raises(DegenerateBlockError, match="vacuum"):
        decompose_by_pairs(mod, v, primaries)


def test_weight8_dimension_gap(vac):
    u6 = vac.primary_space(6)[0]
    w = unit((), (3,))
    info = vac.descendant_gap(8, [("w", w), ("u6", u6)])
    assert info["dim"] == 17
    assert info["gap"] == 1


def test_degenerate_block_error_is_raised_when_form_vanishes():
    # at central charge 0 every weight-3 norm vanishes, so the projection
    # onto the vacuum descendant block is undefined
    module = W3Module.get(0)
    w = SparseVec.unit(((), (3,)))
    with pytest.raises(DegenerateBlockError):
        module.decompose(w, [("w", w)])


def test_decompose_rejects_verma_modules():
    # W(-3) is no primary there (L_1 W(-3) = 5 W(-2)), so its block is not
    # orthogonal to the vacuum block
    module = W3Module.get(1, Fraction(1, 3), Fraction(2, 7))
    w = unit((), (3,))
    with pytest.raises(InputError):
        module.decompose(w, [("w", w)])


def test_act_rejects_generators_the_algebra_lacks(vac):
    with pytest.raises(InputError):
        VirasoroModule.get(1, 1).act("W", 1, SparseVec.unit(()))
    with pytest.raises(InputError):
        vac.act("X", 1, unit((), (3,)))


def test_verma_module_acts_with_lowest_weight_eigenvalues():
    module = W3Module.get(Fraction(2), Fraction(3, 2), Fraction(5, 7))
    one = SparseVec.unit(EMPTY)
    l0 = module.act("L", 0, one)
    w0 = module.act("W", 0, one)
    assert {k: l0.coeff(k) for k in l0.keys()} == {EMPTY: Fraction(3, 2)}
    assert {k: w0.coeff(k) for k in w0.keys()} == {EMPTY: Fraction(5, 7)}
    # parts >= 1 in both families:
    # L(-2), L(-1)^2, L(-1)W(-1), W(-2), W(-1)^2
    assert module.dim(2) == 5


def test_verify_theorem32_report(vac):
    report = verify_theorem32(1)
    assert report["pass"] is True
    assert report["exploratory"] is False
    names = {ch["name"]: ch for ch in report["checks"]}
    for required in ("graded-dimensions-3-6", "primary-dimension-6",
                     "weight9-primary-dimension", "L1-kills-u9",
                     "L2-kills-u9", "W1-u9-nonzero",
                     "W1-u9-L(-2)^4-coefficient", "u9-outside-form-radical",
                     "weight6-membership-w-component",
                     "weight8-dimension-gap"):
        assert names[required]["pass"], required
    assert report["recorded_mismatches"] == [
        "w1-action-01", "w1-action-09", "u9-coefficients"]
    comparisons = {c["name"]: c for c in report["recorded_comparisons"]}
    matched = [n for n, c in comparisons.items()
               if n.startswith("w1-action") and c["matches"]]
    assert len(matched) == 10


def test_verify_theorem32_without_a_weight9_primary(monkeypatch):
    """With no weight-9 primary the report fails exactly the checks that
    need one, and leaves out what only it can give."""
    primary_space = W3Module.primary_space
    monkeypatch.setattr(W3Module, "primary_space", lambda self, weight:
                        [] if weight == 9 else primary_space(self, weight))
    report = verify_theorem32(1)
    assert report["pass"] is False
    assert [ch["name"] for ch in report["checks"] if not ch["pass"]] == [
        "weight9-primary-dimension", "u9-in-recorded-span", "L1-kills-u9",
        "L2-kills-u9", "W1-u9-nonzero", "W1-u9-L(-2)^4-coefficient",
        "u9-outside-form-radical"]
    comparisons = {c["name"]: c for c in report["recorded_comparisons"]}
    assert "engine_scaled_to_recorded" not in comparisons["u9-coefficients"]
    assert "primary_straightened" not in report["u9"]


def test_rendering(vac):
    assert w3_monomial_str(((3, 2), (3,))) == "L(-3)L(-2)W(-3)"
    assert w3_monomial_str(EMPTY) == "1"
    terms = vac.terms(unit((2,)) + unit((), (3,)).scaled(Fraction(1, 2)))
    assert terms == {"L(-2)": "1", "W(-3)": "1/2"}
