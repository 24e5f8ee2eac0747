"""End-to-end acceptance checks.  Each test pins one published computation
(or an exhaustive structural battery) together with its wall-clock budget.

Three tests in this file assert recorded literature values that the engine's
exact arithmetic contradicts; they are expected to fail and are kept failing
deliberately, with the engine-side companion assertions housed in the
neighbouring green tests.  README.md documents all three divergences:

  * test_criterion_02_recorded_generator_is_annihilated - the recorded
    twelve-word weight-9 vector is not primary (two of its printed integer
    coefficients are off by factors 3 and 6).
  * test_criterion_04_recorded_action_table_matches_eleven_of_twelve - only
    ten of the twelve recorded single-mode action formulas reproduce.
  * test_criterion_08_recorded_zero_mode_sign - the recorded zero-mode
    eigenvalue 2n has the opposite sign to the exact one.
"""

import time
from fractions import Fraction

import test_properties
from voacalc.core import SparseVec
from voacalc.fock import (FockSpace, even_square_sum_series,
                          lattice_charge_tail_series)
from voacalc.fusion import verify_fusion_symmetry
from voacalc.virasoro import VirasoroModule, irreducible_character_c1
from voacalc.w3 import (CONSISTENT_READING, INCONSISTENT_MONOMIAL,
                        W1_ACTION_TABLE, WEIGHT6_BASIS_REFERENCE,
                        WEIGHT9_GENERATOR_TERMS, W3Module, verify_theorem32)


class Budget:
    """Context manager asserting a wall-clock bound on the enclosed block."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"took {elapsed:.2f}s, budget {self.seconds}s"
        return False


def recorded_weight9_vector(module):
    v = SparseVec.zero()
    for coeff, word in WEIGHT9_GENERATOR_TERMS:
        v = v + module.apply_word(word).scaled(Fraction(coeff))
    return v


# -- criterion 1: graded dimensions of the vacuum quotient ----------------------


def test_criterion_01_graded_dimensions():
    with Budget(1):
        vac = W3Module.get(1)
        assert [vac.dim(w) for w in (3, 4, 5)] == [2, 3, 4]
        assert set(vac.basis(6)) == set(WEIGHT6_BASIS_REFERENCE)
        assert len(WEIGHT6_BASIS_REFERENCE) == 8
        assert [vac.dim(w) for w in (7, 8)] == [10, 17]


# -- criterion 2: primary spaces -------------------------------------------------


def test_criterion_02_primary_dimensions():
    with Budget(30):
        vac = W3Module.get(1)
        assert [len(vac.primary_space(w)) for w in (4, 5, 7)] == [0, 0, 0]
        assert len(vac.primary_space(6)) == 1
        # the engine's weight-9 primary really is annihilated by both
        # lowering modes
        u9 = vac.primary_space(9)[0]
        assert vac.act("L", 1, u9).is_zero()
        assert vac.act("L", 2, u9).is_zero()


def test_criterion_02_recorded_generator_is_annihilated():
    # Recorded claim: the straightened twelve-word weight-9 vector is killed
    # by both lowering modes.  The engine disagrees: the recorded integer
    # coefficients of the last two words are exactly 3 and 6 times too large,
    # leaving specific nonzero residues (frozen in test_w3).  Kept failing on
    # purpose; see README.md.
    with Budget(30):
        vac = W3Module.get(1)
        v = recorded_weight9_vector(vac)
        assert vac.act("L", 1, v).is_zero()
        assert vac.act("L", 2, v).is_zero()


# -- criterion 3: the weight-9 primary is not radical --------------------------


def test_criterion_03_nonvanishing_and_radical():
    with Budget(60):
        vac = W3Module.get(1)
        for u9 in (vac.primary_space(9)[0], recorded_weight9_vector(vac)):
            out = vac.act("W", 1, u9)
            assert not out.is_zero()
            assert out.coeff(((2, 2, 2, 2), ())) != 0
            # outside the radical of the weight-9 contravariant form
            assert any(vac.pair(SparseVec.unit(b), u9) != 0
                       for b in vac.basis(9))


# -- criterion 4: the recorded single-mode action table -------------------------


def test_criterion_04_recorded_action_table_matches_eleven_of_twelve():
    # Recorded claim: eleven of the twelve formulas reproduce exactly.  The
    # engine reproduces ten: formula 1 also has a wrong denominator on its
    # highest single mode and omits one doubled-mode term, and formula 9 has
    # a wrong numerator on its highest single mode.  Kept failing on purpose;
    # see README.md and the frozen diffs in test_w3.
    with Budget(60):
        vac = W3Module.get(1)
        matches = 0
        for word, recorded in W1_ACTION_TABLE:
            computed = vac.apply_word(word)
            if computed == SparseVec({m: c for m, c in recorded.items()}):
                matches += 1
        assert matches >= 11, f"only {matches} of 12 formulas reproduce"


def test_criterion_04_weight_inconsistent_term_reported():
    # The formula whose recorded form contains a monomial of the wrong weight
    # must be reported with the recomputed value and a per-monomial diff, and
    # the engine output must agree with the recorded coefficient once the
    # term is read with the doubled mode.
    with Budget(60):
        vac = W3Module.get(1)
        report = verify_theorem32(1)
        flagged = [c for c in report["recorded_comparisons"]
                   if "weight_consistent_reading" in c]
        assert len(flagged) == 1
        entry = flagged[0]
        assert entry["matches"] is False
        assert entry["computed"]  # recomputed value is reported
        assert entry["diff"]  # per-monomial diff is reported
        # the re-reading is reported, not assumed: the reported diff after
        # moving the term no longer mentions either reading of the weight-5
        # monomial (the term itself agrees exactly), leaving only the
        # formula's two unrelated copying errors
        reread = entry["weight_consistent_reading"]
        assert reread["moved"] not in reread["diff"]
        assert reread["read_as"] not in reread["diff"]
        word, recorded = W1_ACTION_TABLE[0]
        computed = vac.apply_word(word)
        assert computed.coeff(INCONSISTENT_MONOMIAL) == 0
        assert computed.coeff(CONSISTENT_READING) == \
            Fraction(recorded[INCONSISTENT_MONOMIAL])


# -- criterion 5: block decomposition at weights 6 and 8 -------------------------


def test_criterion_05_w_block_component_and_weight8_gap():
    with Budget(5):
        vac = W3Module.get(1)
        w = SparseVec.unit(((), (3,)))
        u6 = vac.primary_space(6)[0]
        v = vac.act("W", -3, w)
        components, remainder = vac.decompose(v, [("w", w), ("u6", u6)])
        assert components["w"].is_zero()
        assert remainder.is_zero()
        info = vac.descendant_gap(8, [("w", w), ("u6", u6)])
        assert info["dim"] == 17
        assert info["gap"] == 1


# -- criterion 6: degeneration thresholds of the level forms --------------------


def test_criterion_06_gram_nullity_thresholds():
    with Budget(10):
        for m in (0, 1, 2):
            module = VirasoroModule.get(1, m * m)
            threshold = 2 * m + 1
            for level in range(1, min(threshold, 6)):
                assert module.gram_nullity(level) == 0
            if threshold <= 5:
                assert module.gram_nullity(threshold) == 1
            ranks = [module.gram_rank(level) for level in range(0, 6)]
            irr = irreducible_character_c1(m * m, m * m + 5)
            assert ranks == irr[m * m:]


# -- criterion 7: character decompositions --------------------------------------


def test_criterion_07_character_decompositions():
    with Budget(1):
        cutoff = 20
        sp = FockSpace(3)
        m1p = sp.char_series("m1+", cutoff)
        assert m1p == even_square_sum_series(cutoff)
        assert sp.char_series("vl+", cutoff) == [
            a + b for a, b in zip(m1p, lattice_charge_tail_series(3, cutoff))]


# -- criterion 8: pairing values and doublet eigenvalues -------------------------


def test_criterion_08_fock_identities():
    with Budget(60):
        for k in (2, 3, 5):
            sp = FockSpace(k)
            one = SparseVec.unit(((), Fraction(0)))
            assert sp.bilinear(one, one) == 1
            e1 = sp.evec(1)
            assert sp.bilinear(e1, e1) == 2
            j = sp.jvec()
            assert sp.vertex_mode(j, 7, j) == one.scaled(Fraction(54))
            for m in (1, 2):
                em = sp.evec(m)
                assert sp.vertex_mode(j, 3, em) == \
                    em.scaled(Fraction(4 * m ** 4 * k * k - m * m * k))
        for n in (2, 3):
            sp = FockSpace(n)
            assert sp.bilinear(sp.xvec(1), sp.xvec(-1)) == 1


def test_criterion_08_recorded_zero_mode_sign():
    # Recorded claim: the zero mode of the charge-lowering product multiplies
    # the lowest charge-(-1) vector by +2n.  The engine's exact expansion
    # gives -2n (the companion green assertion lives in test_fock).  Kept
    # failing on purpose; see README.md.
    with Budget(60):
        for n in (2, 3):
            sp = FockSpace(n)
            x2 = sp.xvec(-1)
            inner = sp.lattice_vertex_mode(Fraction(1), 2 * n - 2, x2)
            assert sp.vertex_mode(inner, 0, x2) == x2.scaled(Fraction(2 * n))


# -- criterion 9: fusion oracle --------------------------------------------------


def test_criterion_09_fusion_oracle():
    with Budget(1):
        report = verify_fusion_symmetry(samples=50)
        assert report["pass"] is True
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["vir-grid-interval-rule"]["triples"] == 216
        assert by_name["m1-random-exchange"]["samples"] == 50
        assert all(c["pass"] for c in report["checks"])


# -- criterion 10: structural property batteries ---------------------------------


def test_criterion_10_property_suites():
    with Budget(300):
        assert test_properties.bracket_closure_violations(1, 6, 4) == (0, 19)
        assert test_properties.bracket_closure_violations(
            Fraction(-3, 7), 5, 3) == (0, 11)
        assert test_properties.w3_confluence_violations() == 0
        assert test_properties.virasoro_confluence_violations() == 0
        assert test_properties.w3_adjointness_violations() == 0
        assert test_properties.virasoro_adjointness_violations() == 0
        assert test_properties.quadratic_mode_invariance_violations() == 0
        assert test_properties.quartic_mode_invariance_violations() == 0
        assert test_properties.oscillator_adjointness_violations() == 0
        assert test_properties.theta_charge_zero_mode_violations() == 0
        assert test_properties.theta_lattice_mode_violations() == 0
        assert test_properties.doublet_product_evenness_violations() == 0
        assert test_properties.quartic_commutator_violations() == 0
