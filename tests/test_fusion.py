from fractions import Fraction
from itertools import count

import pytest

from voacalc import fusion
from voacalc.fusion import (
    fusion_dim,
    label_str,
    m1_label,
    parse_label,
    verify_fusion_symmetry,
    vir_label,
)


def vdim(a, b, t):
    return fusion_dim("vir", parse_label(a), parse_label(b), parse_label(t))


def mdim(a, b, t):
    return fusion_dim("m1+", parse_label(a), parse_label(b), parse_label(t))


def test_label_parsing_round_trip():
    for text in ("L(1,0)", "L(1,9/4)", "M(1)+", "M(1)-", "M(1,3/2)",
                 "M(1)(theta)+", "M(1)(theta)-"):
        assert label_str(parse_label(text)) == text
    # identification of opposite charges
    assert parse_label("M(1,-3/2)") == parse_label("M(1,3/2)")
    with pytest.raises(ValueError):
        parse_label("M(1,0)")
    with pytest.raises(ValueError):
        parse_label("L(2,1)")
    # a final newline is not part of a label
    for text in ("M(1)+\n", "L(1,4)\n"):
        with pytest.raises(ValueError):
            parse_label(text)
    with pytest.raises(ValueError):
        vir_label(-1)


def test_square_triple_interval_rule():
    assert vdim("L(1,1)", "L(1,1)", "L(1,4)") == 1
    assert vdim("L(1,1)", "L(1,1)", "L(1,0)") == 1
    assert vdim("L(1,1)", "L(1,1)", "L(1,1)") == 1
    assert vdim("L(1,1)", "L(1,1)", "L(1,9)") == 0
    assert vdim("L(1,4)", "L(1,9)", "L(1,1)") == 1
    assert vdim("L(1,4)", "L(1,9)", "L(1,0)") == 0
    assert vdim("L(1,0)", "L(1,16)", "L(1,16)") == 1
    assert vdim("L(1,0)", "L(1,16)", "L(1,9)") == 0


def test_square_times_nonsquare():
    assert vdim("L(1,9)", "L(1,3)", "L(1,3)") == 1
    assert vdim("L(1,9)", "L(1,3)", "L(1,5)") == 0
    assert vdim("L(1,3)", "L(1,9)", "L(1,3)") == 1
    assert vdim("L(1,0)", "L(1,7)", "L(1,7)") == 1
    assert vdim("L(1,0)", "L(1,7)", "L(1,0)") == 0
    # non-integral target is outside every encoded statement
    assert vdim("L(1,9)", "L(1,3)", "L(1,9/4)") is None


def test_two_distinct_nonsquares_square_target():
    assert vdim("L(1,3)", "L(1,6)", "L(1,9)") == 0
    assert vdim("L(1,3)", "L(1,6)", "L(1,0)") == 0
    # same non-square twice is not covered
    assert vdim("L(1,3)", "L(1,3)", "L(1,9)") is None
    # non-square target with two non-square bottoms is not covered
    assert vdim("L(1,3)", "L(1,6)", "L(1,5)") is None


def test_orbifold_charged_fusion():
    lam, mu = Fraction(3, 2), Fraction(1, 2)
    for nu, want in ((lam + mu, 1), (lam - mu, 1), (-lam - mu, 1),
                     (Fraction(7), 0)):
        got = fusion_dim("m1+", m1_label(lam), m1_label(mu), m1_label(nu))
        assert got == want, nu
    # target fixed-point sectors need matched charges
    assert mdim("M(1,3/2)", "M(1,3/2)", "M(1)+") == 1
    assert mdim("M(1,3/2)", "M(1,3/2)", "M(1)-") == 1
    assert mdim("M(1,3/2)", "M(1,1/2)", "M(1)+") == 0
    # fixed-point source with charged target
    assert mdim("M(1,3/2)", "M(1)+", "M(1,3/2)") == 1
    assert mdim("M(1,3/2)", "M(1)-", "M(1,1/2)") == 0
    # twisted sectors pair only with twisted sectors
    for n in ("M(1)(theta)+", "M(1)(theta)-"):
        for t in ("M(1)(theta)+", "M(1)(theta)-"):
            assert mdim("M(1,3/2)", n, t) == 1
    assert mdim("M(1,3/2)", "M(1)(theta)+", "M(1)+") == 0
    assert mdim("M(1,3/2)", "M(1)+", "M(1)(theta)-") == 0
    # no charged module on the bottom: not covered
    assert mdim("M(1)+", "M(1)-", "M(1)+") is None
    assert mdim("M(1)(theta)+", "M(1)(theta)+", "M(1)+") is None


def test_orbifold_swap_and_bottom_target_exchange():
    triples = [
        ("M(1,3/2)", "M(1,1/2)", "M(1,2)"),
        ("M(1,3/2)", "M(1)+", "M(1,3/2)"),
        ("M(1,3/2)", "M(1)(theta)+", "M(1)(theta)-"),
        ("M(1,1)", "M(1,1)", "M(1)+"),
    ]
    for a, b, t in triples:
        assert mdim(a, b, t) == mdim(b, a, t)
        assert mdim(a, b, t) == mdim(a, t, b)


def test_mixed_algebra_labels_are_rejected():
    with pytest.raises(ValueError):
        vdim("L(1,1)", "M(1)+", "L(1,1)")
    with pytest.raises(ValueError):
        mdim("M(1)+", "L(1,1)", "M(1)+")
    with pytest.raises(ValueError):
        fusion_dim("nope", parse_label("L(1,1)"), parse_label("L(1,1)"),
                   parse_label("L(1,1)"))


def test_charge_negation_invariance():
    assert fusion_dim("m1+", m1_label(Fraction(-3, 2)), m1_label(Fraction(1, 2)),
                      m1_label(Fraction(2))) == \
        fusion_dim("m1+", m1_label(Fraction(3, 2)), m1_label(Fraction(1, 2)),
                   m1_label(Fraction(2)))


def test_verify_fusion_symmetry_report():
    report = verify_fusion_symmetry()
    assert report["pass"] is True
    names = [ch["name"] for ch in report["checks"]]
    assert "vir-grid-interval-rule" in names
    assert "m1-random-exchange" in names
    grid = next(ch for ch in report["checks"]
                if ch["name"] == "vir-grid-interval-rule")
    assert grid["triples"] == 6 ** 3


def test_verify_fusion_symmetry_reports_violations(monkeypatch):
    """Each of the six violation counts fails the report when fusion_dim
    disagrees with itself: here a stub answers every call with a new
    number."""
    answers = count()
    monkeypatch.setattr(fusion, "fusion_dim", lambda *args: next(answers))
    report = verify_fusion_symmetry()
    assert report["pass"] is False
    checks = {ch["name"]: ch for ch in report["checks"]}
    for name in ("vir-grid-interval-rule", "vir-grid-exchange",
                 "vir-grid-bottom-target-exchange", "m1-random-exchange",
                 "m1-random-bottom-target-exchange", "m1-random-charge-negation"):
        violations = int(checks[name]["computed"].split()[0])
        assert not checks[name]["pass"] and violations > 0, checks[name]
