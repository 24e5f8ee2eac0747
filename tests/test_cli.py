import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import voacalc
from voacalc.cli import _SUITES, main
from voacalc.fock import verify_fock, verify_lemma57
from voacalc.fusion import verify_fusion_symmetry
from voacalc.virasoro import verify_prop21
from voacalc.w3 import verify_theorem32


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_example(capsys):
    code, out, _ = run(capsys, "dims", "--algebra", "w3", "--c", "1",
                       "--max-weight", "8")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "dims"
    assert report["version"]
    assert report["invocation"][0] == "dims"
    assert report["dims"] == [1, 0, 1, 2, 3, 4, 8, 10, 17]
    assert report["dims"][3:] == [2, 3, 4, 8, 10, 17]


def test_dims_fock_spaces(capsys):
    code, out, _ = run(capsys, "dims", "--algebra", "m1+", "--k", "3",
                       "--max-weight", "6")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 1, 1, 3, 3, 6]
    code, out, _ = run(capsys, "dims", "--algebra", "vl+", "--k", "2",
                       "--min-weight", "1", "--max-weight", "4")
    assert code == 0
    report = json.loads(out)
    assert report["weights"] == [1, 2, 3, 4]


def test_char_and_env_cutoff(capsys, monkeypatch):
    code, out, _ = run(capsys, "char", "--algebra", "vir", "--kind", "l1",
                       "--h", "0", "--cutoff", "6")
    assert code == 0
    assert json.loads(out)["series"] == [1, 0, 1, 1, 2, 2, 4]
    # a report depends on its argv alone: the environment variable that once
    # set the default cutoff changes no byte and no exit code
    calls = (("char", "--algebra", "vir", "--kind", "verma", "--h", "1"),
             ("verify", "lemma57"))
    monkeypatch.delenv("VOACALC_CUTOFF", raising=False)
    unset = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in unset] == [0, 0]
    assert json.loads(unset[0][1])["cutoff"] == 20
    for value in ("4", "oops"):
        monkeypatch.setenv("VOACALC_CUTOFF", value)
        assert [run(capsys, *argv) for argv in calls] == unset, value


def test_char_quarter_square_is_usage_error(capsys):
    code, _, err = run(capsys, "char", "--algebra", "vir", "--kind", "l1",
                       "--h", "9/4", "--cutoff", "8")
    assert code == 2
    assert "9/4" in err


def test_basis_and_act(capsys):
    code, out, _ = run(capsys, "basis", "--algebra", "w3", "--c", "1",
                       "--weight", "6")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 8
    assert "W(-3)W(-3)" in report["basis"]

    code, out, _ = run(capsys, "act", "--algebra", "w3", "--c", "1",
                       "--gen", "W", "--mode", "1",
                       "--monomial", "W(-3)W(-3)")
    assert code == 0
    assert json.loads(out)["terms"] == {
        "L(-2)W(-3)": "164/9", "W(-5)": "182/27"}

    code, out, _ = run(capsys, "act", "--algebra", "fock", "--k", "2",
                       "--gen", "e", "--b", "1", "--mode", "3",
                       "--monomial", "e(-1)")
    assert code == 0
    assert json.loads(out)["terms"] == {"1": "1"}

    code, out, _ = run(capsys, "act", "--algebra", "vir", "--c", "1",
                       "--h", "2", "--gen", "L", "--mode", "1",
                       "--terms", '{"L(-2)": "1/2"}')
    assert code == 0
    assert json.loads(out)["terms"] == {"L(-1)": "3/2"}


def test_gram_rank_nullity(capsys):
    code, out, _ = run(capsys, "gram", "--algebra", "vir", "--c", "1",
                       "--h", "1", "--level", "3")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2 and report["nullity"] == 1
    assert all(isinstance(x, str) for row in report["matrix"] for x in row)

    code, out, _ = run(capsys, "gram", "--algebra", "w3", "--c", "1",
                       "--level", "3")
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [["2", "0"], ["0", "1/3"]]


def test_csv_output(capsys):
    code, out, _ = run(capsys, "dims", "--algebra", "w3", "--c", "1",
                       "--max-weight", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["weight,dim", "0,1", "1,0", "2,1", "3,2", "4,3"]
    code, out, _ = run(capsys, "gram", "--algebra", "w3", "--c", "1",
                       "--level", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["2,0", "0,1/3"]


def test_primary_and_decompose(capsys):
    code, out, _ = run(capsys, "primary", "--c", "1", "--weight", "6")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 1
    assert set(report["vectors"][0]) <= {
        "L(-6)", "L(-4)L(-2)", "L(-3)L(-3)", "L(-2)L(-2)L(-2)",
        "L(-3)W(-3)", "L(-2)W(-4)", "W(-6)", "W(-3)W(-3)"}

    code, out, _ = run(capsys, "decompose", "--c", "1",
                       "--monomial", "L(-3)W(-3)")
    assert code == 0
    report = json.loads(out)
    assert report["remainder"] == {}
    assert report["components"]["w"] == {"L(-3)W(-3)": "1"}


def test_fusion_example(capsys):
    code, out, _ = run(capsys, "fusion", "--algebra", "vir",
                       "--a", "L(1,1)", "--b", "L(1,1)", "--t", "L(1,4)")
    assert code == 0
    assert json.loads(out)["dim"] == 1
    code, out, _ = run(capsys, "fusion", "--algebra", "m1+",
                       "--a", "M(1)+", "--b", "M(1)+", "--t", "M(1)+")
    assert code == 0
    assert json.loads(out)["dim"] == "unknown"


def test_verify_suites_exit_zero(capsys):
    for suite, extra in (("thm32", ()), ("prop21", ("--m", "0..2")),
                         ("lemma57", ("--k", "3")), ("fusion-symmetry", ()),
                         ("fock", ())):
        code, out, _ = run(capsys, "verify", suite, *extra)
        assert code == 0, suite
        report = json.loads(out)
        assert report["pass"] is True
        for check in report["checks"]:
            assert check["source"] in ("PAPER", "TRIVIAL", "DERIVED")
            assert set(check) >= {"name", "expected", "computed", "pass"}


SUITE_FUNCTIONS = {"thm32": verify_theorem32, "prop21": verify_prop21,
                   "lemma57": verify_lemma57, "fusion-symmetry": verify_fusion_symmetry,
                   "fock": verify_fock}


@pytest.mark.parametrize("suite", list(SUITE_FUNCTIONS))
def test_a_cli_suite_runs_with_its_function_defaults(capsys, monkeypatch, suite):
    """`verify <suite>` with no flags calls the suite function with no
    arguments and prints its report after the three CLI keys; every suite
    of the CLI is one of the cases."""
    assert set(SUITE_FUNCTIONS) == set(_SUITES)
    home, name, _ = _SUITES[suite]
    received = []

    def record(*args, **kwargs):
        received.append((args, kwargs))
        return SUITE_FUNCTIONS[suite](*args, **kwargs)
    # the CLI looks the suite function up on its module at each call
    monkeypatch.setattr(importlib.import_module(f"voacalc.{home}"), name, record)
    code, out, _ = run(capsys, "verify", suite)
    expected = {"command": "verify", "invocation": ["verify", suite],
                "version": voacalc.__version__, **SUITE_FUNCTIONS[suite]()}
    assert received == [((), {})]
    assert code == 0 and out == json.dumps(expected, indent=2) + "\n"


def test_verify_thm32_w1_check_present(capsys):
    code, out, _ = run(capsys, "verify", "thm32")
    assert code == 0
    report = json.loads(out)
    w1 = next(ch for ch in report["checks"] if ch["name"] == "W1-u9-nonzero")
    assert w1["pass"] is True
    assert report["recorded_mismatches"] == [
        "w1-action-01", "w1-action-09", "u9-coefficients"]


def test_verify_failure_exits_one(capsys):
    # at central charge -2 the weight-3 block has a singular Gram form, so
    # the membership checks cannot hold and the suite reports failure
    code, out, _ = run(capsys, "verify", "thm32", "--c", "-2")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["exploratory"] is True
    failing = {ch["name"] for ch in report["checks"] if not ch["pass"]}
    assert "weight6-membership-w-component" in failing


def test_usage_errors_exit_two(capsys):
    code, _, _ = run(capsys, "fusion", "--algebra", "vir",
                     "--a", "L(2,1)", "--b", "L(1,1)", "--t", "L(1,1)")
    assert code == 2
    code, _, _ = run(capsys, "act", "--algebra", "w3", "--c", "1",
                     "--gen", "W", "--mode", "1", "--monomial", "W(-2)")
    assert code == 2
    code, _, _ = run(capsys, "act", "--algebra", "w3", "--c", "1",
                     "--gen", "W", "--mode", "1", "--terms", "not json")
    assert code == 2
    code, _, _ = run(capsys, "primary", "--c", "1", "--weight", "-3")
    assert code == 2
    code, _, _ = run(capsys, "verify", "lemma57", "--k", "0")
    assert code == 2
    code, _, _ = run(capsys, "decompose", "--c", "0", "--monomial", "W(-3)")
    assert code == 2
    # L(-1) kills the vacuum, so L(-3)L(-1) is no basis monomial of the quotient
    code, out, _ = run(capsys, "act", "--algebra", "vir", "--vacuum", "--gen", "L",
                       "--mode", "1", "--monomial", "L(-3)L(-1)")
    assert code == 2 and out == ""
    # L_{-2}L_{-3}v = L(-3)L(-2)v + L(-5)v is no basis monomial, so it may not
    # be read as L(-3)L(-2)
    code, out, _ = run(capsys, "act", "--algebra", "vir", "--c", "1", "--h", "1",
                       "--gen", "L", "--mode", "0", "--monomial", "L(-2)L(-3)")
    assert code == 2 and out == ""
    # the Virasoro algebra has no W, as a mode to apply or inside a monomial
    for argv in (("act", "--algebra", "vir", "--h", "1", "--gen", "W", "--mode", "1"),
                 ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "1",
                  "--monomial", "W(-3)")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "unknown generator 'W'" in err, argv
    # inputs that used to end in a traceback with exit 1
    for argv in (
            ("primary", "--weight", "0"),
            ("decompose", "--terms", '{"W(-3)":"1","L(-2)L(-2)":"1"}'),
            ("verify", "thm32", "--c=-22/5"),
            ("gram", "--algebra", "w3", "--c=-22/5", "--level", "2"),
            ("primary", "--c=-22/5", "--weight", "6"),
            ("dims", "--algebra", "w3", "--c=-22/5", "--max-weight", "3"),
            ("verify", "lemma57", "--cutoff", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err, argv


def test_ignored_flags_are_usage_errors(capsys):
    for argv in (
            ("act", "--algebra", "vir", "--vacuum", "--h", "5", "--gen", "L",
             "--mode", "1", "--monomial", "L(-2)"),
            ("dims", "--algebra", "vir", "--h", "1", "--lam", "1", "--mu", "1",
             "--max-weight", "3"),
            ("basis", "--algebra", "vir", "--vacuum", "--lam", "1", "--mu", "1",
             "--weight", "3"),
            ("gram", "--algebra", "vir", "--h", "1", "--lam", "1", "--mu", "2",
             "--level", "2"),
            ("act", "--algebra", "vir", "--h", "1", "--mu", "2", "--lam", "2",
             "--gen", "L", "--mode", "1"),
            ("dims", "--algebra", "m1+", "--lam", "1", "--mu", "1",
             "--max-weight", "3"),
            ("basis", "--algebra", "vl", "--lam", "1", "--mu", "1", "--weight", "3"),
            ("act", "--algebra", "fock", "--lam", "1", "--mu", "1", "--gen", "a",
             "--mode", "1"),
            ("dims", "--algebra", "w3", "--h", "1", "--max-weight", "3"),
            ("gram", "--algebra", "w3", "--vacuum", "--level", "3"),
            ("act", "--algebra", "w3", "--gen", "L", "--mode", "1", "--b", "3",
             "--monomial", "L(-2)"),
            ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "1",
             "--b", "1"),
            ("act", "--algebra", "fock", "--gen", "J", "--mode", "1", "--b", "1"),
            ("act", "--algebra", "fock", "--gen", "a", "--mode", "1", "--b", "1"),
            ("act", "--algebra", "fock", "--gen", "omega", "--mode", "1",
             "--b", "1"),
            ("dims", "--algebra", "vl+", "--c", "1", "--max-weight", "3"),
            ("basis", "--algebra", "m1", "--c", "2", "--weight", "3"),
            ("act", "--algebra", "fock", "--c", "1", "--gen", "a", "--mode", "1"),
            ("dims", "--algebra", "vir", "--vacuum", "--k", "2", "--max-weight", "3"),
            ("basis", "--algebra", "w3", "--k", "1", "--weight", "3"),
            ("act", "--algebra", "w3", "--k", "1", "--gen", "L", "--mode", "1"),
            ("char", "--algebra", "vir", "--h", "1", "--k", "2"),
            ("char", "--algebra", "m1", "--kind", "verma"),
            ("verify", "prop21", "--c", "2"),
            ("verify", "fock", "--k", "5"),
            ("verify", "thm32", "--samples", "3"),
            ("verify", "lemma57", "--m", "0..4"),
            ("verify", "fusion-symmetry", "--max-level", "3"),
            ("verify", "thm32", "--cutoff", "10"),
            ("verify", "prop21", "--seed", "1"),
            ("dims", "--algebra", "w3", "--vacuum", "--max-weight", "3"),
            ("dims", "--algebra", "vl+", "--vacuum", "--max-weight", "3"),
            ("basis", "--algebra", "vl", "--h", "1", "--weight", "3"),
            ("basis", "--algebra", "vir", "--h", "1", "--k", "2", "--weight", "3"),
            ("char", "--algebra", "m1", "--h", "1"),
            ("act", "--algebra", "fock", "--vacuum", "--gen", "a", "--mode", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "voacalc: error:" in err, argv
    # the flags each algebra or suite does read are still accepted
    for argv in (
            ("gram", "--algebra", "w3", "--lam", "1", "--mu", "1", "--level", "2"),
            ("dims", "--algebra", "vir", "--vacuum", "--max-weight", "3"),
            ("act", "--algebra", "fock", "--k", "2", "--gen", "e", "--b", "1",
             "--mode", "3", "--monomial", "e(-1)"),
            ("verify", "all", "--c", "1", "--k", "3", "--m", "0..1",
             "--samples", "5")):
        assert run(capsys, *argv)[0] == 0, argv


def test_vacuous_suite_parameters_are_usage_errors(capsys):
    for argv in (
            ("verify", "prop21", "--max-level", "-3"),
            ("verify", "prop21", "--max-level", "0"),
            ("verify", "prop21", "--m", "-1,2"),
            ("verify", "prop21", "--m", "-2"),
            ("verify", "fusion-symmetry", "--samples", "0"),
            ("verify", "fusion-symmetry", "--samples", "-5"),
            ("verify", "all", "--max-level", "0"),
            ("verify", "all", "--samples", "0")):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
    code, out, _ = run(capsys, "verify", "prop21", "--max-level", "1", "--m", "1")
    assert code == 0
    assert all(ch["computed"] != "(none)" for ch in json.loads(out)["checks"])
    code, out, _ = run(capsys, "verify", "fusion-symmetry", "--samples", "1")
    assert code == 0


# a cheap valid call of every subcommand, and the flags the grid below sets
# to bad values on it
GRID_CALLS = (
    (("dims", "--algebra", "vir", "--h", "1", "--max-weight", "3"),
     ("--algebra", "--c", "--h", "--min-weight", "--max-weight", "--format")),
    (("dims", "--algebra", "w3", "--lam", "1", "--mu", "1", "--max-weight", "3"),
     ("--lam", "--mu")),
    (("dims", "--algebra", "vl+", "--k", "2", "--max-weight", "3"), ("--k",)),
    (("char", "--algebra", "vir", "--h", "1", "--cutoff", "5"),
     ("--algebra", "--kind", "--h", "--cutoff", "--format")),
    (("char", "--algebra", "m1+", "--k", "2", "--cutoff", "5"), ("--k",)),
    (("basis", "--algebra", "vir", "--h", "1", "--weight", "3"),
     ("--algebra", "--c", "--h", "--weight")),
    (("basis", "--algebra", "w3", "--lam", "1", "--mu", "1", "--weight", "3"),
     ("--lam", "--mu")),
    (("basis", "--algebra", "vl", "--k", "2", "--weight", "3"), ("--k",)),
    (("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "1",
      "--monomial", "L(-2)"),
     ("--algebra", "--c", "--h", "--gen", "--mode", "--monomial", "--terms")),
    (("act", "--algebra", "w3", "--lam", "1", "--mu", "1", "--gen", "W", "--mode", "1",
      "--monomial", "L(-1)W(-1)"),
     ("--lam", "--mu", "--gen", "--monomial")),
    (("act", "--algebra", "fock", "--k", "2", "--gen", "e", "--b", "1", "--mode", "1",
      "--monomial", "a(-1)e(-1)"),
     ("--k", "--gen", "--b", "--mode", "--monomial", "--terms")),
    (("gram", "--algebra", "vir", "--h", "1", "--level", "2"),
     ("--algebra", "--c", "--h", "--level", "--format")),
    (("gram", "--algebra", "w3", "--lam", "1", "--mu", "1", "--level", "2"),
     ("--lam", "--mu")),
    (("primary", "--weight", "3"), ("--algebra", "--c", "--lam", "--mu", "--weight")),
    (("decompose", "--monomial", "W(-3)"),
     ("--algebra", "--c", "--lam", "--mu", "--monomial", "--terms")),
    (("fusion", "--algebra", "vir", "--a", "L(1,1)", "--b", "L(1,1)", "--t", "L(1,4)"),
     ("--algebra", "--a", "--b", "--t")),
    (("verify", "thm32"), ("--c",)),
    (("verify", "prop21", "--max-level", "2"), ("--m", "--max-level")),
    (("verify", "lemma57", "--cutoff", "5"), ("--k", "--cutoff")),
    (("verify", "fusion-symmetry", "--samples", "3"), ("--samples", "--seed")),
)
# negative, over every cap, non-numeric, a zero denominator, empty
BAD_VALUES = ("-3", "100001", "x", "1/0", "")
# inputs that were read wrongly, ended in a traceback or ran without bound
BAD_INPUT_REPROS = (
    ("act", "--algebra", "vir", "--c", "1", "--h", "1", "--gen", "L", "--mode", "0",
     "--monomial", "L(-2)L(-3)"),
    ("act", "--algebra", "w3", "--gen", "L", "--mode", "0", "--monomial", "W(-3)L(-2)"),
    ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "0",
     "--terms", '{"L(-3)L(-2)": "1", "L(-1)L(-2)": "1"}'),
    ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "0",
     "--terms", "[" * 100000),
    ("fusion", "--algebra", "vir", "--a", "L(1,1/0)", "--b", "L(1,1)", "--t", "L(1,1)"),
    ("fusion", "--algebra", "m1+", "--a", "M(1,1/0)", "--b", "M(1)+", "--t", "M(1)+"),
    ("dims", "--algebra", "vir", "--h", "1", "--max-weight", "100000"),
    ("act", "--algebra", "fock", "--gen", "e", "--b", "1", "--mode", "-80",
     "--monomial", "1"),
    ("act", "--algebra", "fock", "--k", "200", "--gen", "e", "--b", "1", "--mode", "0",
     "--monomial", "e(-1)"),
    ("act", "--algebra", "fock", "--gen", "J", "--mode", "-40", "--monomial", "1"),
    ("gram", "--algebra", "vir", "--h", "1", "--level", "17"),
    ("primary", "--weight", "17"),
    ("verify", "prop21", "--max-level", "13"),
    ("verify", "prop21", "--m", "0..11"),
    ("char", "--algebra", "vl+", "--k", "1", "--cutoff", "41"),
    ("verify", "lemma57", "--k", "1", "--cutoff", "41"),
    ("verify", "fusion-symmetry", "--samples", "100001"),
    ("basis", "--algebra", "w3", "--weight", "41"),
    ("act", "--algebra", "w3", "--lam", "1", "--mu", "1", "--gen", "W", "--mode", "1",
     "--monomial", "W(-1)" * 17),
    ("act", "--algebra", "w3", "--lam", "1", "--mu", "1", "--gen", "W", "--mode", "1",
     "--monomial", "W(-1)" * 16),
    ("act", "--algebra", "w3", "--lam", "1", "--mu", "1", "--gen", "W", "--mode", "1",
     "--monomial", "W(-1)" * 9),
    ("decompose", "--monomial", "W(-3)" * 6),
    ("basis", "--algebra", "w3", "--lam", "1", "--mu", "1", "--weight", "40"),
    ("gram", "--algebra", "w3", "--lam", "1", "--mu", "1", "--level", "16"),
    ("primary", "--lam", "1", "--mu", "1", "--weight", "16"),
    ("decompose", "--terms", '{"W(-3)": 0}'),
    ("decompose", "--lam", "1/3", "--mu", "2/7", "--monomial", "W(-3)"),
    ("dims", "--algebra", "w3", "--lam", "1", "--max-weight", "3"),
    ("primary", "--mu", "1", "--weight", "3"),
    ("verify", "prop21", "--m", "3..1"),
    ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "1",
     "--monomial", "a(-1)"),
    ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "1",
     "--monomial", "L(-02)"),
    ("act", "--algebra", "w3", "--gen", "L", "--mode", "1", "--monomial", "L(2)"),
    ("act", "--algebra", "fock", "--gen", "a", "--mode", "0", "--monomial", "e(1)e(1)"),
    ("act", "--algebra", "vir", "--h", "1", "--gen", "L", "--mode", "0", "--terms", "{}"),
    ("gram", "--algebra", "vir", "--level", "2"),
    ("dims", "--algebra", "vir", "--h", "1", "--min-weight", "5", "--max-weight", "3"),
    ("char", "--algebra", "vir", "--cutoff", "5"),
    ("act", "--algebra", "fock", "--gen", "e", "--mode", "0", "--monomial", "1"),
    ("act", "--algebra", "fock", "--gen", "L", "--mode", "0", "--monomial", "1"),
)


def _with_value(argv, flag, value):
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + (value,) + argv[i + 2:]
    return argv + (flag, value)


def test_bad_input_grid_never_tracebacks(capsys):
    grid = [_with_value(base, flag, value) for base, flags in GRID_CALLS
            for flag in flags for value in BAD_VALUES]
    grid += [("verify", value) for value in BAD_VALUES]
    for argv in grid:
        # an exception escaping main would be a traceback of the console script
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), argv
        assert code == 0 or (out == "" and "error:" in err), argv
    for argv in BAD_INPUT_REPROS:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, argv


@pytest.mark.parametrize("call", [
    lambda: voacalc.FockSpace(0),
    lambda: voacalc.FockSpace(1.5),
    lambda: voacalc.FockSpace(1).evec(0),
    lambda: voacalc.FockSpace(1).lattice_vertex_mode(
        1, 0, voacalc.FockSpace(1).xvec(Fraction(1, 3))),
    lambda: voacalc.FockSpace(1).basis("x", 2),
    lambda: voacalc.FockSpace(1).theta_basis("*", "m1", 2),
    lambda: voacalc.FockSpace(1).char_series("m1", -1),
    lambda: voacalc.VirasoroModule(1, 1).primary_space(0),
    lambda: voacalc.VirasoroModule(1, 1, vacuum=True),
    lambda: voacalc.W3Module(1, 1),
    lambda: voacalc.W3Module(1, None, 1),
    lambda: voacalc.label_str(("bogus",)),
], ids=["fock-k-0", "fock-k-1.5", "evec-0", "lattice-mode-nonintegral", "basis-space",
        "theta-sign", "char-cutoff", "primary-weight-0", "vacuum-h-1", "w3-lam-only",
        "w3-mu-only", "label"])
def test_library_rejects_bad_arguments_with_input_error(call):
    """Library calls outside what a function accepts raise InputError, which
    the CLI reports as a usage error."""
    with pytest.raises(voacalc.InputError):
        call()


def test_decompose_takes_no_verma_flags(capsys, monkeypatch):
    # the flags are rejected before any primary vector is computed
    def fail(self, weight):
        raise AssertionError("primary_space called")
    monkeypatch.setattr(voacalc.W3Module, "primary_space", fail)
    code, out, err = run(capsys, "decompose", "--lam", "1/3", "--mu", "2/7",
                         "--monomial", "L(-1)" * 8)
    assert code == 2 and out == "" and "error:" in err


def test_argparse_usage_exits_two(capsys):
    assert main(["dims", "--algebra", "bogus", "--max-weight", "3"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_byte_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "fusion-symmetry")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_report_round_trips_through_json(capsys):
    code, out, _ = run(capsys, "verify", "thm32")
    assert code == 0
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed, indent=2)) == parsed


def test_console_script_entry_point():
    # the child interpreter imports the package under test, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(voacalc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "voacalc.cli", "dims", "--algebra", "vir",
         "--c", "1", "--h", "0", "--max-weight", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [1, 1, 2, 3, 5, 7]


def test_module_entry_point_exit_codes():
    """`python -m voacalc.cli` passes main's exit code to the process: 0 for
    --version, 2 for a usage error, with nothing on stdout and no
    traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(voacalc.__file__).parents[1]))

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "voacalc.cli", *argv],
                              capture_output=True, text=True, env=env)

    proc = child("--version")
    assert proc.returncode == 0 and proc.stdout.strip() == voacalc.__version__
    proc = child("gram", "--algebra", "vir", "--level", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--h is required" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert [s["suite"] for s in report["suites"]] == [
        "thm32", "prop21", "lemma57", "fusion-symmetry", "fock"]


# sha256 of stdout for `verify all` and every CLI example in README.md,
# recorded before the Virasoro and W3 engines shared one module base; for
# the next three calls (mixed-weight `act --terms` inputs of both algebras and
# a weight-9 `primary`), recorded before they shared one mode-action interface;
# for the suites at non-default parameters, recorded before the suite
# reports were built by `core.check_values` and `core.report`; and for the
# Fock calls from `act --algebra fock` on, recorded before the Fock rules each
# had one kernel; and for the last, a weight-12 `decompose` with all three
# blocks non-empty, recorded before `decompose` paired each block through its
# mode words. Any refactor must keep these reports byte-identical
GOLDEN_STDOUT_SHA256 = {
    'dims --algebra w3 --c 1 --max-weight 8':
        "86079b0c76146ee3ac91b3c88c6f03376f5143166aff8ae781037cbd56420335",
    'act --algebra w3 --c 1 --gen W --mode 1 --monomial "W(-3)W(-3)"':
        "7452defd2e0e441d6fb2145c08708af0b329b923cd612114624f3f922dd22c6f",
    'gram --algebra vir --c 1 --h 1 --level 3':
        "16e49b7db68398f502512064e8203e4dc68874c456d18b269d769ffcd554935c",
    'gram --algebra w3 --c 1 --level 3':
        "dc1861f252b5da4337acf758f5c8f6aea86b3b592241ed32769f96fc09df411d",
    'primary --algebra w3 --c 1 --weight 6':
        "06f9584ed9804a1f8bc61e4871d235ed438cdd5b41f28bdf0d7d87dcf7137bfc",
    'decompose --algebra w3 --c 1 --monomial "W(-3)W(-3)"':
        "2a5b172eb299560dbda9422dedcdec1993f41914df2c5985f480dc0a221fdb11",
    'char --algebra vl+ --k 3 --cutoff 10 --format csv':
        "7c9a05323d9d13ad3d78ab8a367845db16df610c76eb4cd5708ff2ecda4d8f66",
    'fusion --algebra vir --a "L(1,1)" --b "L(1,4)" --t "L(1,9)"':
        "3dc27874ca7448e8154830600ff597ddb3486596c9e968b6cdd37844a29faf60",
    'fusion --algebra m1+ --a "M(1,3/2)" --b "M(1,1/2)" --t "M(1,2)"':
        "c4a141596d446a2f041c275c140dd4b4fdac9034445b76c0c415f64fc6dc81b1",
    'verify thm32':
        "b89e5748d64fb5d1259e32f7aad881d81d9211ae62bfcf3f41803fba0bcc8259",
    'verify prop21 --m 0..2':
        "733393a280acc05eee0f5f287d090fd1ecc08ebfdf1adb186787a420295930e3",
    'verify lemma57 --k 3':
        "23322a88a9178fb628f71bdd8e57d52b17baaf08ff409ebc9977772fe89daff1",
    'verify fusion-symmetry':
        "0833f23225ae454f3b07bdaa6f2430d8fcc5400648026967106dbcd3dbf8d313",
    'verify fock':
        "8be492cc12aa59c52be18955f45f757200423a71959ec640bf2827b83ef73c76",
    'verify all':
        "cfb63aeece8137be0928d73bb1df62a3fcb30eaa94bb471ec8f08f15718bad55",
    """act --algebra vir --h 1 --gen L --mode 0 --terms '{"L(-1)": 1, "L(-2)": 1, "L(-1)L(-1)": 2, "L(-2)L(-1)": 3}'""":
        "b5d4eb8f0a91a23e190e4a70f7a943ede6be83b50553709500353e0f47b3cdda",
    """act --algebra w3 --gen W --mode -1 --terms '{"L(-2)": 1, "W(-3)": "1/2", "L(-3)W(-3)": 2}'""":
        "05ba32dfe1dcd6bdea072649c384bb70bb70517258ba9b8b30d0222c50c50681",
    'primary --weight 9':
        "8cd861800635380ab9418839be37e156703f5f364648d0e129df4278e5161ef0",
    'verify thm32 --c=-3/7':
        "a41a014e16900ce86d92b12b795dc7ded5ac7e97d001e14f02a8e72781429755",
    'verify prop21 --m 0..3 --max-level 7':
        "a608ef8051b795b9f9245bd17398b34b360d6953f7f0637d4fed1b9b006c61e0",
    'verify prop21 --m 1 --max-level 1':
        "f32364702f07d4b6fdaedd2e37357143359aee8988b9ff5ab3cb5d2d6a79a9cf",
    'verify lemma57 --k 1 --cutoff 30':
        "187f66cd56047c0d5de506a7c29cfd41e1e6f61e3cad1511b3476b950925196e",
    'verify fusion-symmetry --samples 300 --seed 7':
        "ecd589e7f4752b2295ed773053762a2be581bbd1bab5f0780bf2f22c6f78a561",
    'act --algebra fock --k 2 --gen e --b 1 --mode 1 --monomial "a(-2)a(-1)e(-1)"':
        "d281d07e25881a8aa2ca5711423fe0549ae698872eba66ea0d311dcc4e7ee4df",
    'act --algebra fock --k 1 --gen e --b=-2 --mode -3 --monomial "a(-1)a(-1)e(1)"':
        "80f7b02b2844c0eec7034b2c9eac8428adf0d10a607e16f10c8a7dd1845bf117",
    'act --algebra fock --k 1 --gen J --mode 2 --monomial "a(-2)e(1)"':
        "c222b823a0fbc2a07f0b1cbaa60be38fee1dd77781316e61affb46028e6ec616",
    """act --algebra fock --k 3 --gen omega --mode 1 --terms '{"a(-3)a(-1)": 1, "a(-1)e(1)": "1/2"}'""":
        "9788c20b5b4c497d197d5928abca3487e0d70cf097e048d42156d07a47f4fd8d",
    'act --algebra fock --k 2 --gen a --mode 2 --monomial "a(-2)a(-2)e(1)"':
        "a6bdb0b415e0e4da89276b040fc654c1929c9ec1c8b4de186c6ca7855c0d1b1d",
    'basis --algebra vl --k 2 --weight 5':
        "2816e96cb2f0836d29cfaa09057d42dd25ce1515dcaa955b0c20ef42bc18aa98",
    'dims --algebra vl- --k 2 --max-weight 12':
        "d243e8d8a9e9724a39b392a837afa158d5dab7d0b48eb2545b6b8c1a4933481c",
    'decompose --algebra w3 --c 1 --monomial "L(-2)W(-4)W(-3)W(-3)"':
        "c9074fd3292340a1cad727328f6f0dff07221e07ab93f58dc327aabccea8a81c",
}


def test_readme_examples_and_verify_all_are_byte_stable(capsys):
    for example, digest in GOLDEN_STDOUT_SHA256.items():
        code, out, _ = run(capsys, *shlex.split(example))
        assert code == 0, example
        assert hashlib.sha256(out.encode()).hexdigest() == digest, example
