"""The package surface: `import voacalc` loads no engine module, a CLI call
loads only the modules its command runs, and every public name and submodule
still resolves through the package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voacalc
from voacalc.cli import _SUITES, main

SUBMODULES = ("core", "virasoro", "w3", "fock", "fusion", "cli")

# every name the package exports, with the module that defines it
EXPORTS = {
    "InputError": "core", "SparseVec": "core", "partition_count": "core",
    "partitions": "core", "rank": "core", "series_add": "core",
    "VirasoroModule": "virasoro", "irreducible_character_c1": "virasoro",
    "verify_prop21": "virasoro", "verma_character": "virasoro",
    "DegenerateBlockError": "w3", "W3Module": "w3", "verify_theorem32": "w3",
    "w3_monomial_str": "w3",
    "FockSpace": "fock", "even_square_sum_series": "fock",
    "lattice_charge_tail_series": "fock", "verify_fock": "fock", "verify_lemma57": "fock",
    "fusion_dim": "fusion", "label_str": "fusion", "m1_label": "fusion",
    "parse_label": "fusion", "verify_fusion_symmetry": "fusion", "vir_label": "fusion",
}

# each case runs in a fresh interpreter, and prints the voacalc submodules loaded
LOADED = ("import contextlib, io, json, sys\n"
          "{code}\n"
          "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules "
          "if m.startswith('voacalc.'))))")


def _loaded_after(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(Path(voacalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return ("from voacalc.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("code, loaded", [
    ("import voacalc", set()),
    ("import voacalc; voacalc.fock", {"core", "fock"}),
    ("from voacalc import W3Module", {"core", "virasoro", "w3"}),
    (_cli("--version"), {"cli", "core"}),
    (_cli("fusion", "--algebra", "vir", "--a", "L(1,1)", "--b", "L(1,4)", "--t", "L(1,9)"),
     {"cli", "core", "fusion"}),
    (_cli("verify", "prop21"), {"cli", "core", "virasoro"}),
    (_cli("primary", "--weight", "6"), {"cli", "core", "virasoro", "w3"}),
    (_cli("char", "--algebra", "vl+", "--k", "2", "--cutoff", "8"), {"cli", "core", "fock"}),
    (_cli("verify", "lemma57"), {"cli", "core", "fock", "virasoro"}),
], ids=["import", "import-attribute", "from-import", "version", "fusion", "verify-prop21",
        "primary", "char-fock", "verify-lemma57"])
def test_a_process_loads_only_the_modules_it_runs(code, loaded):
    assert _loaded_after(code) == loaded


@pytest.mark.parametrize("name", list(EXPORTS))
def test_a_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"voacalc.{EXPORTS[name]}")
    assert getattr(voacalc, name) is getattr(home, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from voacalc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(EXPORTS)


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        voacalc.no_such_name


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_resolves_through_the_package(name):
    assert getattr(voacalc, name) is importlib.import_module(f"voacalc.{name}")


@pytest.mark.parametrize("suite", list(_SUITES))
def test_verify_calls_the_function_set_on_its_module(capsys, monkeypatch, suite):
    """A wrapper set on the suite's module through the package attribute is
    what `verify <suite>` calls."""
    home, name, _ = _SUITES[suite]
    monkeypatch.setattr(getattr(voacalc, home), name,
                        lambda **given: {"stand_in": suite, "pass": True})
    assert main(["verify", suite]) == 0
    assert json.loads(capsys.readouterr().out)["stand_in"] == suite
