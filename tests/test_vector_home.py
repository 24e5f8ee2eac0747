"""Sparse vectors have one exact form: a `SparseVec` stores ({key: nonzero
int}, den), the pair `core._int_sum` returns. The layers that make or read
vectors in bulk work on that pair, so `HighestWeightModule.act`,
`FockSpace.vertex_mode`, `FockSpace.theta`, `FockSpace.theta_basis`,
`FockSpace.basis`, `core._columns` and `core.kernel` never name `Fraction`,
nor do ω and J, which a `FockSpace` builds once, as ints, in `__init__`,
and the forms `HighestWeightModule.pair` and `FockSpace.bilinear` read the
stored ints, not `coeff` or `items`, and make one `Fraction` at the end. A
lattice charge is an int in every key the Fock layer builds from int
charges; only a charge off the lattice is a `Fraction`. Common denominators are taken in three
places only: `core._int_sum` for vectors, `core._integer_row` for the rows
of the elimination (its callers, `rank` and `_columns`, are pinned in
test_elimination_home.py) and the Gram ladder `HighestWeightModule._int_gram`."""

from __future__ import annotations

import ast

from fractions import Fraction
from pathlib import Path

from test_lattice_home import calls_of
from voacalc.cli import _parse_fock_monomial
from voacalc.core import SparseVec
from voacalc.fock import FockSpace

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
ON_THE_INTS = {"virasoro.py": {"HighestWeightModule.act"},
               "fock.py": {"FockSpace.vertex_mode", "FockSpace.theta",
                           "FockSpace.theta_basis", "FockSpace.basis",
                           "FockSpace.__init__", "FockSpace.omega", "FockSpace.jvec"},
               "core.py": {"_columns", "kernel"}}
FORMS = {"virasoro.py": "HighestWeightModule.pair", "fock.py": "FockSpace.bilinear"}


def _functions(tree: ast.Module):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_the_vector_layers_name_no_fraction():
    found, named = set(), []
    for filename, wanted in ON_THE_INTS.items():
        tree = ast.parse((PACKAGE / filename).read_text(), filename)
        for name, func in _functions(tree):
            if name not in wanted:
                continue
            found.add(name)
            named += [f"{filename} {name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Name) and node.id == "Fraction"
                      or isinstance(node, ast.Attribute) and node.attr == "Fraction"]
    assert found == set().union(*ON_THE_INTS.values()), found
    assert not named, named
    # `vir_act` reads the one ω of its space at every call
    sp = FockSpace(2)
    assert sp.omega() is sp.omega() and sp.jvec() is sp.jvec()


def test_common_denominators_are_taken_in_three_places():
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py"))
                   for call in calls_of(path, {"lcm"}))
    assert calls == [("lcm", "core._int_sum"), ("lcm", "core._integer_row"),
                     ("lcm", "virasoro.HighestWeightModule._int_gram")], calls


def test_the_forms_read_the_stored_ints():
    for filename, wanted in FORMS.items():
        tree = ast.parse((PACKAGE / filename).read_text(), filename)
        func, = (func for name, func in _functions(tree) if name == wanted)
        attrs = [node for node in ast.walk(func) if isinstance(node, ast.Attribute)]
        # `x._ints.items()` walks a stored dict; `SparseVec.items` makes Fractions
        readers = [f"{wanted}:{node.lineno} {node.attr}" for node in attrs
                   if node.attr == "coeff" or node.attr == "items" and not (
                       isinstance(node.value, ast.Attribute) and node.value.attr == "_ints")]
        assert any(node.attr == "_ints" for node in attrs) and not readers, readers


def test_lattice_keys_carry_int_charges():
    sp = FockSpace(2)
    v = sp.xvec(-1) + SparseVec.unit(((2, 1), 1)) + SparseVec.unit(((3,), 0))
    u = sp.jvec() + sp.xvec(1) + SparseVec.unit(((1,), -1))
    built = [SparseVec.unit(sp.VACUUM), sp.jvec(), sp.omega(), sp.xvec(2), sp.xvec(Fraction(-3)),
             *sp.theta_basis("-", "vl", 9),
             *(sp.vertex_mode(u, n, v) for n in range(-2, 6)),
             *(sp.lattice_vertex_mode(b, n, v) for b in (1, Fraction(-2)) for n in range(-2, 10))]
    keys = [*sp.basis("vl", 9), _parse_fock_monomial("a(-2)e(-1)"),
            *(key for vec in built for key in vec.keys())]
    assert {charge for _, charge in keys} == set(range(-3, 3))
    assert [key for key in keys if type(key[1]) is not int] == []
    # a charge off the lattice stays a Fraction, and so do the charges it reaches
    half = sp.xvec(Fraction(1, 2))
    out = sp.vertex_mode(u, 0, half)
    assert not out.is_zero()
    assert {type(charge) for _, charge in [*half.keys(), *out.keys()]} == {Fraction}
