"""Sparse vectors have one exact form: a `SparseVec` stores ({key: nonzero
int}, den), the pair `core._int_sum` returns. The layers that make or read
vectors in bulk work on that pair, so `HighestWeightModule.act`,
`FockSpace.vertex_mode`, `FockSpace.theta`, `core._columns` and
`core.kernel` never name `Fraction`. Common denominators are taken in three
places only: `core._int_sum` for vectors, `core._integer_row` for the rows
of the elimination (its callers, `rank` and `_columns`, are pinned in
test_elimination_home.py) and the Gram ladder `HighestWeightModule._int_gram`."""

from __future__ import annotations

import ast
from pathlib import Path

from test_lattice_home import calls_of

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
ON_THE_INTS = {"virasoro.py": {"HighestWeightModule.act"},
               "fock.py": {"FockSpace.vertex_mode", "FockSpace.theta"},
               "core.py": {"_columns", "kernel"}}


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


def test_common_denominators_are_taken_in_three_places():
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py"))
                   for call in calls_of(path, {"lcm"}))
    assert calls == [("lcm", "core._int_sum"), ("lcm", "core._integer_row"),
                     ("lcm", "virasoro.HighestWeightModule._int_gram")], calls
