"""The elimination and the rules that turn matrices and sparse vectors into
its rows live in core alone: no other module of src/voacalc names its
internals; they reach it through `independent`, `solve` (and `coordinates`
through it), `kernel` and `rank`. Inside core, these four are the only
callers of the certified elimination `_eliminate`, and it is the only caller
of the prime draw, the elimination mod p, the kernel read-back and its exact
check; the prime draw alone calls the primality test, and the elimination
mod p alone reduces packed rows. Rows are scaled to integers only by
`_integer_row`, called by `rank` and `_columns`, and every row `_eliminate`
is given is a dict of column to nonzero int."""

from __future__ import annotations

import ast
from pathlib import Path

from test_lattice_home import calls_of

from voacalc import core
from voacalc.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
PRIVATE = {"_columns", "_eliminate", "_echelon_mod", "_exact_kernel", "_integer_row",
           "_is_prime", "_misses", "_prime", "_rationals", "_reduced"}


def test_only_core_names_the_elimination_internals():
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in PRIVATE:
                leaks.append(f"{path.name}:{node.lineno} {name}")
    assert not leaks, "elimination internals outside core:\n" + "\n".join(leaks)


def test_only_the_entry_points_call_the_certified_elimination():
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py"))
                   for call in calls_of(path, PRIVATE))
    assert calls == sorted([
        ("_eliminate", "core.rank"), ("_eliminate", "core.independent"),
        ("_eliminate", "core.solve"), ("_eliminate", "core.kernel"),
        ("_echelon_mod", "core._eliminate"), ("_exact_kernel", "core._eliminate"),
        ("_reduced", "core._echelon_mod"), ("_reduced", "core._echelon_mod"),
        ("_rationals", "core._exact_kernel"), ("_prime", "core._eliminate"),
        ("_is_prime", "core._prime"), ("_misses", "core._eliminate"),
        ("_integer_row", "core.rank"), ("_integer_row", "core._columns"),
        ("_columns", "core.independent"), ("_columns", "core.solve"),
        ("_columns", "core.kernel"),
    ]), calls


def test_the_elimination_is_given_sparse_integer_rows(capsys, monkeypatch):
    """Wrap `_eliminate` through an in-process `verify all` and
    `primary --weight 10`: every row is a dict of column to nonzero int,
    with each column below ncols."""
    eliminate, seen = core._eliminate, []

    def wrapped(rows, ncols):
        seen.append((rows, ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(core, "_eliminate", wrapped)
    assert main(["verify", "all"]) == 0 and main(["primary", "--weight", "10"]) == 0
    capsys.readouterr()
    bad = [(row, ncols) for rows, ncols in seen for row in rows
           if type(row) is not dict or not all(
               type(j) is int and 0 <= j < ncols and type(x) is int and x
               for j, x in row.items())]
    assert len(seen) >= 40 and not bad, (len(seen), bad[:3])
