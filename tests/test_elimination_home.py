"""The elimination and the rule that turns sparse vectors into its rows live
in core alone: no other module of src/voacalc names its internals; they reach
it through `independent`, `coordinates`, `kernel`, `rank`, `null_space` and
`solve`. Inside core, `rank`, `null_space` and `independent` are the only
callers of the certified elimination `_eliminate`, and it is the only caller
of the prime draw, the elimination mod p, the kernel read-back and its exact
check; the prime draw alone calls the primality test."""

from __future__ import annotations

import ast
from pathlib import Path

from test_lattice_home import calls_of

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
PRIVATE = {"_columns", "_eliminate", "_echelon_mod", "_exact_kernel", "_is_prime", "_misses",
           "_prime", "_rationals"}


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
    inner = {"_eliminate", "_echelon_mod", "_exact_kernel", "_is_prime", "_misses", "_prime",
             "_rationals"}
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py")) for call in calls_of(path, inner))
    assert calls == sorted([
        ("_eliminate", "core.rank"), ("_eliminate", "core.null_space"),
        ("_eliminate", "core.independent"), ("_echelon_mod", "core._eliminate"),
        ("_exact_kernel", "core._eliminate"), ("_rationals", "core._exact_kernel"),
        ("_prime", "core._eliminate"), ("_is_prime", "core._prime"),
        ("_misses", "core._eliminate"), ("_misses", "core._eliminate"),
    ]), calls
