"""The elimination and the rule that turns sparse vectors into its rows live
in core alone: no other module of src/voacalc names `_bareiss_echelon`,
`_columns` or `_rank_mod_p`; they reach it through `independent`,
`coordinates`, `kernel`, `rank`, `null_space` and `solve`. The modular rank
is a certificate of `rank` alone, so `rank` is its one caller."""

from __future__ import annotations

import ast
from pathlib import Path

from test_lattice_home import calls_of

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
PRIVATE = {"_bareiss_echelon", "_columns", "_rank_mod_p"}


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


def test_rank_alone_calls_the_modular_rank():
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in calls_of(path, {"_rank_mod_p"})]
    assert calls == [("_rank_mod_p", "core.rank")], calls
