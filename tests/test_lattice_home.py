"""The lattice-operator kernel has one way in: in src/voacalc, `_lattice` and
`_exponent` are each called exactly once, and only from
`FockSpace.vertex_mode` (its nested recursion included).
`lattice_vertex_mode` reaches them through `vertex_mode`, so anything put on
that one path, such as a memo of `_lattice`, sees every lattice mode."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
KERNELS = {"_lattice", "_exponent"}
HOME = "fock.FockSpace.vertex_mode"


def calls_of(path: Path, names) -> list[tuple[str, str]]:
    """(name, outermost `Class.method` or function around the call) for each
    call in the file of a function or method with one of the names."""
    calls = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                calls.append((name, owner))
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(node, (ast.Module, ast.ClassDef)) and isinstance(
                    child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}"
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return calls


def test_only_vertex_mode_calls_the_lattice_kernels():
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in calls_of(path, KERNELS)]
    assert sorted(calls) == [("_exponent", HOME), ("_lattice", HOME)], calls
