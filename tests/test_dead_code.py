"""Dead-helper guard: every function, method and module-level name defined
in src/voacalc must be referenced somewhere besides its own definition, in
src/, tests/, bench/ or README.md.

Stdlib only. A reference is a name, an attribute, an imported name or a
word inside a string constant (docstrings excepted) in any Python file
there, or a word inside a code span or code block of README.md; defining or
assigning a name does not count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voacalc"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_README_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


def _definitions(tree: ast.Module):
    """(name, line) of every function and method, and every class and
    assigned name at module level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def _references(tree: ast.Module) -> set:
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(_WORD.findall(node.value))
    return out


def test_no_unreferenced_definitions_in_package():
    readme = (ROOT / "README.md").read_text()
    referenced = set(_WORD.findall(" ".join(_README_CODE.findall(readme))))
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text(), str(path)))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, line in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced:
                dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
