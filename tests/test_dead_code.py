"""Dead-helper guard: every function, method and module-level name defined
in src/voacalc must be referenced somewhere besides its own definition, in
src/, tests/, bench/ or README.md.

Stdlib only. A reference is one of these, in any Python file there:
- a name, an imported name, or a string constant that is exactly the name
  (as `getattr` lookups spell it);
- an attribute `x.name` whose receiver is not `args`, the parsed CLI flags.
A method (a function defined in a class body) counts as used only through
the attribute or the string forms, so `args.monomial` or a bare local named
like a method does not keep the method alive. In a code span or code block
of README.md a word counts only as `name(`, `name=` or `.name`, so flag
text such as `--monomial` is no reference. Defining or assigning a name
does not count.

A module-level import that its own module never uses is dead too: every
name a src/voacalc module imports at its top level must be read in that
module.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voacalc"
_README_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
_README_USE = re.compile(r"\.([A-Za-z_]\w*)|(?<![\w-])([A-Za-z_]\w*)\s*[(=]")
_FOREIGN_RECEIVERS = {"args"}


def _definitions(tree: ast.Module):
    """(name, line, is_method) of every function and method, and every class
    and assigned name at module level."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, id(node) in methods
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, False
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, False


def _references(tree: ast.Module) -> tuple[set, set]:
    """(bare names, attribute and string uses) in one parsed file."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id in _FOREIGN_RECEIVERS):
                attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names, attrs


def test_no_unreferenced_definitions_in_package():
    readme = (ROOT / "README.md").read_text()
    code = " ".join(_README_CODE.findall(readme))
    names, attrs = set(), {a or b for a, b in _README_USE.findall(code)}
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            more_names, more_attrs = _references(ast.parse(path.read_text(), str(path)))
            names |= more_names
            attrs |= more_attrs
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, line, is_method in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            used = name in attrs or (not is_method and name in names)
            if not dunder and not used:
                dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def test_no_unused_module_level_imports_in_package():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)
