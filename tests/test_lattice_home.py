"""The lattice-operator kernel has one way in: in src/voacalc, its halves
`_e_plus` (E^+, the removals) and `_exp_series` (E^-, the exponential
series) and `_exponent` are each called exactly once, and only from
`FockSpace.vertex_mode` (its nested creation table included).
`lattice_vertex_mode` reaches them through `vertex_mode`, so anything put on
that one path sees every lattice mode. The table of exponential-series
coefficients, `_exp_series`, is read in that one place, and its cache has a
fixed bound. The Heisenberg modes take the same path: `heis_act`, `vir_act`
and `lattice_vertex_mode` are modes of alpha(-1).1, omega and e^{b*alpha},
and the creation step `_insert` is called only in `vertex_mode` (its
creation table and its merge)."""

from __future__ import annotations

import ast
from pathlib import Path

from voacalc.fock import EXP_SERIES_CACHE, _exp_series

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voacalc"
KERNELS = {"_e_plus", "_exp_series", "_exponent"}
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
    assert sorted(calls) == [("_e_plus", HOME), ("_exp_series", HOME), ("_exponent", HOME)], calls


def test_only_the_lattice_kernel_reads_the_exp_series_table():
    calls = [call for path in sorted(PACKAGE.glob("*.py"))
             for call in calls_of(path, {"_exp_series"})]
    assert calls == [("_exp_series", HOME)], calls


def test_exp_series_table_is_bounded():
    assert isinstance(EXP_SERIES_CACHE, int) and EXP_SERIES_CACHE > 0
    assert _exp_series.cache_info().maxsize == EXP_SERIES_CACHE


def test_every_fock_operator_is_a_vertex_mode():
    fock = PACKAGE / "fock.py"
    modes = {"heis_act", "vir_act", "lattice_vertex_mode"}
    callers = {owner for _, owner in calls_of(fock, {"vertex_mode"})}
    assert {f"fock.FockSpace.{name}" for name in modes} <= callers, callers
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in calls_of(path, {"_insert"})]
    assert {owner for _, owner in calls} == {HOME}, calls
    defined = {node.name for node in ast.walk(ast.parse(fock.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not {"_lower", "_lattice"} & defined, defined
