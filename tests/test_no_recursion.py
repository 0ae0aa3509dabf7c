"""No function in cstree calls itself.

Trees can be thousands of levels deep, far past Python's recursion limit,
so every tree walk in the package runs on an explicit stack. This guard
keeps recursion from creeping back. It sees direct calls by name, and
method calls through ``self`` or ``cls``. tests/oracles.py stays
recursive on purpose: it is the plain reference the package is checked
against.
"""

import ast
from pathlib import Path

import pytest

import cstree

SOURCES = sorted(Path(cstree.__file__).parent.glob("*.py"))


def _self_calls(function: ast.FunctionDef):
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        by_name = isinstance(callee, ast.Name) and callee.id == function.name
        by_method = (
            isinstance(callee, ast.Attribute)
            and callee.attr == function.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
        )
        if by_name or by_method:
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_calls_itself(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{function.name} (line {line})"
        for function in ast.walk(module)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line in _self_calls(function)
    ]
    assert not found, f"{path.name}: recursive calls in {found}"
