"""Every import of the package sits at module top, so a module's
dependencies are all visible in its first lines."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermovisco"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    offenders = []
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            offenders += [f"{func.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not offenders, f"{path.name}: imports inside functions at {offenders}"
