"""Exact invariants in the library raise explicitly; ``python -O`` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ilplab"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/ilplab: {found}"
