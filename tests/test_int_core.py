"""The LP layer's integer core stays in ints: presolve, phase 1 and the pivots name no Fraction."""

import ast
from pathlib import Path

LP = Path(__file__).resolve().parents[1] / "src" / "ilplab" / "lp.py"

INT_CORE = {"_presolve", "_dominates", "_phase1", "_primitive", "_pivot", "_iterate"}
FRACTION_NAMES = {"Fraction", "_ZERO", "_ONE"}


def test_integer_core_names_no_fraction():
    tree = ast.parse(LP.read_text(encoding="utf-8"), filename=str(LP))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert INT_CORE <= functions.keys(), f"missing from lp.py: {INT_CORE - functions.keys()}"
    found = [
        f"{name}:{node.lineno} names {node.id}"
        for name in sorted(INT_CORE)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Name) and node.id in FRACTION_NAMES
    ]
    assert not found, f"Fraction arithmetic in the integer core of lp.py: {found}"
