"""The integer core stays in ints.

In the LP layer, presolve, phase 1, phase 2, the pivots and the enumeration
node's solve name no Fraction; in the enumeration, the search itself names
no Fraction and builds no LP object.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ilplab"

INT_CORE = {
    "_int_rhs",
    "_presolve",
    "_dominates",
    "_phase1",
    "_primitive",
    "_pivot",
    "_iterate",
    "_phase2",
    "_prepare",
    "_minimum",
    "residual_range",
}
FRACTION_NAMES = {"Fraction", "_ZERO", "_ONE"}
#: what the search must not touch: Fractions, and the LP objects and calls a node once built
SEARCH_NAMES = FRACTION_NAMES | {"StandardLp", "LpResult", "lp_solve", "coord_range", "dot", "vec"}


def functions(path: Path) -> dict[str, ast.FunctionDef]:
    """Every function defined in the file, nested ones included, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def names_used(fn: ast.FunctionDef, banned: set[str]) -> list[str]:
    """Each name or attribute in ``fn`` that is in ``banned``, with its line."""
    hits = []
    for node in ast.walk(fn):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in banned:
            hits.append(f"{fn.name}:{node.lineno} names {name}")
    return hits


def test_integer_core_names_no_fraction():
    lp = functions(SRC / "lp.py")
    assert INT_CORE <= lp.keys(), f"missing from lp.py: {INT_CORE - lp.keys()}"
    found = [hit for name in sorted(INT_CORE) for hit in names_used(lp[name], FRACTION_NAMES)]
    assert not found, f"Fraction arithmetic in the integer core of lp.py: {found}"


def test_search_names_no_fraction_and_no_lp_object():
    ilp = functions(SRC / "ilp.py")
    found = names_used(ilp["visit"], SEARCH_NAMES) + names_used(ilp["_integer_system"], FRACTION_NAMES)
    assert not found, f"the search in ilp.py leaves the ints: {found}"
