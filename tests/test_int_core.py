"""The integer core stays in ints.

In the LP layer, presolve (one growth by appended rows: from the empty
system, from a remembered system, or from a child node's parent), phase 1
(from a cold start, or from a child's parent's tableau), phase 2, the
pivots and the enumeration node's solve name no Fraction, and every
helper they call is checked too; the enumeration
names no Fraction anywhere, and neither its search nor its
right-hand-side DP builds an LP object.  In ``exactla`` the determinant
and the subdeterminant search name no Fraction.  The ILP data is
integral from the start, so no function of the numeric kernels
(``exactla``, ``lp``, ``ilp`` and ``hull``) reads a numerator or a
denominator.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ilplab"

INT_CORE = {
    "_prepare_system",
    "_child",
    "_grow",
    "_reduce",
    "_dominates",
    "_phase1",
    "_cold_start",
    "_warm_start",
    "_primitive",
    "_subtract",
    "_pivot",
    "_iterate",
    "_phase2",
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


def names_used(fn: ast.FunctionDef, banned: set[str], body_only: bool = False) -> list[str]:
    """Each name or attribute in ``fn``, or in its body alone when ``body_only``, that is in ``banned``, with its line."""
    hits = []
    for top in fn.body if body_only else [fn]:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in banned:
                hits.append(f"{fn.name}:{node.lineno} names {name}")
    return hits


def test_integer_core_names_no_fraction():
    lp = functions(SRC / "lp.py")
    assert INT_CORE <= lp.keys(), f"missing from lp.py: {INT_CORE - lp.keys()}"
    found = [hit for name in sorted(INT_CORE) for hit in names_used(lp[name], FRACTION_NAMES)]
    assert not found, f"Fraction arithmetic in the integer core of lp.py: {found}"


def test_integer_core_is_closed_under_calls():
    # every module-level lp.py function that a node's calls reach, the
    # child's warm start included, is in INT_CORE and so checked above
    tree = ast.parse((SRC / "lp.py").read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_prepare_system", "_child", "residual_range"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [
                node.func.id
                for node in ast.walk(top[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in top
            ]
    assert reached <= INT_CORE, f"called from the integer core but not checked: {reached - INT_CORE}"


def test_search_names_no_fraction_and_no_lp_object():
    ilp = functions(SRC / "ilp.py")
    # the search loop is _search's body: its signature's ``lp: StandardLp`` names the system it reads
    found = names_used(ilp["_search"], SEARCH_NAMES, body_only=True) + names_used(ilp["_dp_optima"], SEARCH_NAMES)
    found += names_used(ilp["_dp_plan"], FRACTION_NAMES)
    assert not found, f"the search or the DP in ilp.py leaves the ints: {found}"


def test_enumeration_module_names_no_fraction():
    names = set()
    for node in ast.walk(ast.parse((SRC / "ilp.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    assert not names & (FRACTION_NAMES | {"fractions"}), "ilp.py names a Fraction"


def test_no_kernel_reads_a_numerator_or_denominator():
    reads = [
        f"{name}:{node.lineno}"
        for name in ("exactla.py", "lp.py", "ilp.py", "hull.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    ]
    assert not reads, f"numerator or denominator read in the kernels: {reads}"


def test_subdeterminant_search_names_no_fraction():
    exactla = functions(SRC / "exactla.py")
    names = ("_bareiss_int", "_best_columns", "_search", "_forest_matching", "max_subdet_all", "det")
    found = [hit for name in names for hit in names_used(exactla[name], FRACTION_NAMES)]
    assert not found, f"Fraction arithmetic in the determinant or the subdeterminant search: {found}"
