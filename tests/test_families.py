"""The family registry: every family's CLI outputs, the registry as the one family table,
and the loader as the one place that checks a family document against its generator.

The golden file holds, per family, the sha256 of the ``gen`` document, the
``measure sens`` and ``measure prox`` reports (or the exit code where the
command refuses), the ``verify --check claims`` report and one ``sweep`` row,
all without their run times.  Rewrite it with ``python tests/test_families.py``
only when an output is meant to change.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from ilplab.cli import EXIT_OK, build_parser, main
from ilplab.instances import FAMILIES, FAMILY_CUSTOM, doc_dumps, gen_sensitivity, instance_from_doc, instance_to_doc

SRC = Path(__file__).resolve().parents[1] / "src" / "ilplab"
GOLDEN = Path(__file__).resolve().parent / "golden" / "families.json"

#: (CLI name, delta, d): the smallest cells every family command accepts
CELLS = [("sensitivity", 2, 4), ("proximity", 2, 3), ("binpack-sens", 2, 4), ("binpack-prox", 2, 3)]


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def report(code: int, out: str) -> dict:
    if code != EXIT_OK:
        return {"exit": code}
    doc = json.loads(out)
    doc.pop("runtime_ms", None)
    return {"exit": code, "output": doc}


def outputs(tmp: Path, family: str, delta: int, d: int) -> dict:
    path = tmp / f"{family}.json"
    assert run("gen", family, "--delta", delta, "--d", d, "--out", path)[0] == EXIT_OK
    got = {"gen_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    for kind in ("sens", "prox"):
        got[f"measure {kind}"] = report(*run("measure", kind, "--in", path))
    got["claims"] = report(*run("verify", "--check", "claims", "--in", path))
    code, out = run("sweep", family, "--delta", delta, "--d", d)
    cells = out.strip().splitlines()[-1].split(",")
    got["sweep"] = {"exit": code, "row": cells[:8] + cells[9:]}  # cell 8 is runtime_ms
    return got


@pytest.mark.parametrize("family, delta, d", CELLS)
def test_outputs_match_golden(tmp_path, family, delta, d):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs(tmp_path, family, delta, d) == golden[family]


def test_cli_takes_the_registry_names():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    cli_names = sorted(family.cli_name for family in FAMILIES.values())
    for command in ("gen", "sweep"):
        family_arg = next(a for a in commands.choices[command]._actions if a.dest == "family")
        assert sorted(family_arg.choices) == cli_names


#: (delta, d) of one small instance per registry name
SMALL = {"sensitivity": (2, 2), "proximity": (2, 1), "binpack_sens": (2, 2), "binpack_prox": (2, 3)}


def test_loader_accepts_the_registry_names_and_custom():
    assert sorted(SMALL) == sorted(FAMILIES)
    for name, family in FAMILIES.items():
        generated = family.generate(*SMALL[name])
        doc = instance_to_doc(generated)
        assert instance_from_doc(doc) == generated
        for other in FAMILIES:
            if other != name:
                with pytest.raises(ValueError, match=f"not the {other} family|the {other} family has no"):
                    instance_from_doc({**doc, "family": other})
        # custom takes any matrix, under any delta and d
        assert instance_from_doc({**doc, "family": FAMILY_CUSTOM, "delta": 0, "d": -1}).family == FAMILY_CUSTOM
    doc = instance_to_doc(gen_sensitivity(2, 2))
    for name in ["binpack-sens", "Sensitivity", "mystery", ["sensitivity"]]:
        with pytest.raises(ValueError, match="unknown family"):
            instance_from_doc({**doc, "family": name})


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_shape_is_the_generated_shape(name):
    family = FAMILIES[name]
    delta, d = SMALL[name]
    for cell in ((delta, d), (delta + 1, d + 2)):
        a = family.generate(*cell).lp.a
        rows, cols = family.shape(cell[1])
        assert rows == a.nrows and cols in (None, a.ncols)
        assert family.least_columns is None or family.least_columns(*cell) <= a.ncols

@pytest.fixture
def generate_calls(monkeypatch):
    """Every registry generator call, as (name, delta, d), made after the fixture starts."""
    calls = []
    for name, family in list(FAMILIES.items()):
        def counted(delta, d, name=name, generate=family.generate):
            calls.append((name, delta, d))
            return generate(delta, d)

        monkeypatch.setitem(FAMILIES, name, replace(family, generate=counted))
    return calls


@pytest.mark.parametrize(
    "name, delta, d, command",
    [
        ("sensitivity", 2, 4, ("measure", "sens")),
        ("proximity", 2, 3, ("measure", "prox")),
        ("binpack_sens", 2, 2, ("verify", "--check", "claims")),
        ("sensitivity", 2, 4, ("bounds",)),
    ],
)
def test_a_document_is_generated_once_when_it_is_read(tmp_path, generate_calls, name, delta, d, command):
    path = tmp_path / "inst.json"
    path.write_text(doc_dumps(instance_to_doc(FAMILIES[name].generate(delta, d))), encoding="utf-8")
    generate_calls.clear()
    assert run(*command, "--in", path)[0] == EXIT_OK
    assert generate_calls == [(name, delta, d)]


@pytest.mark.parametrize(
    "name, delta, d, relabel",
    [
        ("sensitivity", 2, 2, {"family": "binpack_sens", "delta": 5, "d": 16}),  # rows
        ("sensitivity", 2, 4, {"d": 6}),  # rows and columns
        ("proximity", 2, 1, {"family": "sensitivity", "d": 15}),  # columns
        ("binpack_prox", 2, 3, {"d": 5}),
        # d rows, but fewer columns than the multisets of items that fit in the bin
        ("sensitivity", 2, 16, {"family": "binpack_sens", "delta": 3}),
        ("sensitivity", 2, 16, {"family": "binpack_sens", "delta": 4}),
        ("sensitivity", 2, 16, {"family": "binpack_sens", "delta": 5}),
    ],
)
def test_a_misshapen_document_is_refused_before_generating(generate_calls, name, delta, d, relabel):
    doc = instance_to_doc(FAMILIES[name].generate(delta, d))
    generate_calls.clear()
    with pytest.raises(ValueError, match=f"is not the {relabel.get('family', name)} family"):
        instance_from_doc({**doc, **relabel})
    assert generate_calls == []


def test_a_sweep_cell_is_generated_once(generate_calls):
    assert run("sweep", "sensitivity", "--delta", 2, "--d", "2,4")[0] == EXIT_OK
    assert generate_calls == [("sensitivity", 2, 2), ("sensitivity", 2, 4)]


#: the only functions that call a family's generator: where an instance enters the program
GENERATE_SITES = {("instances", "instance_from_doc"), ("cli", "_cmd_gen"), ("cli", "_sweep_cell")}


def generate_sites(path: Path) -> list[tuple[str, str | None, int]]:
    """(module, innermost enclosing function, line) of each ``.generate(`` call in the file."""
    hits = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            call = child.func if isinstance(child, ast.Call) else None
            if isinstance(call, ast.Attribute) and call.attr == "generate":
                hits.append((path.stem, function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return hits


def test_families_are_generated_only_where_instances_enter():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in generate_sites(path)]
    stray = [hit for hit in hits if hit[:2] not in GENERATE_SITES]
    assert not stray, f"a family generated outside {sorted(GENERATE_SITES)}: {stray}"
    assert {hit[:2] for hit in hits} == GENERATE_SITES


def dispatch_on_family(path: Path) -> list[str]:
    """Each FAMILY_* name and each comparison with a family string in the file, with its line."""
    family_strings = {FAMILY_CUSTOM} | {n for f in FAMILIES.values() for n in (f.name, f.cli_name)}
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        names = [node.id] if isinstance(node, ast.Name) else []
        names += [node.attr] if isinstance(node, ast.Attribute) else []
        names += [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        hits += [f"{path.name}:{node.lineno} names {n}" for n in names if n.startswith("FAMILY_")]
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and sub.value in family_strings:
                    hits.append(f"{path.name}:{sub.lineno} compares with {sub.value!r}")
    return hits


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "instances.py"))
def test_no_family_dispatch_outside_the_registry(module):
    hits = dispatch_on_family(SRC / module)
    assert not hits, f"family dispatch outside instances.FAMILIES: {hits}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {cell[0]: outputs(Path(tmp), *cell) for cell in CELLS}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n", encoding="utf-8")
