"""Workload definitions and the correctness gate every pass goes through.

A workload is one `ilplab` command line run through `ilplab.cli.main`, on an
instance file made by `ilplab gen` during set-up (or, for the fuzzer, on the
benchmark seed alone).  A pass fails when the command's exit code is not 0,
when its canonical output (the JSON with ``runtime_ms`` removed) differs from
the output recorded in ``expected/<workload>.json``, when a paper value is
wrong, or when the generated instance document is not the recorded one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (family, delta, d) handed to `ilplab gen`, or None when there is no instance
    gen: tuple[str, int, int] | None
    #: CLI arguments; "{instance}" and "{seed}" are filled in per run
    argv: tuple[str, ...]
    #: paper values checked on every pass, independent of the recorded output
    paper_check: Callable[[dict], list[str]]
    #: fuzz trial count, or None for the staircase workloads (which ignore the seed)
    trials: int | None = None

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def command(self, instance: Path | None, seed: int) -> list[str]:
        return [
            a.replace("{instance}", str(instance)).replace("{seed}", str(seed))
            for a in self.argv
        ]

    def identity(self, instance_sha256: str | None, seed: int) -> dict:
        """What must be equal for two results of this workload to be comparable."""
        return {
            "workload": self.name,
            "argv": list(self.argv),
            "gen": list(self.gen) if self.gen else None,
            "instance_sha256": instance_sha256,
            "seed": seed if self.seeded else None,
            "trials": self.trials,
        }


def _expect(doc: dict, path: tuple[str, ...], want) -> list[str]:
    got = doc
    for key in path:
        got = got.get(key) if isinstance(got, dict) else None
    if got != want:
        return [f"paper value {'.'.join(path)} is {got!r}, expected {want!r}"]
    return []


def sensitivity_check(linf: int, l1: int, subdet: int) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        return (
            _expect(doc, ("measured", "linf"), str(linf))
            + _expect(doc, ("measured", "l1"), str(l1))
            + _expect(doc, ("subdet",), str(subdet))
        )

    return check


def proximity_check(optima: int, l1: int, reference_l1: int) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        errors = (
            _expect(doc, ("solution_counts", "integral_optima"), optima)
            + _expect(doc, ("measured", "l1"), str(l1))
            + _expect(doc, ("reference_lower", "l1"), str(reference_l1))
        )
        if not errors and Fraction(doc["measured"]["l1"]) < Fraction(doc["reference_lower"]["l1"]):
            errors.append("measured l1 is below the paper's reference lower bound")
        return errors

    return check


def hull_check(points: int) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        errors = _expect(doc, ("passed",), True) + _expect(
            doc, ("report", "verdict"), "polytopish"
        )
        found = len(doc.get("report", {}).get("hull_integer_points", ()))
        if found != points:
            errors.append(f"hull has {found} integer points, expected {points}")
        return errors

    return check


def fuzz_check(trials: int) -> Callable[[dict], list[str]]:
    # Every completed trial makes one proximity and two sensitivity checks.
    def check(doc: dict) -> list[str]:
        return (
            _expect(doc, ("trials",), trials)
            + _expect(doc, ("checks",), 3 * trials)
            + _expect(doc, ("violations",), [])
        )

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sens-subdet",
            "exactla-bound: 184,755 Fraction determinants in max_subdet_all, 40 tiny LPs; ignores the seed",
            ("sensitivity", 3, 10),
            ("measure", "sens", "--in", "{instance}"),
            sensitivity_check(linf=19683, l1=29524, subdet=19683),
        ),
        Workload(
            "prox-enum",
            "lp/ilp-bound: 1,513 cold lp_solve calls enumerating 7 optima, no determinants; ignores the seed",
            ("proximity", 2, 7),
            ("measure", "prox", "--in", "{instance}"),
            proximity_check(optima=7, l1=1273, reference_l1=1092),
        ),
        Workload(
            "hull-walk",
            "presolve and LP construction: 2,554 mostly presolved LPs, half the time in vec coercion; ignores the seed",
            ("proximity", 2, 3),
            ("verify", "--check", "polytopish", "--in", "{instance}"),
            hull_check(points=51),
        ),
        Workload(
            "fuzz-random",
            "non-staircase: small dense random systems load the simplex core and dense determinants; uses --seed (default 7)",
            None,
            ("fuzz", "--seed", "{seed}", "--trials", "1000"),
            fuzz_check(1000),
            trials=1000,
        ),
    )
}

#: Small sizes for the benchmark's self-tests; not part of BENCHMARK.json.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "smoke-sens",
            "self-test: sensitivity family at delta 2, d 4",
            ("sensitivity", 2, 4),
            ("measure", "sens", "--in", "{instance}"),
            sensitivity_check(linf=8, l1=15, subdet=8),
        ),
        Workload(
            "smoke-prox",
            "self-test: proximity family at delta 2, d 3",
            ("proximity", 2, 3),
            ("measure", "prox", "--in", "{instance}"),
            proximity_check(optima=7, l1=73, reference_l1=52),
        ),
        Workload(
            "smoke-fuzz",
            "self-test: fuzzer with 5 trials",
            None,
            ("fuzz", "--seed", "{seed}", "--trials", "5"),
            fuzz_check(5),
            trials=5,
        ),
    )
}

ALL_WORKLOADS = {**WORKLOADS, **SMOKE_WORKLOADS}


def canonical(stdout: str) -> dict:
    """The command's JSON output without its wall-clock field."""
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    doc.pop("runtime_ms", None)
    return doc


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_expected(name: str) -> dict:
    """``{"instance_sha256": ..., "outputs": {seed or "any": canonical output}}``."""
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_output(wl: Workload, expected: dict, seed: int) -> dict | None:
    """The recorded output for this seed; None for a seed never recorded."""
    return expected["outputs"].get(str(seed) if wl.seeded else "any")


def check_pass(
    wl: Workload,
    expected: dict,
    seed: int,
    exit_code: int,
    stdout: str,
    instance_sha256: str | None,
) -> tuple[list[str], dict | None]:
    """Reasons the pass failed (empty when it is correct), and its canonical output."""
    errors: list[str] = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if instance_sha256 != expected["instance_sha256"]:
        errors.append(
            f"instance sha256 {instance_sha256} differs from the recorded "
            f"{expected['instance_sha256']}"
        )
    try:
        doc = canonical(stdout)
    except ValueError as exc:
        return errors + [f"output is not JSON: {exc}"], None
    want = expected_output(wl, expected, seed)
    if want is not None and digest(doc) != digest(want):
        errors.append("canonical output differs from the recorded output")
    errors.extend(wl.paper_check(doc))
    return errors, doc
