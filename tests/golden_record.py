"""The CLI golden corpus: command lines, their canonical outputs and exit codes.

``tests/golden/cli.json`` pins what each command below prints, so an output
that is meant to stay byte-identical is checked on every test run
(``tests/test_golden_cli.py``).  Each command runs through ``ilplab.cli.main``
in-process, on instance files that ``gen`` writes into a temporary
directory first.  An argument ``@name`` stands for the path of instance
``name``.  An output is canonical once JSON output has lost its
``runtime_ms`` key, each CSV row has its ``runtime_ms`` cell blank, and
the temporary directory's path reads ``@``.

A change that alters an output on purpose re-records the file and commits
it, so the file's diff shows what changed::

    PYTHONPATH=src python -m tests.golden_record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from ilplab.cli import EXIT_OK, main
from ilplab.measures import CSV_HEADER

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

#: name -> (``gen`` family, delta, d) of every instance the commands read
INSTANCES = {
    "prox-2-1": ("proximity", 2, 1),
    "prox-2-3": ("proximity", 2, 3),
    "prox-2-5": ("proximity", 2, 5),
    "prox-2-7": ("proximity", 2, 7),
    "prox-3-3": ("proximity", 3, 3),
    "sens-2-4": ("sensitivity", 2, 4),
    "sens-3-4": ("sensitivity", 3, 4),
    "sens-3-6": ("sensitivity", 3, 6),
    "sens-3-10": ("sensitivity", 3, 10),
    "sens-2-14": ("sensitivity", 2, 14),
    "sens-2-16": ("sensitivity", 2, 16),
    "bps-2-4": ("binpack-sens", 2, 4),
    "bps-2-6": ("binpack-sens", 2, 6),
    "bpp-2-3": ("binpack-prox", 2, 3),
}

#: a document the loader refuses: sens-2-4 relabelled custom, with b_0 = 1/2
RATIONAL = "rational"
#: a document the loader refuses: prox-2-3 relabelled d = 5
RELABELLED = "relabelled"
#: a custom document whose columns (2,0), (0,2), (0,0) span a triangle with
#: three more integer points, so it is not polytopish
TRIANGLE = "triangle"

COMMANDS = [
    ["gen", "sensitivity", "--delta", "2", "--d", "4"],
    ["verify", "--check", "polytopish", "--in", "@prox-2-1"],
    ["verify", "--check", "polytopish", "--in", "@prox-2-3"],
    ["verify", "--check", "polytopish", "--in", "@prox-2-5"],
    ["verify", "--check", "polytopish", "--in", "@sens-3-6"],
    ["verify", "--check", "polytopish", "--in", "@prox-2-3", "--budget", "9"],
    ["verify", "--check", "claims", "--in", "@prox-2-3"],
    ["verify", "--check", "claims", "--in", "@sens-2-4"],
    ["verify", "--check", "matchings"],
    ["measure", "prox", "--in", "@prox-2-3"],
    ["measure", "prox", "--in", "@prox-2-7"],
    ["measure", "prox", "--in", "@prox-2-3", "--node-budget", "1"],
    ["measure", "sens", "--in", "@sens-2-4"],
    ["measure", "sens", "--in", "@sens-3-4"],
    ["measure", "sens", "--in", "@sens-3-10"],
    ["measure", "sens", "--in", "@bps-2-4"],
    ["bounds", "--in", "@sens-2-4"],
    ["bounds", "--in", "@prox-2-3"],
    ["bounds", "--in", "@bps-2-4"],
    ["bounds", "--in", "@bpp-2-3"],
    ["fuzz", "--seed", "7", "--trials", "300"],
    ["fuzz", "--seed", "3", "--trials", "200"],
    ["bounds", "--in", f"@{RATIONAL}"],
    ["sweep", "sensitivity", "--delta", "2", "--d", "2,4"],
    ["sweep", "sensitivity", "--delta", "2", "--d", "3,4"],
    ["measure", "sens", "--in", "@sens-2-4", "--csv", "--norm", "l1"],
    ["measure", "prox", "--in", "@prox-2-3", "--node-budget", "342"],
    ["measure", "prox", "--in", "@prox-2-3", "--node-budget", "343"],
    ["gen", "binpack-sens", "--delta", "1", "--d", "4"],
    ["measure", "prox", "--in", f"@{RELABELLED}"],
    ["verify", "--check", "polytopish", "--in", "@prox-2-7"],
    ["verify", "--check", "polytopish", "--in", f"@{TRIANGLE}"],
    ["gen", "sensitivity", "--delta", "2", "--d", "14"],
    ["gen", "sensitivity", "--delta", "2", "--d", "16"],
    ["gen", "binpack-sens", "--delta", "2", "--d", "6"],
    ["bounds", "--in", "@sens-2-14"],
    ["bounds", "--in", "@sens-2-16"],
    ["bounds", "--in", "@bps-2-6"],
    ["verify", "--check", "polytopish", "--in", "@bps-2-4"],
    ["verify", "--check", "polytopish", "--in", "@bpp-2-3"],
    ["verify", "--check", "polytopish", "--in", "@prox-3-3"],
    ["measure", "prox", "--in", "@bpp-2-3"],
    ["measure", "prox", "--in", "@prox-3-3"],
    ["verify", "--check", "claims", "--in", "@bpp-2-3"],
    ["verify", "--check", "claims", "--in", "@prox-3-3"],
    ["verify", "--check", "claims", "--in", "@sens-3-6"],
    ["gen", "binpack-sens", "--delta", "2", "--d", "300"],
]

#: the column of ``runtime_ms`` in a CSV row
_RUNTIME_CELL = CSV_HEADER.split(",").index("runtime_ms")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_canonical(line: str) -> str:
    """A CSV row with its ``runtime_ms`` cell blank; the header and any other line as it is."""
    cells = line.split(",")
    if line == CSV_HEADER or len(cells) != len(CSV_HEADER.split(",")):
        return line
    cells[_RUNTIME_CELL] = ""
    return ",".join(cells)


def _canonical(text: str) -> str:
    """A JSON report without its ``runtime_ms``, printed as the CLI prints it; CSV rows without theirs; any other text as it is."""
    try:
        doc = json.loads(text)
    except ValueError:
        return "\n".join(_csv_canonical(line) for line in text.split("\n"))
    if not isinstance(doc, dict) or doc.pop("runtime_ms", None) is None:
        return text
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_instances(tmp: Path) -> dict[str, str]:
    paths = {}
    for name, (family, delta, d) in INSTANCES.items():
        path = tmp / f"{name}.json"
        code, _, _ = _run(["gen", family, "--delta", str(delta), "--d", str(d), "--out", str(path)])
        if code != EXIT_OK:
            raise RuntimeError(f"gen {name} exited {code}")
        paths[name] = str(path)
    doc = json.loads(Path(paths["sens-2-4"]).read_text(encoding="utf-8"))
    doc["family"] = "custom"
    doc["b"] = ["1/2", *doc["b"][1:]]
    path = tmp / f"{RATIONAL}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    paths[RATIONAL] = str(path)
    doc = json.loads(Path(paths["prox-2-3"]).read_text(encoding="utf-8"))
    doc["d"] = 5
    path = tmp / f"{RELABELLED}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    paths[RELABELLED] = str(path)
    doc = {
        "schema_version": doc["schema_version"],
        "family": "custom",
        "delta": 2,
        "d": 2,
        "matrix": [["2", "0", "0"], ["0", "2", "0"]],
        "b": ["2", "2"],
        "b_prime": ["2", "2"],
        "c": ["0", "0", "0"],
    }
    path = tmp / f"{TRIANGLE}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    paths[TRIANGLE] = str(path)
    return paths


def record() -> list[dict]:
    """Run every command and return its entry: argv, exit code, canonical stdout and stderr."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_instances(Path(tmp))
        for argv in COMMANDS:
            code, out, err = _run([paths[a[1:]] if a.startswith("@") else a for a in argv])
            entries.append(
                {
                    "argv": argv,
                    "exit": code,
                    "stdout": _canonical(out).replace(tmp, "@"),
                    "stderr": err.replace(tmp, "@"),
                }
            )
    return entries


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(COMMANDS)} commands)", file=sys.stderr)
