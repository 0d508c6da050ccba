"""The benchmark's traced check, run on the program in-process.

``perfbench/spans.py`` wraps every public function of each layer, counts its
calls, and cross-checks the counts against what the program reports itself:
the hull walk's ``lp_calls`` against the traced ``lp_solve`` and
``coord_range`` calls, and fuzz's ``checks`` against the traced distances.
A traced benchmark pass whose cross-check reports an error is not correct,
so these tests run the same tracer and cross-check, imported from that file,
on a small hull walk and a small fuzz run.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import ilplab.cli
from ilplab.cli import EXIT_OK

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer, cross_check, layer_metrics  # noqa: E402


def traced(argv: list[str]) -> tuple[dict, dict]:
    """Run ``argv`` through the CLI under the tracer: the command's JSON output and the per-layer metrics."""
    tracer = Tracer()
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        # looked up at call time, so the wrapped main is the one called
        code = ilplab.cli.main(argv)
    assert code == EXIT_OK
    doc = json.loads(out.getvalue())
    return doc, layer_metrics(tracer, doc)


@pytest.fixture
def prox_2_1(tmp_path):
    path = tmp_path / "prox-2-1.json"
    assert ilplab.cli.main(["gen", "proximity", "--delta", "2", "--d", "1", "--out", str(path)]) == EXIT_OK
    return str(path)


def test_hull_walk_calls_counted_by_the_tracer(prox_2_1):
    doc, metrics = traced(["verify", "--check", "polytopish", "--in", prox_2_1])
    assert doc["report"]["lp_calls"] == 364
    assert cross_check(metrics, doc) == []


def test_fuzz_checks_counted_by_the_tracer():
    doc, metrics = traced(["fuzz", "--seed", "7", "--trials", "5"])
    assert doc["checks"] > 0
    assert cross_check(metrics, doc) == []
