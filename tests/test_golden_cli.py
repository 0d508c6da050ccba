"""The CLI golden corpus: every pinned command still prints what ``tests/golden/cli.json`` holds.

Re-record the file with ``PYTHONPATH=src python -m tests.golden_record`` only
when an output is meant to change; see ``golden_record``.
"""

import json

import pytest

from golden_record import COMMANDS, GOLDEN, record


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_corpus_lists_the_commands():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(argv) for argv in COMMANDS])
def test_output_is_the_recorded_one(recorded, index):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert recorded[index] == golden
