"""Byte-identical reports: the corpus's JSON and text reports against stored digests.

``report_digests.json`` maps each ``analyze`` command line (file names
relative to the corpus) to the exit code and the sha256 of the report it
prints with ``--no-timings``. A refactor must leave every entry unchanged.
When a report change is intended, regenerate the file and commit it with the
change that explains it::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from conftest import corpus_path

from grafcet_lint.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")


def _commands() -> list[str]:
    specs = sorted(p.name for p in corpus_path("").iterdir()
                   if p.name.endswith(".grafcet.json"))
    commands = [f"{s} --format {flag}" for s in specs
                for flag in ("json", "json --dump-invariants", "text")]
    commands += [f"g_rit.grafcet.json --format {fmt} --queries g_rit.queries.json"
                 for fmt in ("json", "text")]
    return commands


def _report(command: str) -> dict:
    argv = ["analyze", "--no-timings"]
    for arg in command.split():
        argv.append(str(corpus_path(arg)) if arg.endswith(".json") else arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_digests_cover_every_command():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_commands())


@pytest.mark.parametrize("command", _commands())
def test_report_is_byte_identical(command):
    assert _report(command) == json.loads(DIGESTS.read_text())[command]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({c: _report(c) for c in _commands()},
                                  indent=1, sort_keys=True) + "\n")
