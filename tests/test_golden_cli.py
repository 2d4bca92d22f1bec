"""The command line's bytes, pinned: every verb on every shipped fixture,
text and JSON, against ``golden_cli.json`` next to this file.

Each entry of the golden file holds one argv with the exit code, stdout and
stderr that ``main`` gave for it, verbatim.  The test only reads the file.
Running this module as a script prints the entries for the code as it
stands, for a change that means to alter the output::

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from sheafmealy import fixtures as fx
from sheafmealy.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

_PER_FIXTURE = (
    ["validate"],
    ["fixtures", "dump"],
    *(["check", "separation", "--kind", kind] for kind in ("strict", "cogerm", "beh", "ri")),
    ["check", "glue-cogerm"],
    ["check", "glue-beh"],
    ["check", "glue-beh", "--max-states", "0"],
    ["check", "tame-check"],
    ["check", "eps-depth"],
    ["check", "eps-depth", "--eps", "0.5"],
)


def command_lines() -> list[list[str]]:
    """Every verb on every fixture, first as text, then as JSON."""
    lines = []
    for fmt in ([], ["--format", "json"]):
        lines += [[*fmt, "fixtures", "list"], [*fmt, "check", "landscape"]]
        for name in (f.name for f in fx.all_fixtures()):
            # the fixture name follows the verb's first two words
            lines += [[*fmt, *verb[:2], name, *verb[2:]] for verb in _PER_FIXTURE]
    return lines


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_command_line():
    assert [entry["argv"] for entry in _golden()] == command_lines()


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_prints_its_golden_bytes(argv):
    assert run(argv) == next(e for e in _golden() if e["argv"] == argv)


if __name__ == "__main__":
    json.dump([run(argv) for argv in command_lines()], sys.stdout, indent=1)
    sys.stdout.write("\n")
