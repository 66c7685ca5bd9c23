"""CLI stdout and exit codes, byte for byte, against a recorded table.

Each case runs ``frobtilt.cli.main`` in-process and compares its exit code
and the SHA-256 of its stdout with ``cli_golden.json``.  The table covers
every subcommand except ``batch`` on every catalog fan in json (``frob``
with ``--ell 2``; ``nef`` and ``cohom`` with ``--divisor`` set to the
canonical divisor K = -1 on every ray), plus ``orlov`` in md and csv.

The table is regenerated, only when an output change is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def cases() -> list[list[str]]:
    out = []
    for name in catalog_names():
        K = ",".join("-1" for _ in builtin(name).fan.rays)
        out += [
            ["describe", name],
            ["frob", name, "--ell", "2"],
            ["frob-set", name],
            ["stabilize", name],
            ["nef", name, "--divisor", K],
            ["cohom", name, "--divisor", K],
            ["bu", name],
            ["tilting", name],
            ["orlov", name],
            ["orlov", name, "--format", "md"],
            ["orlov", name, "--format", "csv"],
        ]
    return out


def digest(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert digest(argv) == golden[" ".join(argv)]


def test_golden_table_covers_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in cases()}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
