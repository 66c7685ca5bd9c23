"""CLI stdout and exit codes, byte for byte, against a recorded table.

Each case runs ``frobtilt.cli.main`` in-process and compares its exit code
and the SHA-256 of its stdout with ``cli_golden.json``.  The table covers
every subcommand except ``batch`` on every catalog fan in json (``frob``
with ``--ell 2``; ``nef`` and ``cohom`` with ``--divisor`` set to the
canonical divisor K = -1 on every ray, ``nef`` also with -K = 1 on every
ray, ``cohom`` also with ``--patterns``), plus ``orlov``, ``describe``,
``frob``, ``frob-set``, ``bu``, ``tilting`` and ``cohom`` (without
``--patterns``) in md and csv, and ``batch`` over ``batch_manifest.json`` in
json, md and csv.  A case is keyed by its argv with the manifest's path
shortened to its file name, so the key does not depend on the checkout.

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
MANIFEST = Path(__file__).with_name("batch_manifest.json")


def cases() -> dict[str, list[str]]:
    out = []
    for name in catalog_names():
        K = ",".join("-1" for _ in builtin(name).fan.rays)
        antiK = ",".join("1" for _ in builtin(name).fan.rays)
        out += [
            ["describe", name],
            ["frob", name, "--ell", "2"],
            ["frob-set", name],
            ["stabilize", name],
            ["nef", name, "--divisor", K],
            ["nef", name, "--divisor", antiK],
            ["cohom", name, "--divisor", K],
            ["cohom", name, "--divisor", K, "--patterns"],
            ["bu", name],
            ["tilting", name],
            ["orlov", name],
            ["orlov", name, "--format", "md"],
            ["orlov", name, "--format", "csv"],
        ]
        for fmt in ("md", "csv"):
            out += [[*argv, "--format", fmt] for argv in (
                ["describe", name], ["frob", name, "--ell", "2"], ["frob-set", name], ["bu", name],
                ["tilting", name], ["cohom", name, "--divisor", K])]
    out += [["batch", "--manifest", str(MANIFEST), "--format", fmt] for fmt in ("json", "md", "csv")]
    return {" ".join(MANIFEST.name if a == str(MANIFEST) else a for a in argv): argv for argv in out}


def digest(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("key", cases())
def test_cli_output_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert digest(cases()[key]) == golden[key]


def test_golden_table_covers_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(cases())


if __name__ == "__main__":
    table = {key: digest(argv) for key, argv in cases().items()}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
