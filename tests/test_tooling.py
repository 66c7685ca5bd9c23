"""Source rules that hold across the package."""

import ast
from pathlib import Path

import frobtilt

SOURCES = sorted(Path(frobtilt.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_bare_assert_in_library():
    # python -O strips assert statements; result guards raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
