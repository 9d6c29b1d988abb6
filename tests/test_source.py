"""Checks on the package source itself."""

import ast
from pathlib import Path

import polybridge

SOURCES = sorted(Path(polybridge.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so the package must not rest on one.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
