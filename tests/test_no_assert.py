"""No check in the package rests on an ``assert`` statement, which ``python -O`` strips.

An invariant that must hold is checked with an explicit ``raise``.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bellbox").glob("*.py"))


def test_no_assert_statement_in_the_package():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
