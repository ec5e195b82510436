"""Rules the library source keeps.

The CI runs the tier-1 suite under ``python -O``, which drops every
``assert`` statement, so no check in ``src/ample`` may rest on one: an
invariant the code relies on raises an explicit error instead.
"""
from __future__ import annotations

import ast
from pathlib import Path

import ample

SOURCES = sorted(Path(ample.__file__).parent.glob("*.py"))


def test_the_library_source_holds_no_assert_statement():
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
