"""Rules on the package source itself."""

import ast
from pathlib import Path

import delpezzo

PACKAGE = Path(delpezzo.__file__).resolve().parent


def test_no_bare_assert_in_the_package():
    # `python -O` strips assert statements, so a check that guards
    # correctness must raise explicitly instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
