"""Rules on the package source itself."""

import ast
import types
from pathlib import Path

import delpezzo
from delpezzo import construct, perms

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


def test_all_names_every_public_binding_once():
    # __init__.py writes each public name twice, in an import list and in
    # __all__; this keeps the two lists from drifting apart
    public = {
        name
        for name, value in vars(delpezzo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(delpezzo.__all__) == len(set(delpezzo.__all__))
    assert set(delpezzo.__all__) == public


def test_private_names_the_benchmark_tracer_hooks_exist():
    # perfbench/tracer.py wraps these two by name for its per-layer
    # metrics; a rename would silently drop them from a traced run
    assert callable(perms._Lattice)
    assert callable(construct._points_with_action_stats)
