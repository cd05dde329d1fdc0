"""Rules on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import delpezzo
from delpezzo import construct, fields, perms

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


def _dataclasses_imports(source):
    """Line numbers of every import of the dataclasses module."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
            yield node.lineno


def test_no_package_module_imports_dataclasses():
    # every CLI call is a fresh interpreter, and dataclasses brings in
    # inspect, ast, dis and tokenize and builds each class with exec; the
    # records are __slots__ classes on perms._Record instead
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _dataclasses_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_dataclasses_rule_sees_an_import():
    source = "import json\nimport dataclasses\nfrom dataclasses import dataclass\n"
    assert list(_dataclasses_imports(source)) == [2, 3]
    assert list(_dataclasses_imports("from .perms import dataclass_like\n")) == []


# \s, \d, \w or a negation \S, \D, \W after an unescaped backslash; without
# re.ASCII these match Unicode spaces, digits and letters
_UNICODE_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\[sdwSDW]")


def _unicode_regex_calls(source):
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        pattern = node.args[0].value
        ascii_flag = any(
            isinstance(n, ast.Attribute) and n.attr in ("ASCII", "A") for n in ast.walk(node))
        if _UNICODE_CLASS.search(pattern) and not ascii_flag:
            yield node.lineno


def test_regex_classes_are_ascii_in_the_package():
    # input is parsed from ASCII digits and separators only; a bare \s would
    # let an ideographic space through, a bare \d an Arabic-Indic digit
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _unicode_regex_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_regex_rule_sees_a_unicode_class():
    assert list(_unicode_regex_calls('import re\nre.compile(r"[,\\s]+")')) == [2]
    assert list(_unicode_regex_calls('re.split(r"\\d", t, flags=re.ASCII)')) == []
    assert list(_unicode_regex_calls('re.compile(r"\\\\s")')) == []  # an escaped backslash


def test_export_table_names_each_public_object_once():
    # __init__.py binds a public name only on first access, from the
    # submodule its _EXPORTS table names; a name listed twice or under the
    # wrong submodule would resolve to the wrong object or not at all
    listed = [name for names in delpezzo._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == delpezzo.__all__
    for module, names in delpezzo._EXPORTS.items():
        submodule = importlib.import_module(f"delpezzo.{module}")
        for name in names:
            assert getattr(delpezzo, name) is vars(submodule)[name], name
    public = {
        name
        for name, value in vars(delpezzo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(delpezzo.__all__)


def test_dir_lists_every_public_name():
    assert set(delpezzo.__all__) <= set(dir(delpezzo))


def test_unknown_names_are_attribute_and_import_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        delpezzo.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from delpezzo import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    # a fresh interpreter, so no earlier import has bound the submodules yet
    script = (
        "import sys\n"
        "import delpezzo\n"
        f"for name in {sorted(delpezzo._EXPORTS)!r}:\n"
        "    module = getattr(delpezzo, name)\n"
        "    print(module.__name__, module is sys.modules[module.__name__])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"delpezzo.{name} True" for name in sorted(delpezzo._EXPORTS)]


def test_star_import_binds_exactly_all():
    # the import statement itself: no submodule (classify, perms, ...) and
    # no private helper leaks into the importer's namespace
    namespace = {}
    exec("from delpezzo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(delpezzo.__all__)
    assert not any(name.startswith("_") or isinstance(value, types.ModuleType)
                   for name, value in namespace.items())


def test_private_names_the_benchmark_tracer_hooks_exist():
    # perfbench/tracer.py wraps these two by name for its per-layer
    # metrics; a rename would silently drop them from a traced run
    assert callable(perms._Lattice)
    assert callable(construct._points_with_action_stats)


def test_the_lattice_build_goes_through_the_module_global(monkeypatch):
    # the tracer rebinds perms._Lattice to time perms.lattice{5,6}_build,
    # which all_subgroups sees only if it looks the function up at call time
    build = perms._Lattice
    degrees = []

    def recording(degree):
        degrees.append(degree)
        return build(degree)

    perms.all_subgroups.cache_clear()
    monkeypatch.setattr(perms, "_Lattice", recording)
    try:
        assert len(perms.all_subgroups(6)) == 16
    finally:
        perms.all_subgroups.cache_clear()
    assert degrees == [6]


def test_the_point_stats_go_through_the_module_global(monkeypatch):
    # the tracer rebinds construct._points_with_action_stats and counts
    # construct.orbits_placed as len(r[3]), one entry per orbit placed
    stats = construct._points_with_action_stats
    results = []

    def recording(*args):
        results.append(stats(*args))
        return results[-1]

    monkeypatch.setattr(construct, "_points_with_action_stats", recording)
    construct._model5.cache_clear()  # a kept model would run no point search
    construct.realize_dp5(fields.make_field(7, 1, 1), "[Z/6Z]")
    group = perms.class_representative("[Z/6Z]", 5)
    assert len(results) == 1
    assert len(results[0][3]) == len(perms.orbits(group)) == 2


def _unchecked_perm_uses(source):
    """(line, enclosing function) of every reference to Perm._unchecked."""
    tree = ast.parse(source)
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)  # outermost function first
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_unchecked"
                or isinstance(node, ast.Name) and node.id == "_unchecked"):
            yield node.lineno, owner.get(node)


def test_unchecked_perm_constructor_stays_inside_perms():
    # Perm._unchecked skips the bijection check, which is sound only for
    # products and closures of Perms that passed it; a parser or a JSON path
    # that used it could build a Perm that is not a permutation
    outside = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "perms.py"
        for line, _ in _unchecked_perm_uses(path.read_text(encoding="utf-8"))
    ]
    assert outside == []
    inside = _unchecked_perm_uses((PACKAGE / "perms.py").read_text(encoding="utf-8"))
    assert not any(owner is None or owner.startswith("parse") for _, owner in inside)


def test_the_unchecked_rule_sees_a_use():
    source = "def parse_x(t):\n    return Perm._unchecked(t)\nq = _unchecked(())\n"
    assert sorted(_unchecked_perm_uses(source), key=str) == [(2, "parse_x"), (3, None)]


def _object_setattr_uses(source):
    """Line numbers of every reference to object.__setattr__, called or not."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield node.lineno


def test_frozen_values_set_their_fields_through_record_set():
    # perms._Record._set is the one place a frozen value (a record, Perm,
    # Subgroup, FieldSpec or FFElem) sets its fields past the immutability guard
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _object_setattr_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_setattr_rule_sees_a_use():
    source = ("object.__setattr__(self, 'a', 1)\nset_field = object.__setattr__\n"
              "self._set(1)\nsuper().__setattr__('a', 1)\n")
    assert sorted(_object_setattr_uses(source)) == [1, 2]


_GUARDS = ("__setattr__", "__delattr__")


def _guard_definitions(source):
    """(line, class) of every __setattr__ or __delattr__ a class body defines or assigns."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if any(name in _GUARDS for name in names):
                yield node.lineno, cls.name


def test_only_record_guards_a_frozen_value():
    # one class decides how a frozen value refuses a change: every other
    # class that freezes its fields derives from perms._Record
    found = [
        f"{path.name}:{line}:{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, owner in _guard_definitions(path.read_text(encoding="utf-8"))
        if (path.name, owner) != ("perms.py", "_Record")
    ]
    assert found == []


def test_the_guard_rule_sees_a_definition():
    source = ("class A:\n    def __setattr__(self, *args):\n        pass\n"
              "    __delattr__ = __setattr__\n"
              "class B:\n    __setattr__, x = None, 1\n"
              "    def f(self):\n        self.__setattr__ = 1\n"
              "def __delattr__(self):\n    pass\n")
    assert sorted(_guard_definitions(source)) == [(2, "A"), (4, "A"), (6, "B")]


_WHOLE_FIELD_LISTS = ("subfield_elements", "field_elements")


def _whole_field_uses(source):
    """Line numbers of every reference to a whole-field listing, called or not."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _WHOLE_FIELD_LISTS
                or isinstance(node, ast.Name) and node.id in _WHOLE_FIELD_LISTS):
            yield node.lineno


def test_only_fields_lists_a_whole_field():
    # subfield_elements and field_elements build every element of a field;
    # over 2^40 or 3^25 that never finishes, so the other modules reach
    # elements through elements_of_degree or fixed coordinates instead
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "fields.py"
        for line in _whole_field_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_whole_field_rule_sees_a_use():
    source = ("xs = subfield_elements(spec)\nfor x in fields.field_elements(spec):\n    pass\n"
              "listing = subfield_elements\nelements_of_degree(spec, 1)\n"
              "names = ('field_elements',)\n")
    assert sorted(_whole_field_uses(source)) == [1, 2, 4]
