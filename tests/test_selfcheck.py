"""The self-check sweeps verify exactly the text realize printed, and write no file."""

import builtins
import io
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from delpezzo import cli, perms, selfcheck


@pytest.fixture
def realize_tampers_after_the_first(monkeypatch):
    """Make every realize after the first print its model with the frobenius changed."""
    original = cli._HANDLERS["realize"]
    calls = 0

    def realize(args):
        nonlocal calls
        calls += 1
        if calls == 1:
            return original(args)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = original(args)
        model = json.loads(buf.getvalue())
        model["frobenius"] = "(1 2)" if model["frobenius"] == "()" else "()"
        print(json.dumps(model, indent=2))
        return code

    monkeypatch.setitem(cli._HANDLERS, "realize", realize)


@pytest.fixture
def realize_fails_after_the_first(monkeypatch):
    """Make every realize after the first print an error and exit 1."""
    original = cli._HANDLERS["realize"]
    calls = 0

    def realize(args):
        nonlocal calls
        calls += 1
        if calls == 1:
            return original(args)
        print(json.dumps({"error": "planted failure"}))
        return 1

    monkeypatch.setitem(cli._HANDLERS, "realize", realize)


@pytest.fixture
def realize_drifts_after_the_first(monkeypatch):
    """Make every realize after the first print its model with the type changed."""
    original = cli._HANDLERS["realize"]
    calls = 0

    def realize(args):
        nonlocal calls
        calls += 1
        if calls == 1:
            return original(args)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = original(args)
        model = json.loads(buf.getvalue())
        model["type"] = "[e]" if model["type"] != "[e]" else "[Z/5Z]"
        print(json.dumps(model, indent=2))
        return code

    monkeypatch.setitem(cli._HANDLERS, "realize", realize)


@pytest.mark.parametrize("check", [selfcheck.check_realization_sweep,
                                   selfcheck.check_degree6_pipeline])
def test_tampered_model_fails_the_sweep(realize_tampers_after_the_first, check):
    ok, detail = check()
    assert not ok
    assert "verify failed" in detail


@pytest.mark.parametrize("fault, start", [
    ("realize_fails_after_the_first", "degree-5 realize failed for "),
    ("realize_drifts_after_the_first", "type drift for "),
])
def test_a_later_realize_fault_fails_the_sweep(request, fault, start):
    request.getfixturevalue(fault)
    ok, detail = selfcheck.check_realization_sweep()
    assert not ok
    assert detail.startswith(start)


def test_run_all_writes_no_file(monkeypatch):
    real_open = builtins.open

    def read_only_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            raise PermissionError(f"opened {file!r} for writing")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", read_only_open)
    results = selfcheck.run_all()
    assert [(r.name, r.detail) for r in results if not r.ok] == []
    assert len(results) == 10


# Each check against a planted fault in the package function it compares to:
# (check, name patched in selfcheck, fault made from the real function, the
# start of the failure detail).
_PLANTED_FAULTS = [
    ("check_aut_table", "aut_table",
     lambda real: lambda: [SimpleNamespace(label=row.label, aut_group=perms.generate([], 5))
                           for row in real()],
     "centralizer mismatch"),
    ("check_minimal_rank", "invariant_rank",
     lambda real: lambda sub: real(sub) + 1,
     "rank"),
    ("check_invariant_vertices", "has_invariant_independent_set",
     lambda real: lambda sub: (not real(sub)[0], None),
     "subset scan disagrees"),
    ("check_graph_isomorphism", "intersect",
     lambda real: lambda a, b: 1 - real(a, b),
     "adjacency mismatch"),
    ("check_graph_isomorphism", "graph_action",
     lambda real: lambda sigma: real(perms.Perm.identity(5)),
     "automorphism group"),
    ("check_complexity_thresholds", "complexity",
     lambda real: lambda group: real(group) + 1,
     "complexities"),
    ("check_minimal_existence", "g_minimal_exists",
     lambda real: lambda group, cap: (not real(group, cap)[0], None),
     "existence mismatch"),
    ("check_equivariance", "points_with_action",
     lambda real: lambda base, group: (real(base, group)[0],) * 5,
     "collision"),
    ("check_equivariance", "points_with_action",
     lambda real: lambda base, group: real(base, group)[1::-1] + real(base, group)[2:],
     "equivariance fails"),
    ("check_degree6_pipeline", "hexagon_restriction",
     lambda real: lambda sigma: real(perms.Perm.identity(5)),
     "restriction map is not a bijection"),
    ("check_minimal_rank", "induced_lattice_action",
     lambda real: lambda sigma: real(perms.Perm.identity(5)),
     "rank"),
    ("check_minimal_rank", "induced_lattice_action",
     lambda real: lambda sigma: SimpleNamespace(apply=lambda cls: -cls),
     "outside the conic classes"),
]


@pytest.mark.parametrize("check, name, fault, prefix", _PLANTED_FAULTS,
                         ids=[f"{name}-{prefix.split()[0]}" for _, name, _, prefix in _PLANTED_FAULTS])
def test_a_planted_fault_fails_the_check(monkeypatch, check, name, fault, prefix):
    monkeypatch.setattr(selfcheck, name, fault(getattr(selfcheck, name)))
    ok, detail = getattr(selfcheck, check)()
    assert ok is False
    assert detail.startswith(prefix), detail
