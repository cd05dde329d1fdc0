"""The self-check sweeps verify exactly the text realize printed, and write no file."""

import builtins
import io
import json
from contextlib import redirect_stdout

import pytest

from delpezzo import cli, selfcheck


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


@pytest.mark.parametrize("check", [selfcheck.check_realization_sweep,
                                   selfcheck.check_degree6_pipeline])
def test_tampered_model_fails_the_sweep(realize_tampers_after_the_first, check):
    ok, detail = check()
    assert not ok
    assert "verify failed" in detail


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
