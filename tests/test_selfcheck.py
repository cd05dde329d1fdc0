"""The self-check sweeps fail when a model they verify was never written."""

import pytest

from delpezzo import cli, selfcheck


@pytest.fixture
def realize_writes_once(monkeypatch):
    """Make every realize after the first write no model file."""
    original = cli._HANDLERS["realize"]
    calls = 0

    def realize(args):
        nonlocal calls
        calls += 1
        if calls > 1:
            args.output = None
        return original(args)

    monkeypatch.setitem(cli._HANDLERS, "realize", realize)


@pytest.mark.parametrize("check", [selfcheck.check_realization_sweep,
                                   selfcheck.check_degree6_pipeline])
def test_unwritten_model_fails_the_sweep(realize_writes_once, check):
    ok, detail = check()
    assert not ok
    assert "verify failed" in detail
