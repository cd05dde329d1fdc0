"""The narrative scripts in demos/ run cleanly against the current package and
print the text pinned in tests/demo_output/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(delpezzo.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_prints_its_pinned_text(script):
    # the demos are deterministic, so their stdout is byte-identical across changes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120,
    )
    expected = Path(__file__).resolve().parent / "demo_output" / f"{script.stem}.txt"
    assert proc.stdout == expected.read_text(encoding="utf-8")
