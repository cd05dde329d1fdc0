"""The narrative scripts in demos/ run cleanly against the current package."""

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
