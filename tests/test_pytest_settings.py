"""The repository's pytest settings let a failing property test report itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    # hypothesis imports libcst to report a failure, and that import warns; with
    # only filterwarnings = ["error"] the whole run stopped in INTERNALERROR (exit 3)
    module = tmp_path / "test_property.py"
    module.write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(module)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
