"""The test run's own settings: a failing property is reported as one
failure, and the run goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 5


def test_next_test_runs():
    pass
'''


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    """Under this project's pytest settings (warnings are errors), one
    failing ``@given`` test then a passing one give "1 failed, 1 passed"
    with the falsifying example printed, not an internal error."""
    path = tmp_path / "test_two.py"
    path.write_text(_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
