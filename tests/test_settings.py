"""The repository's pytest settings, run on a small test file of their own."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "pyproject.toml")

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    """Under ``filterwarnings = ["error"]`` a failing ``hypothesis`` test
    reports its falsifying example and the next test runs: the warning that
    the plugin's patch writer raises on import (``mypy_extensions.TypedDict
    is deprecated``) must not turn into an INTERNALERROR (exit 3)."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
