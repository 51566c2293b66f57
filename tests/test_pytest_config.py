"""The suite's pytest settings must let a failing property test report itself."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 100))
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_property_test_reports_its_example_and_the_rest_run(tmp_path):
    # on failure hypothesis imports libcst, which warns DeprecationWarning; the
    # suite's "error::DeprecationWarning" must not turn that into INTERNALERROR
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
