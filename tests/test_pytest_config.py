"""The suite's pytest settings must let a failing property test report its
falsifying example.

``filterwarnings = ["error"]`` turns every warning into an error, including
the DeprecationWarning that hypothesis's pytest plugin sets off (through
``mypy_extensions.TypedDict``) while it reports a failure; the error then
ends the run in INTERNALERROR and the example is lost.  The narrow ignore in
``pyproject.toml`` keeps the report.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
