"""The suite's own pytest configuration, driven the way tier-1 runs it."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=5, max_value=5))
def test_five_is_below_five(x):
    assert x < 5
'''


def test_a_failing_given_test_reports_its_example(tmp_path):
    # Under ``filterwarnings = ["error"]`` a warning inside hypothesis's
    # report hook used to end the session in an INTERNALERROR instead.
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_five_is_below_five(" in done.stdout
    assert "FAILED test_failing.py::test_five_is_below_five" in done.stdout
