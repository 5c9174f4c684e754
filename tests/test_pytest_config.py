"""The repository's pytest configuration.

It keeps Hypothesis's failure report: every warning is an error under
``filterwarnings``, and one that Hypothesis's pytest plugin raises while it
reports a failure would otherwise turn the report into an ``INTERNALERROR``
without the falsifying example.  It also puts ``src`` on the import path, so
a bare ``pytest`` runs from a checkout without an install.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", "-q",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output


def test_a_checkout_runs_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_readme.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
