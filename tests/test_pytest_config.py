"""The repository's pytest configuration keeps Hypothesis's failure report.

Every warning is an error under ``filterwarnings``; one that Hypothesis's
pytest plugin raises while it reports a failure would otherwise turn the
report into an ``INTERNALERROR`` without the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
