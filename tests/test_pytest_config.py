"""The repo's pytest settings keep a failing property's report intact.

``filterwarnings`` turns every warning into an error, including one the
hypothesis plugin triggers while it reports a failure; unfiltered, pytest
prints an ``INTERNALERROR`` in place of the falsifying example.  This
runs a deliberately failing property under the repo's own pytest
configuration, in a subprocess, and reads the report.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_deliberately_fails(x):
    assert x < 0
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = proc.stdout + proc.stderr
    assert "Falsifying example: test_deliberately_fails(" in report, report
    assert "INTERNALERROR" not in report, report
    assert "1 failed" in report, report
