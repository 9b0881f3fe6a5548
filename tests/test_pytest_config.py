"""The repo's pytest settings and fixtures report what they guard.

``filterwarnings`` turns every warning into an error, including one the
hypothesis plugin triggers while it reports a failure; unfiltered, pytest
prints an ``INTERNALERROR`` in place of the falsifying example.  The
autouse fork probe of ``tests/conftest.py`` fails a test that forks
while another thread runs.  Each check runs deliberately failing tests
under the repo's own pytest configuration, in a subprocess, and reads
the report.
"""

import os
import shutil
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


FORKS = """
import os
import threading
import warnings


def fork_and_reap():
    with warnings.catch_warnings():
        # CPython 3.12 warns on this fork too; the probe must fail it alone.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)


def test_forks_beside_a_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        fork_and_reap()
    finally:
        release.set()
        thread.join()


def test_forks_alone():
    fork_and_reap()
"""


def run_pytest(tmp_path, test_file):
    """The report of one pytest run over ``test_file`` in ``tmp_path``."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            test_file,
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.stdout + proc.stderr


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    report = run_pytest(tmp_path, "test_failing_property.py")
    assert "Falsifying example: test_deliberately_fails(" in report, report
    assert "INTERNALERROR" not in report, report
    assert "1 failed" in report, report


def test_fork_beside_a_thread_fails(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_forks.py").write_text(FORKS)
    report = run_pytest(tmp_path, "test_forks.py")
    assert "forked while the process ran [2] OS threads" in report, report
    # The probe fails the threaded fork's teardown, which pytest reports
    # as an error beside the two passed test bodies.
    assert "ERROR test_forks.py::test_forks_beside_a_thread" in report, report
    assert "2 passed, 1 error" in report, report
