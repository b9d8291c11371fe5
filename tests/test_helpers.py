"""The test helpers' own behaviour where a failing test depends on it."""

import os
import subprocess
import sys
from pathlib import Path

import minmaxperm

TESTS = Path(__file__).resolve().parent

# A loop whose body ends in an `if`: on Python 3.11 its backward jump has
# no line number, so an alarm there gives a traceback entry without one.
EXPIRING_TEST = """
from helpers import deadline


def test_exceeds_deadline():
    with deadline(0.1):
        while True:
            for x in range(1000):
                if x >= 0:
                    y = x
"""


def test_deadline_failure_is_reported(tmp_path):
    (tmp_path / "test_expiring.py").write_text(EXPIRING_TEST)
    src = str(Path(minmaxperm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(TESTS), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_expiring.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout and "TimeoutError" in proc.stdout
    assert proc.returncode == 1
