"""The README's code and the docs script run as written."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_goldens_script_runs():
    # criteria 02 and 03; 04 enumerates 9! orders and takes seconds
    proc = subprocess.run([sys.executable, str(ROOT / "docs" / "goldens.py"), "02", "03"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "  21 < 27 and 27 < 21: a cycle, so no permutation has this profile")
