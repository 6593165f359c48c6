"""Every script under ``tools/`` starts: ``--help`` exits 0.

The scripts import the library, and ``tools/ref_archives.py`` also
``perfbench/workloads.py``, before they parse their arguments. A name
they import that a change renames or deletes fails here, not only at the
next run of the script.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_there_are_scripts():
    assert TOOLS


@pytest.mark.parametrize("script", TOOLS, ids=lambda path: path.name)
def test_help_exits_0(script):
    out = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout
