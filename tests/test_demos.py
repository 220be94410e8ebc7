"""Every walkthrough script in demos/ runs to completion without a
warning.  The README quick start runs in-process in test_readme.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucran

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(script):
    # import the package the suite itself imports
    src = str(Path(ucran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
