"""Every walkthrough script in demos/, and the README quick start, runs to
completion without a warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucran

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_quick_start() -> str:
    """The README's ``python`` code block."""
    return (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]


# each entry is the interpreter's arguments: a demo file, or inline code
SCRIPTS = [[str(d)] for d in DEMOS] + [["-c", _readme_quick_start()]]


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[d.stem for d in DEMOS] + ["readme_quick_start"])
def test_demo_runs_cleanly(script):
    # import the package the suite itself imports
    src = str(Path(ucran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *script], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
