"""The README's code and layout stay true to the package.

The Quick start block is run as written, so a changed signature of the
functions it calls fails here; the Layout block must name every module
of ``src/ucran`` exactly once, so a renamed, added or removed module does
too.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    """Text of the README's ``## title`` section, up to the next heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _fenced(section: str, language: str = "") -> str:
    """The first fenced block of ``language`` in a section."""
    match = re.search(rf"^```{language}\n(.*?)^```", section, re.M | re.S)
    assert match, f"no ```{language} block in the section"
    return match.group(1)


def test_quick_start_runs_as_written(capsys):
    exec(compile(_fenced(_section("Quick start"), "python"), "README.md", "exec"), {})
    assert re.fullmatch(r"\d+ pilot holders, \d+ served\n", capsys.readouterr().out)


def test_layout_names_each_module_once():
    modules = {path.stem for path in (ROOT / "src" / "ucran").glob("*.py")}
    named = re.findall(r"^  (\w+)\.py\s", _fenced(_section("Layout")), re.M)
    assert Counter(named) == Counter(modules - {"__init__", "__main__"})
