"""Every function the benchmark wraps must exist under the name it wraps.

perfbench/spans.py replaces module globals by name; a name that no longer
resolves would make a benchmark run report ``correct: false``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
MARKER = "perfbench/spans.py wraps this name"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrap_target_resolves():
    spans = _spans()
    targets = spans.TARGETS + spans.STOPWATCH_TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_tracer_only_import_is_a_wrap_target_and_otherwise_unused():
    # an import kept only for the tracer must name a target the tracer
    # still wraps, and nothing else in its module may use it: once the
    # benchmark stops wrapping it, this fails until the import is deleted
    targets = {(module, attr) for module, attr, _ in _spans().TARGETS}
    problems = []
    for path in sorted((ROOT / "src" / "ucran").glob("*.py")):
        lines = path.read_text().splitlines()
        module = "ucran" if path.stem == "__init__" else f"ucran.{path.stem}"
        problems += [f"{path.name}:{no}: noqa without the marker"
                     for no, line in enumerate(lines, 1)
                     if "noqa: F401" in line and MARKER not in line]
        tree = ast.parse("\n".join(lines))
        marked = [alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if MARKER in lines[alias.lineno - 1]]
        if len(marked) != sum(MARKER in line for line in lines):
            problems.append(f"{path.name}: a marker sits off an imported name")
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        problems += [f"{module}.{name}: not wrapped by perfbench/spans.py"
                     for name in marked if (module, name) not in targets]
        problems += [f"{module}.{name}: used in its module" for name in marked if name in used]
    assert problems == []
