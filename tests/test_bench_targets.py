"""Every function the benchmark wraps must exist under the name it wraps,
with every parameter its hook reads.

perfbench/spans.py replaces module globals by name and its hooks read
the wrapped calls' arguments by name; a name that no longer resolves
would make a benchmark run report ``correct: false``.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _hook_reads(spans) -> dict[str, set[str]]:
    """Span name -> the argument names its hook reads, as ``args["name"]``
    or ``args.get("name", ...)``, found in the hook's source."""
    tree = ast.parse(SPANS.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = {}
    for span, hook in spans.HOOKS.items():
        node = defs[hook.__name__]
        args = node.args.args[1].arg     # hook(tracer, args, result)
        names = set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                    and sub.value.id == args and isinstance(sub.slice, ast.Constant)):
                names.add(sub.slice.value)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                  and sub.func.attr == "get" and isinstance(sub.func.value, ast.Name)
                  and sub.func.value.id == args and isinstance(sub.args[0], ast.Constant)):
                names.add(sub.args[0].value)
        reads[span] = names
    return reads


def test_every_argument_a_hook_reads_is_a_parameter_of_each_function_it_wraps():
    # a hook reads the wrapped call's bound arguments by name, so renaming
    # one of those parameters must fail here rather than inside a bench run
    spans = _spans()
    reads = _hook_reads(spans)
    assert all(reads.values()), reads
    problems = []
    for module, attr, span in spans.TARGETS:
        parameters = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        problems += [f"{module}.{attr} ({span}): no parameter {name!r}"
                     for name in sorted(reads.get(span, ())) if name not in parameters]
    assert problems == []
