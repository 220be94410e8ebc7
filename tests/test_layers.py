"""Every ucran module imports only modules earlier in the pipeline.

The pipeline runs topology, conflict graph, coloring, stage 1, channel,
stage 2, then the harness and the command line on top.  A module that
imports a later one (say, the topology reaching into a stage-1 helper)
ties the lower layer to an upper one; this test names each such import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ucran"
TESTS = Path(__file__).resolve().parent
DEMOS = PACKAGE.parents[1] / "demos"
ORDER = ("topology", "conflict_graph", "coloring", "stage1", "channel", "stage2",
         "harness", "cli")
EXEMPT = {"__init__", "__main__"}


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, ucran module) for every import of a ucran module in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import y` names module x; `from . import x` names x
            names = ([f"ucran.{node.module}"] if node.module
                     else [f"ucran.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        # the bare package runs __init__, which imports every module
        found += [(node.lineno, name.split(".")[1] if "." in name else "__init__")
                  for name in names if name == "ucran" or name.startswith("ucran.")]
    return found


def test_every_module_has_a_place_in_the_pipeline_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(ORDER)


def test_imports_point_only_down_the_pipeline():
    problems = [f"{stem}.py:{line}: imports {target}, which comes at or after it"
                for stem in ORDER
                for line, target in _imported_modules(PACKAGE / f"{stem}.py")
                if target not in ORDER[:ORDER.index(stem)]]
    assert problems == []


def test_no_module_imports_a_private_name_of_another():
    # a `_` name is its module's own; a shared helper gets a public name
    problems = [f"{path.name}:{node.lineno}: imports {alias.name} from {node.module}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "ucran")
                for alias in node.names if alias.name.startswith("_")]
    assert problems == []


def test_topology_imports_no_ucran_module():
    assert _imported_modules(PACKAGE / "topology.py") == []


def test_one_read_only_rule_and_one_memo():
    # topology.read_only alone freezes arrays and topology.Memo alone keeps
    # values: a second idiom for either would drift from the first.  Only
    # the network's memo and the harness's one per seed exist, so no other
    # module reads the name Memo, to subclass one or to make one
    allowed = {"flags.writeable": {"topology"}, "cached_property": set()}
    problems = [f"{path.name}:{lineno}: {idiom}"
                for path in sorted(PACKAGE.glob("*.py"))
                for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                for idiom, modules in allowed.items()
                if idiom in line and path.stem not in modules]
    problems += [f"{path.name}:{node.lineno}: Memo"
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.stem not in ("topology", "harness")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if "Memo" in _names(node)]
    assert problems == []


def _names(node: ast.AST) -> list[str]:
    """The names a node reads: an attribute, a bare name, or what it imports."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [part for alias in node.names for part in alias.name.split(".")]
    return []


def test_only_topology_draws_outside_the_keyed_stream():
    # no module but topology.py builds a numpy Generator or draws a normal:
    # fading, pilot noise and the baseline picks all come from the keyed
    # words of topology.uniforms, so no value can depend on draw order
    forbidden = {"random", "default_rng", "Generator", "standard_normal", "stream_rng"}
    used = [f"{path.name}:{node.lineno}: {name}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "topology.py"
            for node in ast.walk(ast.parse(path.read_text()))
            for name in _names(node) if name in forbidden]
    assert used == []


def test_no_line_of_the_package_its_tests_or_its_demos_is_over_100_characters():
    # no linter is a dependency, so the one line-length rule is checked here
    long = [f"{path.relative_to(PACKAGE.parents[1])}:{lineno}: {len(line)}"
            for folder in (PACKAGE, TESTS, DEMOS) for path in sorted(folder.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > 100]
    assert long == []


def _public_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each top-level def and class of a module, and each
    method or property of its classes, whose name has no leading ``_``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [node] + [member for member in node.body if isinstance(member, functions)]
        elif isinstance(node, functions):
            found.append(node)
    return [(node.lineno, node.name) for node in found if not node.name.startswith("_")]


def test_every_public_name_is_read_in_the_package_or_wrapped_by_the_benchmark():
    # a public name that no module reads and no benchmark span wraps is
    # code the pipeline never calls
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(getattr(node, "ctx", None), ast.Load) for name in _names(node)}
    spans = ast.parse((PACKAGE.parents[1] / "perfbench" / "spans.py").read_text())
    targets = {node.value for statement in spans.body if isinstance(statement, ast.Assign)
               and any(getattr(t, "id", None) == "TARGETS" for t in statement.targets)
               for node in ast.walk(statement.value)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert targets, "perfbench/spans.py names no TARGETS"
    unread = [f"{module}:{line}: {name}" for module, tree in trees.items()
              for line, name in _public_definitions(tree) if name not in read | targets]
    assert unread == []
