"""Every function the benchmark wraps must exist under the name it wraps.

perfbench/spans.py replaces module globals by name; a name that no longer
resolves would make a benchmark run report ``correct: false``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrap_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.TARGETS + spans.STOPWATCH_TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
