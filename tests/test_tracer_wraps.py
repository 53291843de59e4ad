"""Every (module, attribute) that the benchmark's tracer wraps still exists.

``benchmark/tracer.py`` replaces each name in its ``WRAPS`` table with a
timing wrapper; a name deleted or moved in the library would break only the
traced benchmark run. The table is read with ``ast``, so the benchmark
package is neither imported nor changed.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def wrapped_names() -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPS table in {TRACER}")


def test_every_traced_name_resolves():
    wraps = wrapped_names()
    assert wraps
    missing = [(module, attr) for module, attr, _ in wraps if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
