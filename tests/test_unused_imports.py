"""Every name a library module or test file imports is used in that file, no
module imports another module's private name, every module-level private
function or class is referenced by some module, and no library module
holds an ``assert`` statement, which ``python -O`` strips.

A stdlib ``ast`` scan over ``src/moranspec/*.py`` and ``tests/*.py``; the
import check skips ``__init__.py`` because its imports are the package's
re-exports.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "moranspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing else in the source references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_imports(source: str) -> list:
    """(line, name) of each ``_private`` name brought in by ``from module import``."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def unreferenced_private_definitions(sources: dict) -> list:
    """(module, name) of each module-level ``_private`` function or class that no source names.

    A name counts as referenced when it is read (``_f``), looked up as an
    attribute (``mod._f``) or imported (``from .mod import _f``) anywhere.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted((module, name) for module, name in defined if name not in referenced)


def assert_lines(source: str) -> list:
    """Line of each ``assert`` statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nprint(os.sep)\n") == [(1, "math")]
    assert unused_imports("from typing import Sequence\ndef f(x: Sequence): pass\n") == []


def test_scan_flags_a_private_import():
    source = "from .masks import _orbit, mask_eval\nfrom . import exact\nfrom .a import __version__\nexact._x\n"
    assert private_imports(source) == [(1, "_orbit")]
    assert private_imports("from .masks import mask_eval as _mask_eval\n") == []


def test_scan_flags_an_assert():
    assert assert_lines("x = 1\nassert x\ndef f():\n    assert x, 'msg'\n") == [2, 4]
    assert assert_lines("def f(x):\n    if not x:\n        raise ValueError(x)\n") == []


def test_scan_flags_an_unreferenced_private_definition():
    sources = {
        "a": "def _kept(): pass\ndef _left(): pass\nclass _Gone: pass\ndef public(): return _kept()\n",
        "b": "from .c import _imported\nimport a\na._by_attribute\n",
        "c": "def _imported(): pass\n",
        "d": "def _by_attribute(): pass\ndef outer():\n    def _nested(): pass\n",
    }
    assert unreferenced_private_definitions(sources) == [("a", "_Gone"), ("a", "_left")]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts_in_the_library(path):
    assert assert_lines(path.read_text()) == []
