"""Every name a module of the package imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module
under ``src/triring`` but ``__init__.py`` (which imports to re-export) is
parsed with ``ast``, and every name bound by an ``import`` must occur as
a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "triring"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_is_left_unused(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    assert MODULES  # the glob found the package
    source = "import json\nimport math\nfrom fractions import Fraction as F\nmath.pi\n"
    assert unused_imports(source) == [(1, "json"), (3, "F")]
