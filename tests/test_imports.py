"""Every name a module of the package imports is used in that module,
every private helper it defines is read somewhere in the package, and
the package imports nothing but itself and the standard library.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
Each module under ``src/triring`` but ``__init__.py`` (which imports to
re-export) is parsed with ``ast``, and every name bound by an ``import``
must occur as a name somewhere in the module.  Every module-level name
and every method whose name starts with a single ``_`` must be read (as
a name, an attribute or an import) in some module of the package.
``pyproject.toml`` declares no dependencies while the tests install
several, so every import of every module, ``__init__.py`` included,
must be relative or name a module of ``sys.stdlib_module_names``.
"""

import ast
import sys
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


def non_stdlib_imports(source):
    """``(line, module)`` of the absolute imports of ``source`` outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.partition(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_a_third_party_import_is_caught():
    source = (
        "import mpmath\n"
        "from . import ring\n"
        "from .series import PuiseuxSeries\n"
        "from fractions import Fraction\n"
        "import os.path, sympy.core\n"
        "from numpy.linalg import det\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert non_stdlib_imports(source) == [
        (1, "mpmath"), (5, "sympy.core"), (6, "numpy.linalg"), (9, "hypothesis"),
    ]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources):
    """``(module, line, name)`` of the single-``_`` module-level names and
    methods defined in ``sources`` (module name -> text) that no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, n.lineno, n.name)
                            for n in node.body if isinstance(n, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if _is_private(d[2]) and d[2] not in read)


def test_no_private_helper_is_left_unread():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "cli.py" in sources  # the glob found the package
    assert unread_private_names(sources) == []


def test_an_unread_private_helper_is_caught():
    helpers = (
        "def _read():\n    pass\n"
        "def _unread():\n    pass\n"
        "class C:\n"
        "    def _unread_method(self):\n        pass\n"
        "    def _read_method(self):\n        pass\n"
        "    def __init__(self):\n        self._read_method()\n        self._unread_attr = 1\n"
        "_UNREAD = 1\n"
        "__dunder__ = 1\n"
    )
    caller = "from helpers import _read\n_read()\n"
    assert unread_private_names({"helpers.py": helpers, "caller.py": caller}) == [
        ("helpers.py", 3, "_unread"), ("helpers.py", 6, "_unread_method"),
        ("helpers.py", 13, "_UNREAD"),
    ]
