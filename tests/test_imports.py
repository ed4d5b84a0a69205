"""Every name a cxho module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule, so that a
deletion cannot leave an import behind.  ``__init__.py`` is skipped: its
imports are the package's attributes, read from outside.
"""

import ast
from pathlib import Path

import pytest

import cxho

MODULES = sorted(p for p in Path(cxho.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in loaded]


def test_modules_found():
    assert {p.stem for p in MODULES} >= {
        "cli", "contour", "dynamics", "fock", "maximize", "params",
        "wavefunctions"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_a_leftover_import():
    source = ("import math\nfrom .contour import DEFAULT_NODES, rotated_path\n"
              "import numpy as np\n\n"
              "def f(x: np.ndarray):\n    return rotated_path(0.0, 1.0)\n")
    assert unused_imports(source) == ["math (line 1)", "DEFAULT_NODES (line 2)"]
