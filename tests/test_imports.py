"""What the cxho modules import.

Every name a cxho module imports is used in that module: a stdlib-``ast``
stand-in for a linter's unused-import rule, so that a deletion cannot leave
an import behind.  No cxho module imports an underscore name from another:
what two modules share is public in one of them.  No module but
``_kernels`` names ``poly_gauss_eval``: the level wavefunctions have one
evaluation, the scaled Hermite function, and the monomial kernel stays only
for the benchmark harness, which times it.

A fresh process loads only the modules its command uses: ``import cxho``
loads no submodule and not numpy, and ``import cxho.cli`` loads ``params``
and ``errors`` but none of the numeric modules.  Only ``evolve`` and
``wavefunction`` load the CSV cell writer ``_csvcells``.  No cxho module
imports ``dataclasses`` and no command loads it: the records are named
tuples or classes with ``__slots__``, which generate no code at import.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxho

MODULES = sorted(Path(cxho.__file__).parent.glob("*.py"))


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


def private_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports from a cxho module (a
    submodule imported from the package, ``from . import _kernels``, is
    not a name of another module)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level or node.module.split(".")[0] == "cxho"):
            found += [f"{alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute modules that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def names_used(source: str) -> set[str]:
    """Every identifier ``source`` refers to: names, attribute names and
    imported names, aliases included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (*node.name.split("."), node.asname)))
    return found


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = ("from .fock import FockRep, _sandwich\n"
              "from cxho.contour import _legendre_rule\n"
              "from . import _kernels\nfrom ._kernels import hermite_table\n"
              "from __future__ import annotations\nfrom os import _exit\n")
    assert private_imports(source) == ["_sandwich (line 1)",
                                       "_legendre_rule (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


@pytest.mark.parametrize("source", [
    "from dataclasses import dataclass\n",
    "import math, dataclasses as dc\n",
    "def f():\n    import dataclasses.fields\n",
])
def test_detects_a_dataclasses_import(source):
    assert "dataclasses" in imported_modules(source)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "_kernels"],
                         ids=lambda p: p.name)
def test_no_module_but_kernels_names_poly_gauss_eval(path):
    assert "poly_gauss_eval" not in names_used(path.read_text())


@pytest.mark.parametrize("source", [
    "from ._kernels import poly_gauss_eval as evaluate\n",
    "from . import _kernels\n_kernels.poly_gauss_eval(c, s, 0, q)\n",
    "import cxho._kernels\nf = getattr(cxho, 'x') or cxho._kernels.poly_gauss_eval\n",
])
def test_detects_a_poly_gauss_eval_reference(source):
    assert "poly_gauss_eval" in names_used(source)


#: What ``import cxho.cli`` loads of the package.
CLI_MODULES = {"cxho", "cxho.cli", "cxho.errors", "cxho.params"}


def imported(*args: str) -> set[str]:
    """Modules that ``python -X importtime *args`` imports in a new process,
    with this tree on its path."""
    src = str(Path(cxho.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def cxho_imports(*args: str) -> set[str]:
    """cxho modules that ``imported(*args)`` finds."""
    return {name for name in imported(*args) if name.split(".")[0] == "cxho"}


def test_package_import_loads_no_submodule_nor_numpy():
    names = imported("-c", "import cxho; cxho.BACKEND")
    assert {name for name in names if name.split(".")[0] in ("cxho", "numpy")} \
        == {"cxho"}


def test_cli_import_loads_no_numeric_module():
    assert cxho_imports("-c", "import cxho.cli") == CLI_MODULES


def test_phase_diagram_loads_no_numeric_module():
    loaded = cxho_imports("-m", "cxho.cli", "phase-diagram", "--grid", "2")
    assert loaded == CLI_MODULES - {"cxho.cli"}  # it runs as __main__


def test_submodule_import_by_name():
    assert cxho_imports("-c", "import cxho; from cxho import fock; fock.build") \
        == {"cxho", "cxho.errors", "cxho.params", "cxho.fock"}


def test_verify_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is built here, not by numpy's leggauss
    loaded = imported("-m", "cxho.cli", "verify", "--nmax", "4")
    assert {name for name in loaded
            if name.split(".")[:2] == ["numpy", "polynomial"]} == set()


def test_evolve_loads_only_its_numeric_modules():
    # its CSV writer is numpy arithmetic alone: np.unique without
    # return_inverse, say, would load numpy.ma on its first call
    loaded = imported("-m", "cxho.cli", "evolve", "--steps", "2000")
    assert loaded - imported("-c", "import cxho.cli") == {
        "cxho.dynamics", "cxho.fock", "cxho._csvcells", "runpy"}


#: A small run of each command.
COMMANDS = {"phase-diagram": ["--grid", "2"], "verify": ["--nmax", "4"],
            "maximize": ["--nmax", "4"], "evolve": ["--steps", "2"],
            "wavefunction": ["--points", "3"]}


@functools.cache
def command_imports(command: str) -> frozenset[str]:
    """``imported`` for a fresh process running the small run of ``command``."""
    return frozenset(imported("-m", "cxho.cli", command, *COMMANDS[command]))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_no_dataclasses(command):
    assert "dataclasses" not in command_imports(command)


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_csv_commands_load_the_csv_writer(command):
    assert ("cxho._csvcells" in command_imports(command)) == (
        command in ("evolve", "wavefunction"))
