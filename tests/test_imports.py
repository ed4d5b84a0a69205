"""What the cxho modules import.

Every name a cxho module imports is used in that module: a stdlib-``ast``
stand-in for a linter's unused-import rule, so that a deletion cannot leave
an import behind.  No cxho module imports an underscore name from another:
what two modules share is public in one of them.  No module but
``_kernels`` names ``poly_gauss_eval``: the level wavefunctions have one
evaluation, the scaled Hermite function, and the monomial kernel stays only
for the benchmark harness, which times it.  No module names
``numpy.random``: the seeded draws are SplitMix64 in numpy's integer
arithmetic (``maximize.uniform_draws``).

No module under ``src`` or ``tests`` imports click: argparse parses the
flags.

A fresh process loads only the modules its command uses: ``import cxho``
loads no submodule and not numpy, and ``import cxho.cli`` loads ``errors``
alone, none of the command modules, not numpy and not click.  Each command
loads its own ``cmd_*`` module, ``command`` and ``params``, and no other
command's module, nor click; ``phase-diagram`` loads no numeric module,
nor numpy.  Only
``evolve`` and ``wavefunction`` load the CSV cell writer ``_csvcells``, no
command loads ``numpy.random``, and a ``verify`` whose Gram step fails
loads neither ``dynamics`` nor ``maximize``.  No cxho module imports
``dataclasses`` and no command loads it: the records are named tuples or
classes with ``__slots__``, which generate no code at import.
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
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


#: The module of each command.
COMMAND_MODULES = {"phase-diagram": "cxho.cmd_phase_diagram",
                   "verify": "cxho.cmd_verify",
                   "maximize": "cxho.cmd_maximize",
                   "evolve": "cxho.cmd_evolve",
                   "wavefunction": "cxho.cmd_wavefunction"}


def test_modules_found():
    assert {p.stem for p in MODULES} >= {
        "cli", "command", "contour", "dynamics", "fock", "maximize", "params",
        "wavefunctions", *(name.split(".")[1] for name in COMMAND_MODULES.values())}


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_click(path):
    assert "click" not in imported_modules(path.read_text())


@pytest.mark.parametrize("source", [
    "import click\n",
    "from click.testing import CliRunner\n",
    "def f():\n    import click.core as core\n",
])
def test_detects_a_click_import(source):
    assert "click" in imported_modules(source)


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


def names_numpy_random(source: str) -> bool:
    """Whether ``source`` imports ``numpy.random`` or reads the attribute
    ``random`` of a name bound to numpy."""
    numpy_names = {"numpy"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[:2] == ["numpy", "random"]:
                    return True
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            if module[:2] == ["numpy", "random"] or (
                    module == ["numpy"]
                    and any(alias.name == "random" for alias in node.names)):
                return True
    return any(isinstance(node, ast.Attribute) and node.attr == "random"
               and isinstance(node.value, ast.Name)
               and node.value.id in numpy_names
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_numpy_random(path):
    assert not names_numpy_random(path.read_text())


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nx = np.random.default_rng(0)\n", True),
    ("import numpy\nnumpy.random.seed(1)\n", True),
    ("import numpy.random\n", True),
    ("from numpy.random import default_rng\n", True),
    ("from numpy import random as r\n", True),
    ("import numpy as np\nimport random\nrandom.random()\n", False),
    ("import numpy as np\nx = np.uint64(1)\n", False),
])
def test_detects_a_numpy_random_reference(source, found):
    assert names_numpy_random(source) is found


#: What ``import cxho.cli`` loads of the package.
CLI_MODULES = {"cxho", "cxho.cli", "cxho.errors"}


def imported(*args: str, code: int = 0) -> set[str]:
    """Modules that ``python -X importtime *args`` imports in a new process,
    with this tree on its path; the process must exit with ``code``."""
    src = str(Path(cxho.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == code, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def cxho_imports(*args: str) -> set[str]:
    """cxho modules that ``imported(*args)`` finds."""
    return {name for name in imported(*args) if name.split(".")[0] == "cxho"}


def cxho_and_numpy(names: set[str]) -> set[str]:
    """The cxho and numpy modules among ``names``."""
    return {name for name in names if name.split(".")[0] in ("cxho", "numpy")}


def test_package_import_loads_no_submodule_nor_numpy():
    assert cxho_and_numpy(imported("-c", "import cxho; cxho.BACKEND")) \
        == {"cxho"}


def test_cli_import_loads_no_numeric_module():
    loaded = imported("-c", "import cxho.cli")
    assert cxho_and_numpy(loaded) == CLI_MODULES
    assert not {name for name in loaded if name.split(".")[0] == "click"}
    assert cxho_and_numpy(imported("-c", "from cxho import params")) == {
        "cxho", "cxho.errors", "cxho.params"}


def test_phase_diagram_loads_no_numeric_module():
    loaded = imported("-m", "cxho.cli", "phase-diagram", "--grid", "2")
    # cxho.cli runs as __main__, and no command module imports it by name
    assert cxho_and_numpy(loaded) == {
        "cxho", "cxho.errors", "cxho.params", "cxho.command",
        "cxho.cmd_phase_diagram"}


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
    shared = imported("-c", "import cxho.cli, cxho.command, cxho.params, numpy")
    # argparse's gettext loads locale when the command's parser is built
    assert loaded - shared == {"cxho.cmd_evolve", "cxho.dynamics", "cxho.fock",
                               "cxho._csvcells", "runpy", "locale", "_locale"}


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
def test_command_loads_no_click(command):
    assert not {name for name in command_imports(command)
                if name.split(".")[0] == "click"}


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_csv_commands_load_the_csv_writer(command):
    assert ("cxho._csvcells" in command_imports(command)) == (
        command in ("evolve", "wavefunction"))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_its_own_module_alone(command):
    loaded = {name for name in command_imports(command)
              if name.startswith("cxho.cmd_")}
    assert loaded == {COMMAND_MODULES[command]}


@pytest.mark.parametrize("command", ["verify", "maximize"])
def test_seeded_commands_load_no_numpy_random(command):
    assert {name for name in command_imports(command)
            if name.split(".")[:2] == ["numpy", "random"]} == set()


def test_gram_failure_loads_no_dynamics_nor_maximize():
    # the Hermite polynomials overflow at nmax 128: exit 2 at the Gram step
    loaded = imported("-m", "cxho.cli", "verify", "--nmax", "128", code=2)
    assert "cxho.wavefunctions" in loaded
    assert not {"cxho.dynamics", "cxho.maximize"} & loaded
