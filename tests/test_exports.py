"""The package's export list matches what the package exposes, so a name
removed from a module cannot linger in ``__all__`` and a name added to the
package namespace cannot go unlisted; and the physics modules stay free of
process and file plumbing."""

import ast
import inspect
from pathlib import Path

import pytest

import qmeter


def test_every_exported_name_resolves_once():
    assert len(qmeter.__all__) == len(set(qmeter.__all__))
    missing = [name for name in qmeter.__all__ if not hasattr(qmeter, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(qmeter).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - {"__version__"} - set(qmeter.__all__) == set()


PHYSICS = ("qubit_algebra", "measurement", "propagator", "cycle", "sweep", "verification")
PLUMBING = {"os", "tempfile", "threading", "warnings", "shutil", "stat"}


@pytest.mark.parametrize("module", PHYSICS)
def test_the_physics_modules_import_no_os_plumbing(module):
    """Processes, files and warning filters live in ``blocks`` and ``csvfmt``."""
    tree = ast.parse((Path(qmeter.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported & PLUMBING == set()
