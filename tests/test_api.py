"""The public names of the package and of its modules.

Every name a module exports must resolve, and every name ``linalg``
exports must be used by another module of the package, so helpers
that only the tests call do not accumulate there.  Gates are applied
through one kernel, ``linalg.apply_layer``: no module may contract
tensors with ``tensordot`` or ``moveaxis`` beside it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shallowcheck

PACKAGE = Path(shallowcheck.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def test_package_names_resolve():
    for name in shallowcheck.__all__:
        assert hasattr(shallowcheck, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve(module):
    mod = importlib.import_module(f"shallowcheck.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.{name}"


def _imported_from_linalg(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
        for alias in node.names
    }


def _names(path: Path) -> set[str]:
    """Every identifier, attribute and imported name in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@pytest.mark.parametrize("banned", ["tensordot", "moveaxis"])
def test_gates_are_applied_by_one_kernel(banned):
    users = [p.name for p in sorted(PACKAGE.glob("*.py")) if banned in _names(p)]
    assert users == []


def test_every_linalg_export_is_used_by_another_module():
    from shallowcheck import linalg

    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", "linalg.py"):
            used |= _imported_from_linalg(path)
    assert sorted(set(linalg.__all__) - used) == []
