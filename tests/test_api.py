"""The public names of the package and of its modules.

Every name a module exports must resolve.  The package ships only what
it runs: every public function in ``shallowcheck.__all__`` must be
referenced by a package module other than the one that defines it (the
command-line front end ``cli.py`` included, ``__init__.py`` excluded),
or be named in code in README.md, and every name ``linalg`` exports
must be imported by another module.  Helpers that only the tests call
live in ``tests/support.py``.  Gates are applied through one kernel,
``linalg.apply_layer``: no module may contract tensors with
``tensordot`` or ``moveaxis`` beside it.  Every module-level private
name is read by code outside its own definition, and every imported
name is read or exported.  Only ``config.py`` reads the
environment.  Numeric arguments of the public entry points (thresholds,
tolerances, noise, support caps) that are not numbers of the right kind
raise ``DomainError``.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import shallowcheck
from shallowcheck import DomainError, compute_description, random_circuit, simulate

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


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _read(node: ast.AST) -> set[str]:
    """Every name read and attribute taken under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_private_name_is_used_outside_its_definition():
    # A private helper or constant that no code reads is dead; one read
    # only by its own body (a recursion) is too.
    private, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)
            private |= {name for name in own if name.startswith("_") and not name.endswith("__")}
            used |= _read(stmt) - own
    assert private and sorted(private - used) == []


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(name):
    # A name a module imports is read there or, in ``__init__.py``,
    # exported through ``__all__``.
    tree = ast.parse((PACKAGE / name).read_text())
    used = _read(tree)
    for stmt in tree.body:
        if "__all__" in _defined(stmt):
            used |= set(ast.literal_eval(stmt.value))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - used) == []


@pytest.mark.parametrize("banned", ["tensordot", "moveaxis"])
def test_gates_are_applied_by_one_kernel(banned):
    users = [p.name for p in sorted(PACKAGE.glob("*.py")) if banned in _names(p)]
    assert users == []


def test_only_config_reads_the_environment():
    readers = [
        p.name
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "config.py" and {"environ", "getenv"} & _names(p)
    ]
    assert readers == []


def test_every_linalg_export_is_used_by_another_module():
    from shallowcheck import linalg

    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", "linalg.py"):
            used |= _imported_from_linalg(path)
    assert sorted(set(linalg.__all__) - used) == []


def _readme_code() -> str:
    """The fenced blocks and inline code spans of README.md."""
    text = (PACKAGE.parents[1] / "README.md").read_text()
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))


def test_every_public_function_is_used_outside_its_module():
    readme = _readme_code()
    unused = []
    for name in shallowcheck.__all__:
        obj = getattr(shallowcheck, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1] + ".py"
        users = [
            path.name
            for path in PACKAGE.glob("*.py")
            if path.name not in ("__init__.py", home) and name in _names(path)
        ]
        if not users and not re.search(rf"\b{name}\b", readme):
            unused.append(name)
    assert unused == []


def test_only_circuit_builds_composite_circuits():
    # The checks walk views of their inputs; adjoint, concat and
    # choi_extend are for library users and have no caller in the engine.
    composers = {"adjoint", "concat", "choi_extend"}
    importers = [
        p.name
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name not in ("__init__.py", "circuit.py")
        and composers & {
            alias.name
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    ]
    assert importers == []


#: ``(entry point, keyword, malformed value)``: strings (numeric or not),
#: ``None``, complex and ``bool`` for the real bounds, non-integers for
#: the support cap.
MALFORMED = [
    ("check_weak", "threshold", "x"),
    ("check_weak", "threshold", "1e-7"),
    ("check_weak", "threshold", None),
    ("check_weak", "threshold", 1j),
    ("check_weak", "threshold", True),
    ("check_strong", "threshold", "1e-7"),
    ("verify_static", "threshold", None),
    ("verify_static", "cap", "3"),
    ("runtime_assert", "commute_tol", "1e-8"),
    ("runtime_assert", "noise", "x"),
    ("runtime_assert", "noise", None),
    ("compute_description", "cap", "3"),
    ("compute_description", "cap", 2.5),
    ("commutation_check", "cap", 2.5),
]


def _call(entry: str, **kwargs):
    """Call an entry point on a small valid input with ``kwargs``."""
    c = random_circuit(4, 2, seed=0)
    d = compute_description(c)
    args = {
        "check_weak": (c, c),
        "check_strong": (c, c),
        "verify_static": (c, d),
        "runtime_assert": (simulate(c), d),
        "compute_description": (c,),
        "commutation_check": (d,),
    }[entry]
    return getattr(shallowcheck, entry)(*args, **kwargs)


@pytest.mark.parametrize(
    ("entry", "keyword", "value"),
    MALFORMED,
    ids=[f"{entry}-{keyword}={value!r}" for entry, keyword, value in MALFORMED],
)
def test_malformed_numbers_are_domain_errors(entry, keyword, value):
    with pytest.raises(DomainError):
        _call(entry, **{keyword: value})


@pytest.mark.parametrize("bound", [0, 1e-7, np.float64(1e-7), np.float32(1e-7)])
def test_real_bounds_are_accepted(bound):
    assert _call("check_weak", threshold=bound).threshold == float(bound)
    assert _call("runtime_assert", seed=0, commute_tol=bound + 1e-8, noise=bound).passed
