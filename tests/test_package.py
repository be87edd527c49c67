import ast
import importlib
from pathlib import Path

import pytest

import fracvisco

# test-only dependencies: mpmath is a test extra, and the quadrature
# references that need scipy.integrate live in tests/oracles.py
TEST_ONLY = ("mpmath", "scipy.integrate")
MODULES = sorted(Path(fracvisco.__file__).parent.glob("*.py"))
# imported but unused on purpose: perfbench wraps it under this module's name
UNUSED_ON_PURPOSE = {("weights", "beta_primitive")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_only_imports(path):
    names = set(imported_names(ast.parse(path.read_text(encoding="utf-8"))))
    bad = sorted(n for n in names for dep in TEST_ONLY
                 if n == dep or n.startswith(dep + "."))
    assert not bad, f"{path.name} imports {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    name = "fracvisco" if path.stem == "__init__" else f"fracvisco.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{path.name} exports missing names {missing}"


def bound_imports(tree):
    """The names a module's imports bind, ``__future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(name for name in bound_imports(tree)
                    if name not in used
                    and (path.stem, name) not in UNUSED_ON_PURPOSE)
    assert not unused, f"{path.name} imports {unused} and never uses them"
