import ast
import importlib
import os
import subprocess
import sys
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


# A fresh interpreter runs every subcommand on a 2x2, N = 8 config and
# prints the heavy scipy modules it loaded: the package takes its FFTs from
# numpy and its log-gamma from math, so none of them may appear.
NOT_LOADED = ("scipy.fft", "scipy.special")
CLI_RUN = """
import sys
from pathlib import Path
from fracvisco import cli
cfg = Path(sys.argv[1])
cfg.write_text("[mesh]\\nnx = 2\\nny = 2\\n[time]\\nsteps = 8\\n"
               "[loads]\\ng_right = (0.0, -1.0)\\n")
for argv in (["simulate", cfg], ["energy-check", cfg], ["weights-dump", cfg],
             ["converge-time", cfg, "--k-list", "0.5,0.25", "--t-final", "1"],
             ["ml-eval", "--alpha", "0.5", "--b", "1", "--x", "2"]):
    assert cli.main([str(a) for a in argv]) == 0, argv
print("loaded:", *(m for m in sys.argv[2:] if m in sys.modules))
"""


def test_cli_loads_no_scipy_fft_or_special(tmp_path):
    src = str(Path(fracvisco.__file__).resolve().parent.parent)
    env = dict(os.environ, FRACVISCO_OUTPUT_DIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", CLI_RUN,
         str(tmp_path / "run.cfg"), *NOT_LOADED],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "loaded:", out.stdout
