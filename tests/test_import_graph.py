"""The package's import graph: every sibling import sits at module level, and the
oracles import none of the markets they check nor the modules built on them."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "privmarket"
MODULES = sorted(PACKAGE.glob("*.py"))
# the standard-library imports a function defers, to keep them off every CLI start-up
DEFERRED = {("demand", "_check_count", "decimal"),
            ("oracles", "_map_parts", "concurrent.futures")}
CHECKED = {f"privmarket.{name}" for name in ("bundle", "separate", "scenario", "cli")}
# modules a CLI start-up would pay for on every command; none of them is needed to start
UNLOADED = ("numpy.random", "concurrent.futures", "decimal")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(node):
    """The absolute names of the modules an import statement imports."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.level:
        return [node.module]
    if node.module:  # from .x import y
        return [f"privmarket.{node.module}"]
    return [f"privmarket.{alias.name}" for alias in node.names]  # from . import x


def _function_imports(tree):
    """(function name, module) of every import inside a function body, nested ones too."""
    return {(func.name, name)
            for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _imported(node)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_a_sibling(path):
    siblings = {(func, name) for func, name in _function_imports(_tree(path))
                if name.split(".")[0] == "privmarket"}
    assert siblings == set()


def test_functions_defer_only_the_two_standard_library_imports():
    found = {(path.stem, func, name) for path in MODULES
             for func, name in _function_imports(_tree(path))}
    assert found == DEFERRED


def test_oracles_import_no_market_they_check():
    tree = _tree(PACKAGE / "oracles.py")
    imported = {name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _imported(node)}
    assert imported & CHECKED == set()
    assert {name for name in imported if name.startswith("privmarket")} == {
        "privmarket.demand", "privmarket.errors", "privmarket.quality"}


def test_the_check_sees_relative_and_deferred_imports():
    tree = ast.parse("from . import bundle\n"
                     "def f():\n    from .separate import x\n"
                     "    def g():\n        import privmarket.cli\n")
    assert {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for name in _imported(node)} == {"privmarket.bundle", "privmarket.separate"}
    assert _function_imports(tree) == {("f", "privmarket.separate"), ("f", "privmarket.cli"),
                                       ("g", "privmarket.cli")}


def test_cli_import_loads_no_deferred_module():
    # a fresh interpreter, so no other test has imported them already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    code = f"import sys, privmarket.cli; print([m for m in {UNLOADED!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
