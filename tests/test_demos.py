"""Smoke tests: every demo runs to exit 0, every module's ``__all__`` imports, and the package
has no unused import and no unreferenced private module-level name."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))
SRC = os.path.join(ROOT, "src", "imbq")
MODULES = ["imbq", "imbq.cli", "imbq.grid", "imbq.inflation", "imbq.reports", "imbq.solver", "imbq.svgplot", "imbq.symbols"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    # in tmp_path: demo 04 writes its SVG into the working directory
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_star_import_of_every_export(module):
    # a stale __all__ entry makes `from module import *` raise
    names = getattr(importlib.import_module(module), "__all__", None)
    exec(f"from {module} import *", {})
    if names is not None:
        assert len(set(names)) == len(names)


def _package_trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _loaded(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _references(tree) -> set:
    """Names a module reads: loaded names, attribute names (``solver._march``) and imported names."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_unused_import_in_the_package():
    # __init__ imports only to re-export
    unused = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_module_level_name_is_referenced():
    trees = _package_trees()
    referenced = set().union(*map(_references, trees.values()))
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = (d for d in defined if d.startswith("_") and not d.startswith("__"))
            unreferenced += [f"{name}: {d}" for d in private if d not in referenced]
    assert not unreferenced
