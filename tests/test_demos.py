"""Smoke tests: every demo runs to exit 0, and every module's ``__all__`` imports."""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))
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
