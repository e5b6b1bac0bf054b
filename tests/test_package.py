"""The public surface: every exported name resolves, and `python -m spinbell`
runs the command line interface."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import spinbell


def test_every_export_resolves():
    modules = [spinbell] + [
        importlib.import_module(f"spinbell.{info.name}") for info in pkgutil.iter_modules(spinbell.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []

    # a name the package re-exports is public in the submodule it comes from
    unlisted = [
        f"spinbell.{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(inspect.getsource(spinbell)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if (alias.asname or alias.name) in spinbell.__all__
        and alias.name not in getattr(importlib.import_module(f"spinbell.{node.module}"), "__all__", [alias.name])
    ]
    assert unlisted == []


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(spinbell.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "spinbell", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"spinbell {spinbell.__version__}\n", "")
