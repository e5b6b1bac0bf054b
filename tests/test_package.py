"""The public surface: every exported name resolves, exports load lazily,
`python -m spinbell` runs the command line interface, and every import at
module level is used."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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
        f"spinbell.{home}.{name}"
        for name, home in spinbell._HOME.items()
        if name not in getattr(importlib.import_module(f"spinbell.{home}"), "__all__", [name])
    ]
    assert unlisted == []


def _module_imports(tree: ast.Module):
    """(name, line) of each name bound by an import outside any function or
    class body, __future__ imports aside."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)
        else:
            pending.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(Path(spinbell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # a name is used when the module reads it or lists it in __all__
        names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
        used = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        unused += [
            f"{path.name}:{line} {name}" for name, line in _module_imports(tree) if name not in used
        ]
    assert unused == []


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports spinbell from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(spinbell.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def _loaded_after(statement: str) -> set[str]:
    done = _python(
        "-c",
        f"import sys\n{statement}\n"
        "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('spinbell')))"
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import spinbell") == {"spinbell"}


def test_cli_import_loads_no_analysis_module():
    analysis = {f"spinbell.{m}" for m in ("model", "bell", "independence", "freewill", "sampling", "search", "series")}
    loaded = _loaded_after("import spinbell.cli")
    assert "spinbell.cli" in loaded
    assert loaded.isdisjoint(analysis | {"numpy"})


def test_version_and_case_list_run_without_numpy():
    probe = (
        "import sys\n"
        "from spinbell.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print('numpy' in sys.modules, code)\n"
    )
    for argv in (["--version"], ["reproduce", "--list"]):
        done = _python("-c", probe, *argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False 0", argv


def test_submodule_resolves_after_bare_import():
    done = _python("-c", "import spinbell\nprint(spinbell.presets.grid_positions(2))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "('t0', 't1', 'u0', 'u1')\n", "")


def test_star_import_binds_every_export():
    done = _python(
        "-c",
        "from spinbell import *\n"
        "import spinbell\n"
        "print(sorted(n for n in spinbell.__all__ if n not in globals()))"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_dir_lists_every_export():
    # in a fresh interpreter, where no export has been loaded yet
    done = _python(
        "-c",
        "import spinbell\n"
        "print(sorted({*spinbell.__all__, 'presets', 'cli'} - set(dir(spinbell))))",
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'spinbell' has no attribute 'no_such_name'$"):
        spinbell.no_such_name


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "spinbell", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"spinbell {spinbell.__version__}\n", "")
