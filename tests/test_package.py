"""The public surface: every exported name resolves."""

import importlib
import pkgutil

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
