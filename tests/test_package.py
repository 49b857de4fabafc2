"""The package's public names."""

import importlib
import pkgutil

import netelast as ne


def test_every_all_entry_resolves():
    # a stale __all__ entry breaks `from netelast.<module> import *`
    modules = [ne] + [
        importlib.import_module(f"netelast.{info.name}") for info in pkgutil.iter_modules(ne.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
