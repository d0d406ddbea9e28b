"""Every public export list names something that exists.

A deleted function left in an ``__all__`` list breaks ``from fgle.<module>
import *`` only for the caller who tries it; here it fails in under a second.
"""

import importlib
import pkgutil

import pytest

import fgle

MODULES = ["fgle"] + [f"fgle.{m.name}" for m in pkgutil.iter_modules(fgle.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
