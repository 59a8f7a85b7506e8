import importlib
import pkgutil

import pytest

import quatgan

MODULES = ["quatgan"] + [f"quatgan.{m.name}" for m in pkgutil.iter_modules(quatgan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert stale == []
