import importlib
import pkgutil

import pytest

import sgve

# the package and every submodule that declares an export list
EXPORTING = [name for name in
             ["sgve"] + [f"sgve.{m.name}" for m in pkgutil.iter_modules(sgve.__path__)]
             if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    # a stale entry makes `from <module> import *` raise AttributeError
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
