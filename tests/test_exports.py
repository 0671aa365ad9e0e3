"""Every module's export list names objects that exist."""

import importlib
import pkgutil

import pytest

import qev

MODULES = ["qev"] + [f"qev.{info.name}" for info in pkgutil.iter_modules(qev.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
