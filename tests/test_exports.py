"""Every name the package and its submodules export resolves."""
import importlib
import pkgutil

import pytest

import cstarenv

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cstarenv.__path__, "cstarenv."))


def test_package_exports_resolve():
    assert [name for name in cstarenv.__all__ if not hasattr(cstarenv, name)] == []


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []

