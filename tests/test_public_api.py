import importlib
import pkgutil

import pytest

import evtkit

SUBMODULES = [info.name for info in pkgutil.iter_modules(evtkit.__path__)]


def test_package_exports_resolve():
    missing = [name for name in evtkit.__all__ if not hasattr(evtkit, name)]
    assert missing == []


def test_package_exports_unique():
    assert len(evtkit.__all__) == len(set(evtkit.__all__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"evtkit.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
