"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import spectemp

MODULES = [importlib.import_module(f"spectemp.{info.name}")
           for info in pkgutil.iter_modules(spectemp.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ lists missing names {missing}"
