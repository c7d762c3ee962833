"""Every name a module exports resolves, so deleted code leaves no stale
export behind."""

import importlib
import pkgutil

import pytest

import stiefel_cayley

MODULES = ["stiefel_cayley"] + [
    f"stiefel_cayley.{info.name}" for info in pkgutil.iter_modules(stiefel_cayley.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
