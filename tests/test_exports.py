"""Every name a module exports resolves, so a stale ``__all__`` entry fails."""

import importlib
import pkgutil

import pytest

import toroshrink

MODULES = ["toroshrink"] + [
    f"toroshrink.{info.name}" for info in pkgutil.iter_modules(toroshrink.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
