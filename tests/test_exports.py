"""Every name a module exports resolves, so a stale ``__all__`` entry fails,
and the modules import one another only down their layers."""

import ast
import importlib
import os
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


# the package modules each module may import; the shrink stack (drf,
# sequences, shrink) never reaches the Milnor stack (freegroup, magnus,
# linkio, milnor), which may build on drf
LAYERS = {
    "drf": set(),
    "sequences": {"drf"},
    "shrink": {"drf", "sequences"},
    "linkio": {"drf", "freegroup"},
    "milnor": {"drf", "freegroup", "linkio", "magnus"},
}


def _package_imports(module: str) -> set[str]:
    """Every package module that `module` imports, function bodies included."""
    path = os.path.join(os.path.dirname(toroshrink.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("toroshrink" if node.level else "", node.module)))
            # `from . import x` and `from toroshrink import x` read x from the package
            if module == "toroshrink":
                names = [f"{module}.{alias.name}" for alias in node.names]
            else:
                names = [module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("toroshrink."))
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_run_one_way_between_the_stacks(module):
    assert _package_imports(module) <= LAYERS[module]
