"""Every name a module exports resolves, so a stale ``__all__`` entry fails,
the modules import one another only down their layers, and a fresh
interpreter loads only the stack that it uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

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


def _tree(module: str) -> ast.Module:
    path = os.path.join(os.path.dirname(toroshrink.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_imports(module: str) -> set[str]:
    """Every package module that `module` imports, function bodies included."""
    found = set()
    for node in ast.walk(_tree(module)):
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


SUBMODULES = sorted(name.split(".")[1] for name in MODULES[1:])


def _exports(module: str, name: str) -> bool:
    """Whether `name` is public in the package module (or, for "", the
    package): listed in its `__all__`, or, where it has none, a name
    without a leading underscore."""
    owner = importlib.import_module(".".join(filter(None, ("toroshrink", module))))
    public = getattr(owner, "__all__", None)
    return not name.startswith("_") if public is None else name in public


# a module reads a sibling only through the names that the sibling exports,
# so a private name such as a regex or a helper has one reader, its owner
@pytest.mark.parametrize("module", SUBMODULES)
def test_modules_import_only_what_their_siblings_export(module):
    private = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ("toroshrink" if node.level else "", node.module)))
            package, _, sibling = source.partition(".")
            if package == "toroshrink":
                private += [f"{sibling}.{a.name}" for a in node.names if not _exports(sibling, a.name)]
    assert private == []


def _stack(module: str) -> list[str]:
    """`module` and every package module it reaches through LAYERS."""
    found, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo.extend(LAYERS.get(name, ()))
    return sorted(f"toroshrink.{name}" for name in found)


def _loaded_after(script: str) -> list[str]:
    """The package modules loaded once `script` has run in a fresh interpreter."""
    script += "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('toroshrink.')))"
    src = os.path.dirname(os.path.dirname(toroshrink.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module():
    assert _loaded_after("import toroshrink") == []


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    _loaded_after(
        "import toroshrink\n"
        "missing = [n for n in toroshrink.__all__ if not hasattr(toroshrink, n)]\n"
        "assert missing == [], missing"
    )


# a name of any module of a stack loads that whole stack, and only it
@pytest.mark.parametrize(
    "name, stack",
    [
        ("Word", "milnor"),
        ("parse_pd", "milnor"),
        ("linkio", "milnor"),
        ("parse_sequence_config", "shrink"),
        ("decide", "shrink"),
        ("nm_drf", "drf"),
    ],
)
def test_a_first_lookup_loads_its_whole_stack(name, stack):
    assert _loaded_after(f"import toroshrink\ntoroshrink.{name}") == _stack(stack)


NEAR_MISS = os.path.join(os.path.dirname(__file__), "data", "decide_near_miss.json")


@pytest.mark.parametrize(
    "argv, stack",
    [
        (["shrink", "decide", "--config", NEAR_MISS], "shrink"),
        (["milnor", "--builtin", "borromean", "--all-upto-length", "3"], "milnor"),
        (["drf", "eval", "--link", "nm(3,2)", "--k", "8"], "drf"),
    ],
    ids=["shrink-decide", "milnor", "drf-eval"],
)
def test_a_command_loads_only_its_own_stack(argv, stack):
    loaded = _loaded_after(f"from toroshrink.cli import main\nmain({argv!r})")
    assert loaded == sorted(["toroshrink.cli", *_stack(stack)])
