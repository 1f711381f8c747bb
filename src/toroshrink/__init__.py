"""toroshrink: Milnor invariants, disc replicating functions, and
shrinkability verdicts for toroidal decompositions of the 3-sphere.

A decomposition of S^3 built from nested solid tori is described by the
sequence of links glued in at each stage.  This package computes the
Milnor invariants that certify lower bounds for the associated disc
replicating functions, evaluates those functions exactly for (n,m) chain
links, and decides shrinkability with machine-checkable certificates.

Importing the package loads none of its modules.  The first lookup of a
public name, or of a module below, loads that module's whole stack
(PEP 562 `__getattr__`): the Milnor stack for `freegroup`, `magnus`,
`linkio` and `milnor`, the shrink stack for `sequences` and `shrink`,
and `drf` alone for `drf`.  So a `shrink decide` run never compiles the
Milnor stack, and a `milnor` run never compiles the shrink stack.
"""

import importlib

__version__ = "0.1.0"

# stack -> module -> public names; importing a stack's own module loads the stack
_STACKS = {
    "milnor": {
        "freegroup": (
            "GroupRingElement", "Word", "commutator", "format_word", "fox_derivative",
            "parse_word",
        ),
        "magnus": ("MagnusSeries", "expand", "format_series", "lcs_depth"),
        "linkio": (
            "CoverDerivation", "LinkPresentation", "PDCode", "builtin", "first_homology",
            "format_pd", "longitudes", "parse_pd", "pd_fixture", "wirtinger",
        ),
        "milnor": (
            "MilnorLowerFn", "MilnorRecord", "delta", "lower_milnor_drf", "mu", "mubar",
            "nm_lower_drf", "reduce_longitude",
        ),
    },
    "drf": {"drf": ("ExactChainFn", "NMLinkSpec", "compose", "nm_drf")},
    "shrink": {
        "sequences": (
            "EventuallyPeriodicSequence", "ExplicitSequence", "GapSequence",
            "GeneratorSequence", "LinkSequence", "PeriodicSequence", "parse_poly",
            "parse_sequence_config",
        ),
        "shrink": (
            "DOES_NOT_SHRINK", "SHRINKS", "UNKNOWN", "ShrinkVerdict", "ancel_starbird",
            "decide", "orbit_decide", "periodic_product", "sher_armentrout",
            "verify_certificate",
        ),
    },
}

# public name or module -> (its stack, its module)
_HOME = {
    name: (stack, module)
    for stack, modules in _STACKS.items()
    for module, names in modules.items()
    for name in (module, *names)
}

__all__ = [name for name, (_, module) in _HOME.items() if name != module] + ["__version__"]


def __getattr__(name):
    """Load the stack of `name` and bind `name` here, so later lookups
    are plain attribute reads."""
    try:
        stack, module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    importlib.import_module(f"{__name__}.{stack}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
