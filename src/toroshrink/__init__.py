"""toroshrink: Milnor invariants, disc replicating functions, and
shrinkability verdicts for toroidal decompositions of the 3-sphere.

A decomposition of S^3 built from nested solid tori is described by the
sequence of links glued in at each stage.  This package computes the
Milnor invariants that certify lower bounds for the associated disc
replicating functions, evaluates those functions exactly for (n,m) chain
links, and decides shrinkability with machine-checkable certificates.
"""

from .freegroup import (
    GroupRingElement,
    Word,
    commutator,
    format_word,
    fox_derivative,
    parse_word,
)
from .magnus import MagnusSeries, expand, format_series, lcs_depth
from .linkio import (
    CoverDerivation,
    LinkPresentation,
    NMLinkSpec,
    PDCode,
    builtin,
    first_homology,
    format_pd,
    longitudes,
    parse_pd,
    pd_fixture,
    wirtinger,
)
from .milnor import MilnorRecord, delta, mu, mubar, reduce_longitude
from .drf import (
    ExactChainFn,
    MilnorLowerFn,
    compose,
    lower_milnor_drf,
    nm_drf,
    nm_lower_drf,
)
from .sequences import (
    EventuallyPeriodicSequence,
    ExplicitSequence,
    GapSequence,
    GeneratorSequence,
    LinkSequence,
    PeriodicSequence,
    parse_poly,
    parse_sequence_config,
)
from .shrink import (
    DOES_NOT_SHRINK,
    SHRINKS,
    UNKNOWN,
    ShrinkVerdict,
    ancel_starbird,
    decide,
    orbit_decide,
    periodic_product,
    sher_armentrout,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "GroupRingElement",
    "Word",
    "commutator",
    "format_word",
    "fox_derivative",
    "parse_word",
    "MagnusSeries",
    "expand",
    "format_series",
    "lcs_depth",
    "CoverDerivation",
    "LinkPresentation",
    "NMLinkSpec",
    "PDCode",
    "builtin",
    "first_homology",
    "format_pd",
    "longitudes",
    "parse_pd",
    "pd_fixture",
    "wirtinger",
    "MilnorRecord",
    "delta",
    "mu",
    "mubar",
    "reduce_longitude",
    "ExactChainFn",
    "MilnorLowerFn",
    "compose",
    "lower_milnor_drf",
    "nm_drf",
    "nm_lower_drf",
    "EventuallyPeriodicSequence",
    "ExplicitSequence",
    "GapSequence",
    "GeneratorSequence",
    "LinkSequence",
    "PeriodicSequence",
    "parse_poly",
    "parse_sequence_config",
    "DOES_NOT_SHRINK",
    "SHRINKS",
    "UNKNOWN",
    "ShrinkVerdict",
    "ancel_starbird",
    "decide",
    "orbit_decide",
    "periodic_product",
    "sher_armentrout",
    "verify_certificate",
    "__version__",
]
