"""Exact toric Frobenius splitting and tilting-candidate verification.

Given the fan of a smooth projective toric variety, this package computes
the set of line-bundle classes split off by the power endomorphisms, its
anti-nef part, line-bundle cohomology and Ext tables, and the resulting
generation-time / Rouquier-dimension bounds, all in exact arithmetic.
"""

from .catalog import CatalogEntry, FanFileError, builtin, catalog_names, entries, load, resolve, save
from .cohomology import (
    CohomologyVector,
    InfiniteCohomologyError,
    WeightPattern,
    cohomology,
    weight_patterns,
)
from .cones import NefVerdict, bu_set, is_nef, nef_fano_status
from .fan import (
    DivisorClass,
    Fan,
    InvalidFanError,
    TorusDivisor,
    ValidationReport,
    canonical_divisor,
    cartier_data,
    divisor_class,
    hirzebruch,
    product,
    projective_space,
    star_subdivision,
    validate,
)
from .frobenius import (
    FrobSet,
    frob_set,
    minimal_stabilizing_ell,
    pushforward_summands,
)
from .lattice import (
    IntMat,
    IntVec,
    LinearSystem,
    determinant,
    feasible,
    feasible_point,
)
from .tilting import (
    ExtVanishing,
    OrlovReport,
    TiltingCandidate,
    build_candidate,
    ext_vanishing,
    m0,
    orlov_check,
)

__version__ = "0.1.0"
