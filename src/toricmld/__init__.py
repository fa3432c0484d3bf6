"""Exact invariants of toric klt singularities.

Everything runs on arbitrary-precision integers and rationals; there is
no floating point anywhere in the package.
"""

from .cones import (
    Cone,
    Face,
    Membership,
    dual_cone,
    is_simplicial,
    make_cone,
    membership,
    minimal_face_containing,
)
from .errors import ToricError
from .germio import germ_doc, parse_germ
from .invariants import (
    FiniteAbelianGroup,
    MldResult,
    ToricGerm,
    WindowCount,
    count_window,
    log_discrepancy_at,
    make_germ,
    mld,
    multiplicity,
    pi1_reg,
)
from .lab import (
    Classification,
    ConjectureInstance,
    InstanceResult,
    ScanReport,
    check_instance,
    family,
    sample_random,
    scan,
)
from .linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    LatticeBasis,
    express_in_basis,
    hnf,
    lattice_from_generators,
    primitive,
    snf,
    solve_rational,
)
from .oracle import oracle_mld, oracle_window
from .structure import (
    BlowupReport,
    Decomposition,
    FullDimSubcone,
    Simplicial,
    SpanningPair,
    blowup_report,
    decompose,
    trichotomy,
)

__all__ = [
    "Cone",
    "Face",
    "Membership",
    "ToricError",
    "ToricGerm",
    "LatticeBasis",
    "MldResult",
    "WindowCount",
    "FiniteAbelianGroup",
    "Decomposition",
    "BlowupReport",
    "Simplicial",
    "FullDimSubcone",
    "SpanningPair",
    "ConjectureInstance",
    "InstanceResult",
    "Classification",
    "ScanReport",
    "INCONSISTENT",
    "UNDERDETERMINED",
    "make_cone",
    "dual_cone",
    "membership",
    "is_simplicial",
    "minimal_face_containing",
    "primitive",
    "hnf",
    "snf",
    "solve_rational",
    "lattice_from_generators",
    "express_in_basis",
    "make_germ",
    "multiplicity",
    "mld",
    "count_window",
    "pi1_reg",
    "log_discrepancy_at",
    "oracle_mld",
    "oracle_window",
    "trichotomy",
    "decompose",
    "blowup_report",
    "check_instance",
    "family",
    "sample_random",
    "scan",
    "parse_germ",
    "germ_doc",
]
