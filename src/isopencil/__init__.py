"""Exact enumeration of Abelian curve covers, diagonal-quotient surfaces, and
their isotrivial canonical pencils, with machine-checked reference tables."""

from .atlas import AtlasRow, atlas_table, canonical_profile, enumerate_actions
from .classifier import FamilyRow, SurfaceSolution, classify, classify_cell
from .compare import (
    AtlasComparison,
    ComparisonReport,
    Discrepancy,
    compare_atlas_with_reference,
    compare_with_reference,
)
from .covers import (
    CoverData,
    eigen_profile,
    enumerate_covers,
    genus,
    make_cover,
)
from .errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
    IsopencilError,
)
from .groups import FiniteAbelianGroup, make_group
from .linear import LinearForm
from .sandwich import InvariantReport, Sandwich, invariants, make_sandwich
from .specfile import load_sandwich, parse_sandwich, sandwich_record

__version__ = "0.1.0"

__all__ = [
    "AtlasComparison",
    "AtlasRow",
    "CapabilityError",
    "ComparisonReport",
    "CoverData",
    "Discrepancy",
    "DisconnectedCoverError",
    "FamilyRow",
    "FiniteAbelianGroup",
    "InternalConsistencyError",
    "InvalidInputError",
    "InvalidMonodromyError",
    "InvariantReport",
    "IsopencilError",
    "LinearForm",
    "Sandwich",
    "SurfaceSolution",
    "atlas_table",
    "canonical_profile",
    "classify",
    "classify_cell",
    "compare_atlas_with_reference",
    "compare_with_reference",
    "eigen_profile",
    "enumerate_actions",
    "enumerate_covers",
    "genus",
    "invariants",
    "load_sandwich",
    "make_cover",
    "make_group",
    "make_sandwich",
    "parse_sandwich",
    "sandwich_record",
    "__version__",
]
