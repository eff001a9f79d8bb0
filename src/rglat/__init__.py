"""Exact real-graded lattices with antichain-cutset regrading.

Gradings, meets, joins, and all identity checks run on exact rational
arithmetic; the only grids anywhere are sampling grids for continuity
scans, never tolerances for algebraic identities.
"""

from .core import ChainSample, CheckResult, GradedLattice, adjoin_bounds, rank_modular_defect, updown_distance
from .intervals import Ambient, IntervalSet, StepDensity, interval_lattice, normalize
from .finite import (
    BitSubset,
    PlanePoint,
    SetPartition,
    Subspace,
    boolean_family,
    partition_family,
    product_plane_lattice,
    subspace_family,
)
from .rank import NEG_INF, POS_INF, Rank
from .regrading import (
    ExplicitCutset,
    FiniteRegrader,
    IntervalRegrader,
    LevelCutset,
    counterexample_report,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The tower names load rglat.limits on first use: only ``verify`` and ``limit`` need it.
    if name not in ("EmbeddingFamily", "boolean_to_interval", "cauchy_approx"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .limits import EmbeddingFamily, boolean_to_interval, cauchy_approx

    return locals()[name]


__all__ = [
    "Ambient",
    "BitSubset",
    "ChainSample",
    "CheckResult",
    "EmbeddingFamily",
    "ExplicitCutset",
    "FiniteRegrader",
    "GradedLattice",
    "IntervalRegrader",
    "IntervalSet",
    "LevelCutset",
    "NEG_INF",
    "POS_INF",
    "PlanePoint",
    "Rank",
    "SetPartition",
    "StepDensity",
    "Subspace",
    "adjoin_bounds",
    "boolean_family",
    "boolean_to_interval",
    "cauchy_approx",
    "counterexample_report",
    "interval_lattice",
    "normalize",
    "partition_family",
    "product_plane_lattice",
    "rank_modular_defect",
    "subspace_family",
    "updown_distance",
]
