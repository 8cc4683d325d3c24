"""Exact covolumes of minimal nonuniform arithmetic lattices in PU(n,1)."""

from . import bernoulli, lattice, lvalues, quadfield, serialize, survey
from .errors import (
    CovolumeError,
    DiscriminantMismatch,
    InternalDefect,
    InvalidDimension,
    InvalidInput,
    NonFundamentalDiscriminant,
    NotSquarefree,
    TieDetected,
    UnknownMultiplicity,
)
from .lattice import (
    CovolumeResult,
    EpsilonStatus,
    Interval,
    covolume_result,
    cross_path_check,
    euler_characteristic,
    hyperbolic_volume,
    nu,
)
from .quadfield import QuadField, from_squarefree_d
from .survey import (
    GrowthReport,
    growth_ratio,
    hwang_bound,
    minimal_field,
    overall_minimum,
    scan,
)

__version__ = "1.0.0"

__all__ = [
    "CovolumeError",
    "CovolumeResult",
    "DiscriminantMismatch",
    "EpsilonStatus",
    "GrowthReport",
    "InternalDefect",
    "Interval",
    "InvalidDimension",
    "InvalidInput",
    "NonFundamentalDiscriminant",
    "NotSquarefree",
    "QuadField",
    "TieDetected",
    "UnknownMultiplicity",
    "covolume_result",
    "cross_path_check",
    "euler_characteristic",
    "from_squarefree_d",
    "growth_ratio",
    "hwang_bound",
    "hyperbolic_volume",
    "minimal_field",
    "nu",
    "overall_minimum",
    "scan",
    "clear_caches",
    "__version__",
]


def clear_caches() -> None:
    """Reset every memo table in the package.

    Needed by the self-check machinery, which temporarily perturbs a
    low-level function and must not let stale cached values mask the
    perturbation.
    """
    bernoulli.clear_caches()
    quadfield.clear_caches()
    lvalues.clear_caches()
    lattice.clear_caches()
    serialize.clear_caches()
