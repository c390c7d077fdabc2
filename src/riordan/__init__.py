"""Exact arithmetic for the Riordan group, its Lie algebra, and their flows."""

from types import ModuleType as _ModuleType

from .fps import (
    CompositionNeedsPositiveOrder,
    ExpNeedsZeroConstantTerm,
    Fps,
    InsufficientTruncation,
    InvalidTruncation,
    NotAUnit,
    NotInvertibleUnderComposition,
    PowNeedsUnitConstantOne,
    SeriesError,
    as_fraction,
)
from .group import (
    NotRiordan,
    RiordanMatrix,
    TriMatrix,
    involution_m,
    is_involution,
    is_pseudo_involution,
)
from .lie import (
    ExactModeIrrational,
    LieElement,
    MonomialGenerator,
    bracket,
    characteristic_solution,
    conj_transport,
    exp_monomial,
    exp_truncated_oracle,
)
from .flows import (
    ApproachingProblem,
    UnsupportedGenerator,
    check_symmetry,
    check_time_reversal,
    equilibria_check,
    orbit_symmetric_under,
    project_flow,
    rk4_integrate,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
