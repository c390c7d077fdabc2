"""Exact arithmetic for the Riordan group, its Lie algebra, and their flows."""

from .fps import (
    CompositionNeedsPositiveOrder,
    ExpNeedsZeroConstantTerm,
    Fps,
    INFINITE_ORDER,
    InvalidTruncation,
    NotAUnit,
    NotInvertibleUnderComposition,
    PowNeedsUnitConstantOne,
    SeriesError,
    as_fraction,
)
from .group import (
    InsufficientTruncation,
    NotRiordan,
    RiordanMatrix,
    TriMatrix,
    involution_m,
    is_involution,
    is_pseudo_involution,
)
from .lie import (
    DegenerateColumn,
    ExactModeIrrational,
    LieElement,
    MonomialGenerator,
    PatternFitFailure,
    RequiresZeroDiagonal,
    bracket,
    characteristic_solution,
    conj_transport,
    exp_monomial,
    exp_to_riordan,
    exp_truncated_oracle,
    extract_generator,
    log_unitriangular,
)
from .flows import (
    ApproachingProblem,
    UnsupportedGenerator,
    check_symmetry,
    check_time_reversal,
    equilibria_check,
    flow_trace,
    orbit_symmetric_under,
    project_flow,
    projected_involution,
    pseudo_involution_flow_check,
    rk4_integrate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
