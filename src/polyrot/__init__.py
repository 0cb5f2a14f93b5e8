"""Boundary rotation toolkit for complex polynomials and rational functions.

Computes the rotation speed (d/dtheta) arg P(e^{i theta}) on the unit
circle, checks every sharp lower and upper bound for it against an
independent finite-difference oracle, and constructs the equality
families that show each bound is attained.
"""

from .blaschke import check_mercer_remark
from .bounds import (
    BoundReport,
    bound_arc,
    bound_coeff,
    bound_coeff2,
    bound_sqrt_weak,
    bound_value,
    bound_zero_free,
    full_report,
)
from .errors import (
    ArcContainsRoot,
    HypothesisViolated,
    InvalidWitnessParams,
    NonConvergence,
    PolyrotError,
    ZeroProximity,
)
from .oracle import arc_increment, arg_derivative_fd
from .poly import (
    Polynomial,
    RootForm,
    circle_grid,
    circle_point,
    from_roots,
    rotation_speed,
)
from .rational import (
    RationalBoundReport,
    RationalFunction,
    arg_derivative,
    check_rotation_bounds,
    classify_numerator,
    pole_speed,
)
from .roots import ZeroClassification, classify_zeros, find_roots
from .witness import (
    WitnessSpec,
    check_goryainov,
    witness_arc,
    witness_goryainov,
    witness_rational,
    witness_report,
    witness_unimodular,
    witness_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
