"""Boundary rotation toolkit for complex polynomials and rational functions.

Computes the rotation speed (d/dtheta) arg P(e^{i theta}) on the unit
circle, checks every sharp lower and upper bound for it against an
independent finite-difference oracle, and constructs the equality
families that show each bound is attained.
"""

from .blaschke import (
    BlaschkeProduct,
    boundary_derivative_modulus,
    check_goryainov,
    check_mercer,
    check_mercer_remark,
    disk_self_map,
    f_prime_0,
    f_second_0,
    normalized_self_map,
)
from .bounds import (
    BoundReport,
    bound_arc,
    bound_coeff,
    bound_coeff2,
    bound_sqrt_weak,
    bound_value,
    bound_zero_free,
    full_report,
    lambda_at,
)
from .errors import (
    ArcContainsRoot,
    DegenerateDerivative,
    HypothesisViolated,
    InvalidWitnessParams,
    NonConvergence,
    PolyrotError,
    RootAtOne,
    UnwrapAmbiguity,
    ZeroProximity,
)
from .oracle import arc_increment, arg_derivative_fd
from .poly import (
    Polynomial,
    RootForm,
    UnitCirclePoint,
    circle_grid,
    from_roots,
    rotation_speed,
    sweep,
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
    witness_arc,
    witness_goryainov,
    witness_rational,
    witness_report,
    witness_unimodular,
    witness_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
