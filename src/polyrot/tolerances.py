"""Every numerical tolerance of the toolkit, each defined once with its reason.

Relative tolerances (suffix _REL) multiply a scale of the input, usually
max|c_k|; the others are absolute.  Values that merely coincide keep
separate names, so changing one decision never moves another.
"""

import math

# Evaluation and input shape.
# Rotation quantities are undefined at a zero of P and roundoff next to one: refused below this * max|c_k|.
ZERO_PROXIMITY_REL = 1e-12
# A leading coefficient below this * max|c_k| leaves the degree numerically ambiguous.
LEADING_REL = 1e-13

# Stopping rules of the Aberth-Ehrlich root solver.
# Sweeps before the solver stops and judges the residuals; cubic convergence settles simple roots in far fewer.
MAX_ITERATIONS = 200
# Relative root movement per sweep below which the iteration has stalled: a few hundred ulps of a double.
CONVERGENCE_TOL = 1e-13
# Root residual |P(z)| / (sum|c_k| max(1, |z|)^m) at degree m; acceptance relaxes it to RESIDUAL_TOL^(1/m) so clusters pass.
RESIDUAL_TOL = 1e-10

# Position against the unit circle.
# The root solver does not resolve |z| more finely: zeros (and witness parameters) this close to 1 are unimodular.
ON_CIRCLE_TOL = 1e-9
# The pole product is undefined at |a| = 1, so poles need |a| > 1 + POLE_CIRCLE_TOL.
POLE_CIRCLE_TOL = 1e-12
# A zero this close to z = 1 poisons the normalization f(1) = 1 of the self-maps.
ROOT_AT_ONE_TOL = 1e-9
# Witness zeros this close to z = 1 would sit on the equality point itself.
ONE_EXCLUSION = 1e-6

# Inequality verdicts.
# Double precision cannot do better on rational coefficient expressions: slack CHECK_SLACK * max(1, |value|).
CHECK_SLACK = 1e-9
# The second coefficient bound degenerates where |c0| and |cn| agree to this relative precision; it is 0 there.
EQUAL_MODULUS_REL = 1e-12
# An on-circle zero this close (radians) to an arc end lies outside the open arc, not inside it.
ARC_EDGE_SLACK = 1e-9
# The measured arc increment may exceed beta by this much (radians), the tracking's rounding.
ARC_INCREMENT_SLACK = 1e-9
# A phase step this large between successive arc samples is ambiguous modulo 2 pi: refine the grid.
PHASE_STEP_LIMIT = 0.5 * math.pi
# Samples per half-arc in arc tracking: steps under pi/4096 rad, for a discretization bound of 2 pi/4096.
ARC_SAMPLES = 4096
# Sample doublings allowed while a phase step reaches PHASE_STEP_LIMIT; past 64 * ARC_SAMPLES the arc is ambiguous.
ARC_REFINEMENTS = 6
# Fuzz gate on |speed - central difference|; the difference's truncation error is about 1e-8 away from zeros.
ORACLE_AGREEMENT_TOL = 1e-6
# Fuzz angles keep |P(z)| above this * max|c_k|, clear of the guard and of the stencil's blow-up near zeros.
SAMPLE_FLOOR_REL = 1e-3
# Random angles drawn for that floor before a fuzz case is dropped as having none.
SAMPLE_TRIES = 500

# Hypotheses of the Blaschke self-map checks.
# A Blaschke prefactor must be unimodular to this precision.
PREFACTOR_UNIMODULAR_TOL = 1e-12
# Goryainov needs f(0) = 0, which the origin-pinned maps give exactly.
SELF_MAP_ORIGIN_TOL = 1e-12
# Goryainov needs f(1) = 1, which the product of degree-many factors meets only up to rounding.
SELF_MAP_ONE_TOL = 1e-8
# The angular derivative at 1 is >= 1 (Julia's lemma) up to this rounding.
ANGULAR_DERIVATIVE_SLACK = 1e-9
# Mercer's bound degenerates where |f'(0)| is 1 to this precision.
DEGENERATE_DERIVATIVE_TOL = 1e-12
