"""Every numerical tolerance of the toolkit, each defined once with its reason.

Relative tolerances (suffix _REL) multiply a scale of the input, usually
max|c_k|; the others are absolute.  Values that merely coincide keep
separate names, so changing one decision never moves another.
"""

# Evaluation and input shape.
# Rotation quantities are undefined at a zero of P: refused where |P(z)| < this * max|c_k|, or root-form |z - a| < this.
ZERO_PROXIMITY_REL = 1e-12
# A leading coefficient of coefficient input below this * max|c_k| leaves its degree numerically ambiguous.
LEADING_REL = 1e-13
# Largest degree `fuzz --degree-max` and witness `n` build: witness unimodular at 4096 runs in 0.08 s (2-core VM).
MAX_DEGREE = 4096

# Postcondition of the root solver.
# Largest root residual |P(z)| / (sum|c_k| max(1, |z|)^m) at degree m that a solve may return.
RESIDUAL_TOL = 1e-10

# Position against the unit circle.
# The root solver does not resolve |z| more finely: zeros (and witness parameters) this close to 1 are unimodular.
ON_CIRCLE_TOL = 1e-9
# The pole product is undefined at |a| = 1, so poles need |a| > 1 + POLE_CIRCLE_TOL.
POLE_CIRCLE_TOL = 1e-12
# Witness zeros this close to z = 1 would sit on the equality point itself.
ONE_EXCLUSION = 1e-6

# Inequality verdicts.
# Double precision cannot do better on rational coefficient expressions: slack CHECK_SLACK * max(1, |value|).
CHECK_SLACK = 1e-9
# The second coefficient bound degenerates where |c0| and |cn| agree to this relative precision; it is 0 there.
EQUAL_MODULUS_REL = 1e-12
# An on-circle zero this close (radians) to an arc end lies outside the open arc, not inside it.
ARC_EDGE_SLACK = 1e-9
# The measured arc increment may exceed beta by this much (radians), the closed-form sum's rounding.
ARC_INCREMENT_SLACK = 1e-9
# Fuzz gate on |speed - oracle|.  The oracle extrapolates central differences at h and h/2 (Richardson), which
# cancels their h^2 truncation term, up to 1e-4 at h = 1e-5 near a zero 1e-3 off the circle; what is left
# stayed below 2e-8 there (tests/test_oracle.py).
ORACLE_AGREEMENT_TOL = 1e-6

# Hypotheses of the Goryainov self-map check.
# Goryainov needs f(0) = 0, which the origin-pinned map gives exactly.
SELF_MAP_ORIGIN_TOL = 1e-12
# Goryainov needs f(1) = 1, which the normalized map meets only up to rounding.
SELF_MAP_ONE_TOL = 1e-8
# The angular derivative at 1 is >= 1 (Julia's lemma) up to this rounding.
ANGULAR_DERIVATIVE_SLACK = 1e-9
