"""Lower and upper bounds for the boundary rotation of a polynomial.

All lower bounds are stated for the normalized excess rotation

    lambda(theta) = 2 (arg P(e^{i theta}))'_theta - n,

which is nonnegative whenever every zero of P lies in the closed unit
disk.  Each bound function returns the right-hand side on that scale;
`full_report` evaluates all of them at one boundary point, gates each by
its hypothesis, and records signed margins and pass flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisViolated
from .oracle import arc_increment
from .poly import Polynomial, UnitCirclePoint, cross_term, guard_zero, rotation_speed
from .report import BOUND_KEYS, csv_cell
from .roots import ZeroClassification, classify_zeros
from .tolerances import ARC_INCREMENT_SLACK, CHECK_SLACK, EQUAL_MODULUS_REL


def lambda_at(p: Polynomial, pt: UnitCirclePoint) -> float:
    """Excess rotation 2 * rotation_speed - degree; raises ZeroProximity at zeros of P."""
    return 2.0 * rotation_speed(p, pt) - p.degree


def bound_coeff(p: Polynomial) -> float:
    """Endpoint-coefficient lower bound (|cn| - |c0|) / (|cn| + |c0|).

    Valid (nonnegative) when all zeros lie in the closed disk; ranges in
    [0, 1] there, hitting 0 exactly when |c0| = |cn| and 1 when c0 = 0.
    """
    a0 = abs(p.constant)
    an = abs(p.leading)
    return (an - a0) / (an + a0)


def bound_sqrt_weak(p: Polynomial) -> float:
    """Weaker square-root variant 1 - sqrt(|c0| / |cn|), kept for comparison."""
    return 1.0 - math.sqrt(abs(p.constant) / abs(p.leading))


def bound_value(p: Polynomial, pt: UnitCirclePoint, lam: float) -> float:
    """Value-refined lower bound |(lambda + 1) * conj(c0) P(z) / (cn z^n conj(P(z))) - 1|.

    Uses the boundary value of P itself, so it varies with theta; for
    zeros-in-disk inputs lambda dominates it.
    """
    z = pt.z
    val = p(z)
    guard_zero(val, p.coeff_scale)
    w = p.constant.conjugate() * val / (p.leading * z**p.degree * val.conjugate())
    return abs((lam + 1.0) * w - 1.0)


def bound_coeff2(p: Polynomial) -> float:
    """Second coefficient lower bound 2(|c0|-|cn|)^2 / (|cn|^2 - |c0|^2 + |conj(cn) c1 - c0 conj(c_{n-1})|).

    Returns 0 when |c0| = |cn| (all zeros on the circle), where the
    quotient formally degenerates.  Outside the zeros-in-disk hypothesis
    the denominator can vanish or turn negative; the result is then nan
    and the caller is expected to have gated the bound off.
    """
    c = p.coeffs
    a0 = abs(c[0])
    an = abs(c[-1])
    if abs(a0 - an) <= EQUAL_MODULUS_REL * max(a0, an):
        return 0.0
    denom = an * an - a0 * a0 + abs(cross_term(c))
    if denom <= 0.0:
        return math.nan
    return 2.0 * (a0 - an) ** 2 / denom


def bound_arc(
    p: Polynomial,
    pt: UnitCirclePoint,
    alpha: float,
    beta: float | None,
    classification: ZeroClassification | None = None,
) -> float:
    """Finite-increment upper bound tan(beta/2) / tan(alpha/2) for lambda at pt.

    Hypotheses: the open arc of half-width alpha around pt is zero free,
    and the increment of 2 arg P(z) - n arg z along the arc is at most
    beta in absolute value.  The increment is measured and checked
    against the supplied beta; beta = None uses the measured increment.

    Raises ValueError when alpha or beta lies outside (0, pi), and
    HypothesisViolated when a zero lies on the open arc or the measured
    increment exceeds beta (or, with beta = None, reaches pi).
    """
    if beta is not None and not (0.0 < beta < math.pi):
        raise ValueError("beta must lie in (0, pi)")
    measured = arc_increment(p, pt.theta, alpha, classification)
    use_beta = measured if beta is None else beta
    if measured > use_beta + ARC_INCREMENT_SLACK or use_beta >= math.pi:
        raise HypothesisViolated(
            f"measured arc increment {measured:.6f} exceeds beta {use_beta:.6f} or reaches pi"
        )
    return math.tan(0.5 * use_beta) / math.tan(0.5 * alpha)


def bound_zero_free(p: Polynomial) -> float:
    """Upper bound n/2 + (|cn| - |c0|) / (2(|cn| + |c0|)) on the rotation speed.

    Valid when no zero lies in the open unit disk: the reversed-conjugate
    polynomial then has all zeros in the closed disk, and the correction
    term is <= 0.  `full_report` applies the hypothesis gate.
    """
    return 0.5 * p.degree + 0.5 * bound_coeff(p)


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound at one boundary point, with margins and flags.

    Margin conventions: lower bounds report lambda - bound, the two upper
    bounds report bound - lambda (arc) and bound - rotation speed
    (zero-free).  A flag is "pass" / "fail" for applicable bounds and
    "na" when the hypothesis does not hold or the bound was not requested.
    `speed` is the rotation speed behind lambda = 2 speed - n.
    """

    theta: float
    speed: float
    lam: float
    bounds: dict
    margins: dict
    flags: dict

    @property
    def status(self) -> str:
        return "fail" if any(f == "fail" for f in self.flags.values()) else "pass"

    def fails(self, checks) -> bool:
        """True when a bound named in checks failed."""
        return any(self.flags.get(k) == "fail" for k in checks)

    def csv_cells(self) -> list[str]:
        cells = [csv_cell(self.theta), csv_cell(self.lam)]
        return cells + [csv_cell(self.bounds.get(k)) for k in BOUND_KEYS] + [self.status]

    def as_dict(self) -> dict:
        return {
            "theta": self.theta,
            "lambda": self.lam,
            "bounds": {k: self.bounds.get(k) for k in BOUND_KEYS},
            "margins": {k: self.margins.get(k) for k in BOUND_KEYS},
            "flags": {k: self.flags.get(k, "na") for k in BOUND_KEYS},
            "status": self.status,
        }


def full_report(
    p: Polynomial,
    pt: UnitCirclePoint,
    arc: tuple[float, float | None] | None = None,
    slack: float = CHECK_SLACK,
    classification: ZeroClassification | None = None,
) -> BoundReport:
    """Evaluate lambda and every applicable bound at one boundary point.

    Lower bounds apply when all zeros lie in the closed disk; the
    zero-free upper bound applies when none lie in the open disk.  The
    arc bound is only evaluated when `arc = (alpha, beta)` is supplied
    (beta = None means: use the measured increment).  Bounds whose
    hypothesis fails are reported with flag "na" rather than "fail".
    Pass the zero classification of p to avoid solving for its zeros
    again at every point.
    """
    cls = classification or classify_zeros(p)
    speed = rotation_speed(p, pt)
    lam = 2.0 * speed - p.degree
    tol = slack * max(1.0, abs(lam))

    bounds = dict.fromkeys(BOUND_KEYS)
    margins = dict.fromkeys(BOUND_KEYS)
    flags = dict.fromkeys(BOUND_KEYS, "na")

    def record(key, value, margin):
        bounds[key] = value
        margins[key] = margin
        flags[key] = "na" if margin is None else "pass" if margin >= -tol else "fail"

    lower_ok = not cls.outside
    for key, value in (
        ("classic", 0.0),
        ("coeff", bound_coeff(p)),
        ("sqrt_weak", bound_sqrt_weak(p)),
        ("value_thm1", bound_value(p, pt, lam)),
        ("coeff2_thm2", bound_coeff2(p)),
    ):
        record(key, value, lam - value if lower_ok and math.isfinite(value) else None)

    if arc is not None:
        try:
            value = bound_arc(p, pt, *arc, classification=cls)
            record("arc_thm3", value, value - lam)
        except HypothesisViolated:
            pass

    if not cls.inside:
        value = bound_zero_free(p)
        record("upper_zero_free", value, value - speed)

    return BoundReport(pt.theta, speed, lam, bounds, margins, flags)
