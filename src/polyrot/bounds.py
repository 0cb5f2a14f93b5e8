"""Lower and upper bounds for the boundary rotation of a polynomial.

All lower bounds are stated for the normalized excess rotation

    lambda(theta) = 2 (arg P(e^{i theta}))'_theta - n,

which is nonnegative whenever every zero of P lies in the closed unit
disk.  Each bound function returns the right-hand side on that scale;
`full_report` evaluates all of them at one boundary point, gates each by
its hypothesis, and records signed margins and pass flags.  A coefficient
bound reads only ends = (c0, c1, c_{n-1}, cn), the `endpoints` of a
Polynomial or a RootForm, and no positive factor of all four moves it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated
from .oracle import arc_increment
from .poly import (Polynomial, RootForm, boundary_grid, c_mul, c_quot, circle_point, cross_term, guard_zero,
                   root_grid, rotation_speed)
from .report import BOUND_KEYS, grid_rows, row_template
from .roots import ZeroClassification
from .tolerances import ARC_INCREMENT_SLACK, CHECK_SLACK, EQUAL_MODULUS_REL


def bound_coeff(ends: tuple[complex, ...]) -> float:
    """Endpoint-coefficient lower bound (|cn| - |c0|) / (|cn| + |c0|).

    Valid (nonnegative) when all zeros lie in the closed disk; ranges in
    [0, 1] there, hitting 0 exactly when |c0| = |cn| and 1 when c0 = 0.
    """
    a0, an = abs(ends[0]), abs(ends[-1])
    return (an - a0) / (an + a0)


def bound_sqrt_weak(ends: tuple[complex, ...]) -> float:
    """Weaker square-root variant 1 - sqrt(|c0| / |cn|), kept for comparison; -inf where cn underflowed to 0."""
    return 1.0 - math.sqrt(abs(ends[0]) / abs(ends[-1])) if ends[-1] else -math.inf


def bound_value(p: Polynomial, z: complex, lam: float) -> float:
    """Value-refined lower bound |(lambda + 1) * conj(c0) P(z) / (cn z^n conj(P(z))) - 1| at z = `circle_point(theta)`.

    Uses the boundary value of P itself, so it varies with theta; for
    zeros-in-disk inputs lambda dominates it.
    """
    val = p(z)
    guard_zero(val, p.coeff_scale)
    w = p.coeffs[0].conjugate() * val / (p.leading * z**p.degree * val.conjugate())
    return abs((lam + 1.0) * w - 1.0)


def bound_coeff2(ends: tuple[complex, ...]) -> float:
    """Second coefficient lower bound 2(|c0|-|cn|)^2 / (|cn|^2 - |c0|^2 + |conj(cn) c1 - c0 conj(c_{n-1})|).

    Returns 0 when |c0| = |cn| (all zeros on the circle), where the
    quotient formally degenerates.  Outside the zeros-in-disk hypothesis
    the denominator can vanish or turn negative; the result is then nan
    and the caller is expected to have gated the bound off.
    """
    a0, an = abs(ends[0]), abs(ends[-1])
    if abs(a0 - an) <= EQUAL_MODULUS_REL * max(a0, an):
        return 0.0
    denom = an * an - a0 * a0 + abs(cross_term(ends))
    if denom <= 0.0:
        return math.nan
    return 2.0 * (a0 - an) ** 2 / denom


def bound_arc(theta: float, alpha: float, beta: float | None, classification: ZeroClassification) -> float:
    """Finite-increment upper bound tan(beta/2) / tan(alpha/2) for lambda at e^{i theta}.

    Hypotheses: every zero of P lies in the closed unit disk, the open arc of half-width alpha around it is zero
    free, and the increment of 2 arg P(z) - n arg z along the arc is at most beta in absolute value.  The
    increment is `arc_increment`'s closed form over `classification`, that of P's zeros, and is checked against
    the supplied beta; beta = None uses the measured increment.

    Raises ValueError when alpha or beta lies outside (0, pi), and HypothesisViolated when a zero lies outside the
    closed disk or on the open arc, or the measured increment exceeds beta (or, with beta = None, reaches pi).
    """
    if beta is not None and not (0.0 < beta < math.pi):
        raise ValueError("beta must lie in (0, pi)")
    measured = arc_increment(theta, alpha, classification)
    value = _arc_value(measured, alpha, beta)
    if math.isnan(value):
        use_beta = measured if beta is None else beta
        raise HypothesisViolated(f"measured arc increment {measured:.6f} exceeds beta {use_beta:.6f} or reaches pi")
    return value


def _arc_value(measured: float, alpha: float, beta: float | None) -> float:
    """`bound_arc` for a measured increment: nan where it is nan, exceeds beta (if given) or reaches pi."""
    use_beta = measured if beta is None else beta
    if math.isnan(measured) or measured > use_beta + ARC_INCREMENT_SLACK or use_beta >= math.pi:
        return math.nan
    return math.tan(0.5 * use_beta) / math.tan(0.5 * alpha)


def bound_zero_free(ends: tuple[complex, ...], degree: int) -> float:
    """Upper bound n/2 + (|cn| - |c0|) / (2(|cn| + |c0|)) on the rotation speed.

    Valid when no zero lies in the open unit disk: the reversed-conjugate
    polynomial then has all zeros in the closed disk, and the correction
    term is <= 0.  `full_report` applies the hypothesis gate.
    """
    return 0.5 * degree + 0.5 * bound_coeff(ends)


def _lower_bounds(ends: tuple[complex, ...], value_thm1):
    """(key, value) of each lower bound, in BOUND_KEYS order; value_thm1 is the one that varies with theta."""
    return (("classic", 0.0), ("coeff", bound_coeff(ends)), ("sqrt_weak", bound_sqrt_weak(ends)),
            ("value_thm1", value_thm1), ("coeff2_thm2", bound_coeff2(ends)))


# A scan row, as data: the JSON row with a column name at each leaf, and the CSV header name of each column.
_JSON_ROW = {"theta": "theta", "lambda": "lam", **{g: {k: f"{g}.{k}" for k in BOUND_KEYS}
                                                   for g in ("bounds", "margins", "flags")}, "status": "status"}
_CSV_ROW = {"theta": "theta", "lambda": "lam", **{k: f"bounds.{k}" for k in BOUND_KEYS}, "status": "status"}
_TEMPLATES = {json_rows: row_template(_JSON_ROW, _CSV_ROW.values(), json_rows) for json_rows in (False, True)}


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound at one boundary point, or at every angle of a grid, with margins and flags.

    Margin conventions: lower bounds report lambda - bound, the two upper
    bounds report bound - lambda (arc) and bound - rotation speed
    (zero-free).  A flag is "pass" / "fail" for applicable bounds and
    "na" when the hypothesis does not hold or the bound was not requested.
    `speed` is the rotation speed behind lambda = 2 speed - n.

    At a point (`full_report`) every field is a scalar and a margin that does not apply is None.  On a grid
    (`grid_report`) theta, speed, lam and `skipped` are arrays over the angles, each value in bounds, margins
    and flags is an array or one value for all of them, and a margin that does not apply at an angle reads
    nan; a skipped angle has no verdict.
    """

    CSV_HEADER = ",".join(_CSV_ROW)

    theta: float | np.ndarray
    speed: float | np.ndarray
    lam: float | np.ndarray
    bounds: dict
    margins: dict
    flags: dict
    skipped: bool | np.ndarray = False

    def fails(self, checks) -> np.ndarray:
        """Per angle: whether a bound named in checks failed there; never at a skipped angle."""
        failed = np.zeros_like(self.skipped)
        for k in checks:
            failed |= np.asarray(self.flags[k]) == "fail"
        return failed & np.logical_not(self.skipped)

    @property
    def status(self) -> np.ndarray:
        return np.where(self.fails(BOUND_KEYS), "fail", "pass")

    def rows(self, json_rows: bool) -> list[str | None]:
        """Each angle's scan row on a grid, None where skipped; constant cells are rendered once."""
        return grid_rows(self, _TEMPLATES[json_rows], json_rows)

    @property
    def overflows(self) -> np.ndarray:
        """Per angle not skipped: whether lambda came out inf or nan."""
        return ~np.isfinite(self.lam) & np.logical_not(self.skipped)


def full_report(
    p: Polynomial,
    theta: float,
    classification: ZeroClassification,
    arc: tuple[float, float | None] | None = None,
    slack: float = CHECK_SLACK,
) -> BoundReport:
    """Evaluate lambda and every applicable bound at the boundary point e^{i theta}.

    Lower bounds apply when all zeros lie in the closed disk; the
    zero-free upper bound applies when none lie in the open disk, both
    read from `classification`, that of p's zeros.  The
    arc bound is only evaluated when `arc = (alpha, beta)` is supplied
    (beta = None means: use the measured increment).  Bounds whose
    hypothesis fails are reported with flag "na" rather than "fail".
    """
    z = circle_point(theta)
    speed = rotation_speed(p, z)
    lam = 2.0 * speed - p.degree
    tol = slack * max(1.0, abs(lam))

    bounds = dict.fromkeys(BOUND_KEYS)
    margins = dict.fromkeys(BOUND_KEYS)
    flags = dict.fromkeys(BOUND_KEYS, "na")

    def record(key, value, margin):
        bounds[key] = value
        margins[key] = margin
        flags[key] = "na" if margin is None else "pass" if margin >= -tol else "fail"

    lower_ok = not classification.outside
    for key, value in _lower_bounds(p.endpoints, bound_value(p, z, lam)):
        record(key, value, lam - value if lower_ok and math.isfinite(value) else None)

    if arc is not None:
        try:
            value = bound_arc(theta, *arc, classification)
            record("arc_thm3", value, value - lam)
        except HypothesisViolated:
            pass

    if not classification.inside:
        value = bound_zero_free(p.endpoints, p.degree)
        record("upper_zero_free", value, value - speed)

    return BoundReport(theta, speed, lam, bounds, margins, flags)


def grid_report(poly: Polynomial | RootForm, thetas: list[float], arc: tuple[float, float | None] | None,
                slack: float, classification: ZeroClassification) -> BoundReport:
    """`full_report` at every angle of thetas in one array pass; each theta-free bound and `arc_increment` runs once.

    A Polynomial is `full_report` bit for bit, from its coefficients (`boundary_grid`).  A RootForm, band-snapped
    by the caller, is never expanded: the speed, P(z) and the zero guard come from its zeros (`root_grid`), and
    the coefficient bounds from its `endpoints`, by Vieta's relations.
    """
    z, vr, vi, speed, skipped = (root_grid(poly, thetas) if isinstance(poly, RootForm)
                                 else boundary_grid(poly.coeffs, poly.coeff_scale, thetas))
    ends, n = poly.endpoints, poly.degree
    angles = np.asarray(thetas, dtype=float)
    bounds, margins, flags = dict.fromkeys(BOUND_KEYS), dict.fromkeys(BOUND_KEYS), dict.fromkeys(BOUND_KEYS, "na")
    arc_value = None
    if arc is not None:
        if arc[1] is not None and not 0.0 < arc[1] < math.pi:
            raise ValueError("beta must lie in (0, pi)")
        arc_value = np.full(len(thetas), math.nan)  # nan where the arc hypothesis fails
        live = np.flatnonzero(~skipped)
        with contextlib.suppress(HypothesisViolated):
            measured = arc_increment(angles[live], arc[0], classification).tolist()
            arc_value[live] = [_arc_value(x, *arc) for x in measured]

    # inf and nan arise silently, as in boundary_grid; arc_increment above keeps its own numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = 2.0 * speed - n
        neg_tol = -(slack * np.fmax(1.0, np.abs(lam)))  # fmax, like max(1.0, x), ignores a nan x

        def record(key, value, margin, applies):
            bounds[key] = value
            flag = np.where(margin >= neg_tol, "pass", "fail")
            if np.ndim(applies) == 0 and applies:  # one verdict of applicability for every angle
                margins[key], flags[key] = margin, flag
            elif np.ndim(applies) and applies.any():
                margins[key], flags[key] = np.where(applies, margin, math.nan), np.where(applies, flag, "na")

        # bound_value's operations in its order; z**n is a Python scalar per angle
        c0, lead_zn = ends[0].conjugate(), np.array([ends[-1] * w**n for w in z.tolist()])
        wr, wi = c_quot(*c_mul(c0.real, c0.imag, vr, vi), *c_mul(lead_zn.real, lead_zn.imag, vr, -vi))
        # A real factor scales both parts: for finite w that is CPython's (lam + 1, 0) * w but for the sign of a zero.
        value_thm1 = np.hypot((lam + 1.0) * wr - 1.0, (lam + 1.0) * wi)

        lower_ok = not classification.outside
        for key, value in _lower_bounds(ends, value_thm1):
            record(key, value, lam - value, lower_ok & np.isfinite(value))
        if arc_value is not None:
            record("arc_thm3", arc_value, arc_value - lam, ~np.isnan(arc_value))
        if not classification.inside:
            value = bound_zero_free(ends, n)
            record("upper_zero_free", value, value - speed, True)

    return BoundReport(angles, speed, lam, bounds, margins, flags, skipped)
