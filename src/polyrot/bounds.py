"""Lower and upper bounds for the boundary rotation of a polynomial.

All lower bounds are stated for the normalized excess rotation

    lambda(theta) = 2 (arg P(e^{i theta}))'_theta - n,

which is nonnegative whenever every zero of P lies in the closed unit
disk.  Each bound function returns the right-hand side on that scale.
`BOUNDS` is the one list of the bounds, in the order of a scan row's
columns; the row schema, `scan --checks`, `verdict` and fuzz's tally read it.
One gate, `verdict`, turns the bounds into signed margins and flags: a
bound is "na" where its hypothesis fails, and passes where its margin is
at least -slack max(1, |lambda|).  `full_report` calls it at one boundary
point, `grid_report` on a grid of angles and fuzz on a chunk of cases.
A coefficient bound reads only (c, t), sqrt_weak the ratio r = |c0/cn| (`Polynomial.ct`, `RootForm.ct`).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated
from .oracle import arc_increment
from .poly import (Polynomial, RootForm, boundary_grid, c_mul, c_pow, c_quot, circle_point, conj_product, guard_zero,
                   root_grid, rotation_speed)
from .report import ScanRows, row_template
from .roots import ZeroClassification
from .tolerances import ARC_INCREMENT_SLACK, CHECK_SLACK, EQUAL_MODULUS_REL


# The bounds, in row order: each bound's key and the name fuzz tallies it under (None: fuzz does not tally it yet).
BOUNDS = {"classic": "lambda_nonneg", "coeff": "coeff", "sqrt_weak": "sqrt_weak", "value_thm1": "value",
          "coeff2_thm2": "coeff2", "arc_thm3": None, "upper_zero_free": "upper_zero_free"}


def _where(cond, a, b):
    """np.where on arrays; at a point, the value chosen."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else a if cond else b


# Each theta-free bound reads ct = (c, t, r): floats at a point, or arrays, one value per form (`RootBatch.ct`),
# with the same bits.  A denominator is moved off 0 where _where does not take its quotient, so neither divides by 0.
def bound_coeff(ct: tuple):
    """Endpoint-coefficient lower bound c = (|cn| - |c0|) / (|cn| + |c0|): in [0, 1] when all zeros lie in the closed
    disk, 0 exactly when |c0| = |cn| and 1 when c0 = 0."""
    return ct[0]


def bound_sqrt_weak(ct: tuple):
    """Weaker variant 1 - sqrt(r), r = |c0| / |cn| = (1 - c)/(1 + c) before c rounds, kept for comparison: 1 where
    c0 = 0, -inf where r overflows."""
    return 1.0 - np.sqrt(ct[2])


def bound_value(p: Polynomial, z: complex, lam: float) -> float:
    """Value-refined lower bound |(lambda + 1) * conj(c0) P(z) / (cn z^n conj(P(z))) - 1| at z = `circle_point(theta)`.

    Uses the boundary value of P itself, so it varies with theta; for
    zeros-in-disk inputs lambda dominates it.
    """
    val = p(z)
    guard_zero(val, p.coeff_scale)
    c0, cn, _ = p.ends  # scaled alike, so that neither product of two of P's sizes underflows
    w = c0.conjugate() * val / (cn * z**p.degree * val.conjugate())
    return abs((lam + 1.0) * w - 1.0)


def coefficient_w(p: Polynomial, z, vr, vi):
    """`bound_value`'s w = conj(c0) P(z) / (cn z^n conj(P(z))) on arrays, in its operations and order, at the points
    z with P(z) = vr + i vi.  cn z^n is each point's Python product (`c_pow`).  No guard: the caller skips where
    P(z) vanishes."""
    c0, cn, _ = p.ends
    if c0 == 0:  # w = 0, also where cn z^n conj(P(z)) underflows
        return np.zeros(len(z)), np.zeros(len(z))
    lead_zn = c_mul(cn.real, cn.imag, *c_pow(z.real, z.imag, p.degree))
    return c_quot(*c_mul(c0.real, -c0.imag, vr, vi), *c_mul(*lead_zn, vr, -vi))


def blaschke_w(s, ur, ui, z, n):
    """A root form's w = s U^2 z^-n at the points z: s = prod (-conj(a)) (`conj_product`), U = ur + i ui the unit
    product prod (z - a)/|z - a|, s and n one form's or one per point.  On the circle this is `coefficient_w` of the
    expansion, the Blaschke product prod conj(a)(a - z)/(1 - conj(a) z), with no cn and no phase of P.  z^-n is
    conj(z)^n (`c_pow`); a zero at the origin makes w = 0."""
    pr, pi = c_pow(z.real, -z.imag, n)
    return c_mul(s.real, s.imag, *c_mul(*c_mul(ur, ui, ur, ui), pr, pi))


def value_refined(wr, wi, lam):
    """The value-refined bound |(lambda + 1) w - 1| on arrays; (lambda + 1) w scales both parts, which for finite w
    is CPython's (lambda + 1, 0) * w but for the sign of a zero."""
    return np.hypot((lam + 1.0) * wr - 1.0, (lam + 1.0) * wi)


def bound_coeff2(ct: tuple):
    """Second coefficient lower bound 2 c^2 / (c + t), that is 2(|c0|-|cn|)^2 / (|cn|^2 - |c0|^2 + |conj(cn) c1 -
    c0 conj(c_{n-1})|).  0 where |c0| and |cn| agree to EQUAL_MODULUS_REL, |c| <= EQUAL_MODULUS_REL (1 + |c|)/2 (all
    zeros on the circle); nan where c + t <= 0, outside the hypothesis, which the caller gates off."""
    c, t = ct[:2]
    d = c + t
    value = _where(d > 0.0, 2.0 * (c * c) / _where(d > 0.0, d, 1.0), math.nan)
    return _where(abs(c) <= EQUAL_MODULUS_REL * 0.5 * (1.0 + abs(c)), 0.0, value)


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


def bound_zero_free(ct: tuple, degree):
    """Upper bound n/2 + c/2 = n/2 + (|cn| - |c0|) / (2(|cn| + |c0|)) on the rotation speed.  Valid when no zero lies
    in the open unit disk: the reversed-conjugate polynomial then has all its zeros in the closed disk, and c <= 0.
    `verdict` applies the hypothesis gate."""
    return 0.5 * degree + 0.5 * bound_coeff(ct)


def lower_bounds(ct: tuple, value_thm1) -> dict:
    """The value of each lower bound, keyed by its `BOUNDS` key; value_thm1 is the one that varies with theta."""
    return {"classic": 0.0, "coeff": bound_coeff(ct), "sqrt_weak": bound_sqrt_weak(ct), "value_thm1": value_thm1,
            "coeff2_thm2": bound_coeff2(ct)}


# A scan row, as data: the JSON row with a column name at each leaf, and the CSV header name of each column.
_JSON_ROW = {"theta": "theta", "lambda": "lam", **{g: {k: f"{g}.{k}" for k in BOUNDS}
                                                   for g in ("bounds", "margins", "flags")}, "status": "status"}
_CSV_ROW = {"theta": "theta", "lambda": "lam", **{k: f"bounds.{k}" for k in BOUNDS}, "status": "status"}


@dataclass(frozen=True)
class BoundReport(ScanRows):
    """Every applicable bound at one boundary point, or at every angle of a grid, with margins and flags.

    Margin conventions: lower bounds report lambda - bound, the two upper
    bounds report bound - lambda (arc) and bound - rotation speed
    (zero-free).  A flag is "pass" / "fail" for applicable bounds and
    "na" when the hypothesis does not hold or the bound was not requested.
    `speed` is the rotation speed behind lambda = 2 speed - n.

    `verdict` builds it.  At a point (`full_report`) every field is a scalar and a margin that does not apply is
    None.  On a grid (`grid_report`) theta, speed, lam and `skipped` are arrays over the angles, each value in
    bounds, margins and flags is an array or one value for all of them, and a margin that does not apply at an
    angle reads nan; a skipped angle has no verdict.
    """

    CSV_HEADER = ",".join(_CSV_ROW)
    TEMPLATES = {json_rows: row_template(_JSON_ROW, _CSV_ROW.values(), json_rows) for json_rows in (False, True)}
    VALUE = "lam"

    theta: float | np.ndarray
    speed: float | np.ndarray
    lam: float | np.ndarray
    bounds: dict
    margins: dict
    flags: dict
    skipped: bool | np.ndarray = False

    @functools.cached_property
    def fail_masks(self) -> dict:
        """Per bound: where its flag reads "fail", each flag compared once however often the masks are read."""
        return {k: flag == "fail" for k, flag in self.flags.items()}


@np.errstate(over="ignore", invalid="ignore")  # inf and nan arise silently, as in boundary_grid
def verdict(theta, speed, lam, lower, arc, zero_free, lower_ok, upper_ok, slack: float,
            skipped=False) -> BoundReport:
    """The one gate of the polynomial bounds, at a point or on arrays over a grid's angles or a fuzz chunk's cases.

    lower maps lower bound keys to their values (`lower_bounds`), arc is the arc bound (nan where its hypothesis
    fails) and zero_free the zero-free bound; lower_ok and upper_ok say where all zeros lie in the closed disk and
    where none lie in the open disk.  A key missing from lower, or None for arc or zero_free, leaves that bound out.
    A bound applies where its hypothesis holds and, for a lower bound, its value is finite; elsewhere it is "na"
    with a nan margin (None if it applies nowhere).  Where it applies it passes when its margin is at least
    -slack max(1, |lam|), and fails otherwise, a nan margin included.  The report's bounds, margins and flags hold
    every key of `BOUNDS`, in its order; at a point each flag is a Python str.
    """
    bounds, margins, flags = dict.fromkeys(BOUNDS), dict.fromkeys(BOUNDS), dict.fromkeys(BOUNDS, "na")
    neg_tol = -(slack * np.fmax(1.0, np.abs(lam)))  # fmax, like max(1.0, x), ignores a nan x
    checks = [(key, value, lam - value, lower_ok & np.isfinite(value)) for key, value in lower.items()]
    if arc is not None:
        checks.append(("arc_thm3", arc, arc - lam, ~np.isnan(arc)))
    if zero_free is not None:
        checks.append(("upper_zero_free", zero_free, zero_free - speed, upper_ok))
    for key, value, margin, applies in checks:
        bounds[key] = value
        applies = np.asarray(applies)
        if applies.any():
            flag = np.where(margin >= neg_tol, "pass", "fail")
            if not applies.all():
                margin, flag = np.where(applies, margin, math.nan), np.where(applies, flag, "na")
            margins[key], flags[key] = margin, flag
    if np.ndim(lam) == 0:
        flags = {k: str(v) for k, v in flags.items()}
    return BoundReport(theta, speed, lam, bounds, margins, flags, skipped)


def full_report(
    p: Polynomial,
    theta: float,
    classification: ZeroClassification,
    arc: tuple[float, float | None] | None = None,
    slack: float = CHECK_SLACK,
) -> BoundReport:
    """Evaluate lambda and every applicable bound at the boundary point e^{i theta}, gated by `verdict`.

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
    lower = lower_bounds(p.ct, bound_value(p, z, lam))
    arc_value = None
    if arc is not None:
        with contextlib.suppress(HypothesisViolated):
            arc_value = bound_arc(theta, *arc, classification)
    zero_free = None if classification.inside else bound_zero_free(p.ct, p.degree)
    return verdict(theta, speed, lam, lower, arc_value, zero_free, not classification.outside,
                   not classification.inside, slack)


def grid_report(poly: Polynomial | RootForm, thetas: list[float], arc: tuple[float, float | None] | None,
                slack: float, classification: ZeroClassification) -> BoundReport:
    """`full_report` at every angle of thetas in one array pass; each theta-free bound and `arc_increment` runs once.

    A Polynomial is `full_report` bit for bit, from its coefficients (`boundary_grid`, `coefficient_w`).  A RootForm
    is taken as built, never expanded: the speed, the guard, w (`root_grid`, `blaschke_w`) and (c, t) come from its
    zeros, each as the band rule reads it (`read_zero`).
    """
    n = poly.degree
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan arise silently, as in the kernels
        if isinstance(poly, RootForm):
            z, ur, ui, speed, skipped = root_grid(poly, thetas)
            w = blaschke_w(conj_product([a for _, a, _ in poly.readings]), ur, ui, z, n)
        else:
            z, vr, vi, speed, skipped = boundary_grid(poly.coeffs, poly.coeff_scale, thetas)
            w = coefficient_w(poly, z, vr, vi)
        lam = 2.0 * speed - n
        value_thm1 = value_refined(*w, lam)
    angles = np.asarray(thetas, dtype=float)
    arc_value = None
    if arc is not None:
        if arc[1] is not None and not 0.0 < arc[1] < math.pi:
            raise ValueError("beta must lie in (0, pi)")
        arc_value = np.full(len(thetas), math.nan)  # nan where the arc hypothesis fails
        live = np.flatnonzero(~skipped)
        with contextlib.suppress(HypothesisViolated):
            measured = arc_increment(angles[live], arc[0], classification).tolist()
            arc_value[live] = [_arc_value(x, *arc) for x in measured]
    zero_free = None if classification.inside else bound_zero_free(poly.ct, n)
    return verdict(angles, speed, lam, lower_bounds(poly.ct, value_thm1), arc_value, zero_free,
                   not classification.outside, not classification.inside, slack, skipped)
