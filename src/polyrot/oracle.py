"""Oracles for boundary arguments, independent of the analytic rotation speed.

`arg_derivative_fd` differences sampled values of arg P(e^{i theta});
beyond the Horner value loop it shares no code with the rotation-speed
formula it cross-checks.  `arc_increment` sums the closed-form increment
of arg(z - a) over the classified zeros a of P at the two arc ends, which
holds the sup when every zero lies in the closed unit disk.
"""

from __future__ import annotations

import math

from .errors import ArcContainsRoot, HypothesisViolated
from .poly import Polynomial, circle_point, guard_zero
from .roots import ZeroClassification
from .tolerances import ARC_EDGE_SLACK


def _wrap_pi(d: float) -> float:
    """Shift into (-pi, pi]."""
    w = math.fmod(d + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def arg_derivative_fd(p: Polynomial, theta: float, h: float = 1e-5) -> float:
    """Central difference of arg P(e^{i theta}) with the step wrapped into (-pi, pi].

    Second-order accurate; at h = 1e-5 it agrees with the analytic
    rotation speed to about eight digits away from zeros of P.  Raises
    ZeroProximity when any point of the stencil is zero proximate.
    """
    if not (0.0 < h <= 1e-2):
        raise ValueError("step h must lie in (0, 1e-2]")
    vals = [p(complex(math.cos(t), math.sin(t))) for t in (theta - h, theta, theta + h)]
    for v in vals:
        guard_zero(v, p.coeff_scale)
    d = _wrap_pi(math.atan2(vals[2].imag, vals[2].real) - math.atan2(vals[0].imag, vals[0].real))
    return d / (2.0 * h)


def _endpoint_increment(inside: tuple[complex, ...], theta0: float, t: float) -> float:
    """The increment from e^{i theta0} to e^{i (theta0 + t)} in Python floats, for zeros in the open disk."""
    z0, z1 = circle_point(theta0), circle_point(theta0 + t)
    terms = []
    for a in inside:
        u0, v0, u1, v1 = z0.real - a.real, z0.imag - a.imag, z1.real - a.real, z1.imag - a.imag
        d = math.atan2(v1 * u0 - u1 * v0, u1 * u0 + v1 * v0)  # arg((z1 - a) / (z0 - a)), as arg((z1 - a) conj(z0 - a))
        if d * t < 0.0:  # arg(z - a) increases along the circle, so the step has the sign of t
            d += math.copysign(2.0 * math.pi, t)
        terms.append(2.0 * d - ((theta0 + t) - theta0))
    return math.fsum(terms)


def arc_increment(p: Polynomial, theta0: float, alpha: float, classification: ZeroClassification) -> float:
    """Sup of |increment of 2 arg P(z) - n arg z| from the arc center to any arc point.

    The arc is open, of half-width alpha, centered at e^{i theta0}; `classification` is that of p's zeros.
    The increment to z1 = e^{i (theta0 + t)} is the sum over the zeros a of 2 darg(z - a) - t, where darg
    is the principal argument of (z1 - a) / (z0 - a).  arg(z - a) strictly increases for a zero inside
    the disk, so its darg is moved into (0, 2 pi) forward and (-2 pi, 0) backward; it exceeds pi for a
    zero between the chord and the arc.  A zero in the on-circle band adds exactly 0.  Each term's
    t-derivative is its zero's Poisson term (1 - |a|^2) / |z - a|^2 >= 0, so under the paper's
    hypothesis, every zero in the closed unit disk, the sup sits at t = +-alpha and is evaluated there
    alone, in Python floats.

    Raises ValueError when alpha lies outside (0, pi), HypothesisViolated when a zero lies outside the
    closed disk, and ArcContainsRoot when an on-circle zero lies on the open arc.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    for r in classification.on_circle:
        dist = abs(_wrap_pi(math.atan2(r.imag, r.real) - theta0))
        if dist < alpha - ARC_EDGE_SLACK:
            raise ArcContainsRoot(f"zero at angle distance {dist:.6f} inside the open arc")
    if classification.outside:
        raise HypothesisViolated("zeros outside the closed unit disk")
    inside = classification.inside
    assert len(inside) + len(classification.on_circle) == p.degree
    return max(abs(_endpoint_increment(inside, theta0, sign * alpha)) for sign in (1.0, -1.0))
