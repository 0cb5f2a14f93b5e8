"""Oracles for boundary arguments, independent of the analytic rotation speed.

`arg_derivative_fd` differences sampled values of arg P(e^{i theta});
beyond the Horner value loop it shares no code with the rotation-speed
formula it cross-checks.  `arc_increment` sums the closed-form increment
of arg(z - a) over the classified zeros a of P at the two arc ends, which
holds the sup when every zero lies in the closed unit disk.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArcContainsRoot, HypothesisViolated
from .poly import Polynomial, circle_point, guard_zero
from .roots import ZeroClassification
from .tolerances import ARC_EDGE_SLACK


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
    w = math.fmod(math.atan2(vals[2].imag, vals[2].real) - math.atan2(vals[0].imag, vals[0].real) + math.pi,
                  2.0 * math.pi)
    return ((w if w > 0.0 else w + 2.0 * math.pi) - math.pi) / (2.0 * h)  # the step wrapped into (-pi, pi]


def _endpoint_increments(inside: tuple[complex, ...], centers: np.ndarray, z0: np.ndarray, t: float) -> np.ndarray:
    """Each center's increment from z0 to e^{i (theta0 + t)}, zeros in the open disk, as a lone center's bits."""
    if not inside:
        return np.zeros(len(centers))
    z1 = np.fromiter(map(circle_point, (centers + t).tolist()), complex, len(centers))[:, None]
    a = np.asarray(inside, dtype=complex)
    u0, v0, u1, v1 = z0.real - a.real, z0.imag - a.imag, z1.real - a.real, z1.imag - a.imag
    y, x = v1 * u0 - u1 * v0, u1 * u0 + v1 * v0  # arg((z1 - a) / (z0 - a)), as arg((z1 - a) conj(z0 - a))
    d = np.fromiter(map(math.atan2, y.ravel().tolist(), x.ravel().tolist()), float, y.size).reshape(y.shape)
    d = np.where(d * t < 0.0, d + math.copysign(2.0 * math.pi, t), d)  # arg(z - a) increases along the circle
    terms = 2.0 * d - ((centers + t) - centers)[:, None]
    return np.fromiter(map(math.fsum, terms.tolist()), float, len(centers))


def arc_increment(theta0, alpha: float, classification: ZeroClassification):
    """Sup of |increment of 2 arg P(z) - n arg z| from the arc center to any arc point, at one center or many.

    The arc is open, of half-width alpha, centered at e^{i theta0}; `classification` is that of P's zeros.
    The increment to z1 = e^{i (theta0 + t)} is the sum over the zeros a of 2 darg(z - a) - t, where darg
    is the principal argument of (z1 - a) / (z0 - a).  arg(z - a) strictly increases for a zero inside
    the disk, so its darg is moved into (0, 2 pi) forward and (-2 pi, 0) backward; it exceeds pi for a
    zero between the chord and the arc.  A zero in the on-circle band adds exactly 0.  Each term's
    t-derivative is its zero's Poisson term (1 - |a|^2) / |z - a|^2 >= 0, so under the paper's
    hypothesis, every zero in the closed unit disk, the sup sits at t = +-alpha and is evaluated there
    alone, in Python floats.  theta0 is one center (a float) or an array of them (an array, bit for bit).

    Raises ValueError when alpha lies outside (0, pi), HypothesisViolated when a zero lies outside the
    closed disk, and ArcContainsRoot when an on-circle zero lies on the open arc (nan for an array's center).
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    centers = np.atleast_1d(np.asarray(theta0, dtype=float))
    angles = np.array([math.atan2(r.imag, r.real) for r in classification.on_circle])  # each zero's, once
    w = np.fmod(angles - centers[:, None] + math.pi, 2.0 * math.pi)  # wrapped into (-pi, pi], as in the fd oracle
    dist = np.abs(np.where(w > 0.0, w, w + 2.0 * math.pi) - math.pi)
    on_arc = dist < alpha - ARC_EDGE_SLACK
    if np.ndim(theta0) == 0 and on_arc.any():
        raise ArcContainsRoot(f"zero at angle distance {dist[on_arc][0]:.6f} inside the open arc")
    if classification.outside:
        raise HypothesisViolated("zeros outside the closed unit disk")
    inside = classification.inside
    z0 = np.fromiter(map(circle_point, centers.tolist()), complex, len(centers))[:, None]
    inc = np.maximum(*(np.abs(_endpoint_increments(inside, centers, z0, sign * alpha)) for sign in (1.0, -1.0)))
    inc[on_arc.any(axis=1)] = math.nan
    return float(inc[0]) if np.ndim(theta0) == 0 else inc
