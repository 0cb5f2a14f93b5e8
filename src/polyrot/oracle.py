"""Oracles for boundary arguments, independent of the analytic rotation speed.

`arg_derivative_fd` differences sampled values of arg P(e^{i theta});
beyond the Horner value loop it shares no code with the rotation-speed
formula it cross-checks.  `arg_derivative_fd_batch` takes central
differences from the zeros of many root forms at once, one angle each, at
two steps, and extrapolates them (Richardson).
`arc_increment` sums the closed-form increment of arg(z - a) over the
classified zeros a of P at the two arc ends, which holds the sup when
every zero lies in the closed unit disk.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ArcContainsRoot, HypothesisViolated
from .poly import Polynomial, RootBatch, circle_points, guard_zero, row_sum
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


FD_BATCH_STEP = 1e-5  # h, the larger of the two steps of `arg_derivative_fd_batch`


@np.errstate(over="ignore", invalid="ignore")  # as in root_batch: a zero past 1e154 squares to inf silently
def arg_derivative_fd_batch(batch: RootBatch, thetas: Sequence[float]) -> np.ndarray:
    """The speed from the zeros, at one angle per form of batch (thetas[k] for form k), by central differences of
    arg P at the steps h = `FD_BATCH_STEP` and h/2, extrapolated: (4 D(h/2) - D(h))/3 (Richardson).

    The step of arg P from z- = e^{i (theta - t)} to z+ = e^{i (theta + t)} is the sum over the zeros a of the
    principal argument of (z+ - a) conj(z- - a) = e^{i t} (x + i y), with z = e^{i theta} and

        x = |z - a|^2 - (1 + |a|^2) 2 sin^2(t/2),   y = (1 - |a|^2) sin t,

    that is t + atan2(y, x), wrapped into (-pi, pi]; the leading coefficient adds none.  1 - |a|^2 is the batch's
    `rho`.  Divided by 2t, the steps give D(t) = n/2 plus the sum of atan2(y, x)/(2t).  A zero in the
    on-circle band, whose `rho` is 0, adds exactly 1/2 and takes no atan2: arg(z - a) turns at half the rate
    of z along the circle, but for a jump of pi at a itself, which a stencil lying across a (y = 0, x < 0; a
    uniform angle can fall within t of a) would measure.  No difference of two nearby angles is taken.  D(t) is
    the speed plus c t^2 plus O(t^4): the extrapolation cancels the t^2 term, the plain difference's truncation
    error.  The steps are summed one zero row at a time (`row_sum`), as `root_batch` sums its terms, so a form's
    value is the same alone as in any batch.  It shares no code with `root_batch`'s speed.  There is no zero guard.
    """
    z = circle_points(thetas)
    dr, di = z.real - batch.re, z.imag - batch.im
    off_band = batch.live & (batch.sides != 0)
    d2, rho = (dr * dr + di * di)[off_band], batch.rho[off_band]  # each zero off the band, read once
    one_plus = 2.0 - rho  # 1 + |a|^2

    def excess(t: float) -> np.ndarray:
        """D(t) - n/2."""
        s = math.sin(0.5 * t)
        x = d2 - one_plus * (2.0 * (s * s))  # x x: CPython's x ** 2 is C pow, not always x x
        y = rho * math.sin(t)
        flat = np.array(list(map(math.atan2, y.tolist(), x.tolist())))  # C atan2 on every CPU
        flat[flat > math.pi - t] -= 2.0 * math.pi  # t + atan2 past pi: the principal argument is 2 pi lower
        steps = np.zeros(batch.re.shape)
        steps[off_band] = flat
        return row_sum(steps) / (2.0 * t)

    return 0.5 * batch.degree + (4.0 * excess(0.5 * FD_BATCH_STEP) - excess(FD_BATCH_STEP)) / 3.0


def _endpoint_increments(inside: tuple[complex, ...], centers: np.ndarray, z0: np.ndarray, t: float) -> np.ndarray:
    """Each center's increment from z0 to e^{i (theta0 + t)}, zeros in the open disk, as a lone center's bits."""
    if not inside:
        return np.zeros(len(centers))
    z1 = circle_points((centers + t).tolist())[:, None]
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
    z0 = circle_points(centers.tolist())[:, None]
    inc = np.maximum(*(np.abs(_endpoint_increments(inside, centers, z0, sign * alpha)) for sign in (1.0, -1.0)))
    inc[on_arc.any(axis=1)] = math.nan
    return float(inc[0]) if np.ndim(theta0) == 0 else inc
