"""Independent finite-difference oracle for boundary arguments.

Everything here works directly on sampled values of arg P(e^{i theta})
with explicit phase unwrapping; beyond the Horner value loop it shares
no code with the analytic rotation-speed formula it cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArcContainsRoot, UnwrapAmbiguity
from .poly import Polynomial, guard_zero, horner
from .roots import ZeroClassification
from .tolerances import ARC_EDGE_SLACK, ARC_REFINEMENTS, ARC_SAMPLES, PHASE_STEP_LIMIT, ZERO_PROXIMITY_REL


def _wrap_pi(d: float) -> float:
    """Shift into (-pi, pi]."""
    w = math.fmod(d + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _wrap_pi_array(d: np.ndarray) -> np.ndarray:
    w = np.mod(d + np.pi, 2.0 * np.pi)
    return np.where(w == 0.0, np.pi, w - np.pi)


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


def arc_increment(p: Polynomial, theta0: float, alpha: float, classification: ZeroClassification) -> float:
    """Sup of |increment of 2 arg P(z) - n arg z| from the arc center to any arc point.

    The arc is open, of half-width alpha, centered at e^{i theta0}.

    The tracked quantity is continuous on a zero-free arc, so the sup over
    curves ending at the center reduces to the sup over endpoints; it is
    measured by continuous phase tracking on a dense grid, refined until
    successive phase jumps stay below pi/2.

    Raises ValueError when alpha lies outside (0, pi), ArcContainsRoot
    when a zero lies on the open arc (detected by `classification`, that
    of p's zeros, or by the |P| guard at an interior sample), and
    UnwrapAmbiguity when refinement cannot tame the phase jumps.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    for r in classification.on_circle:
        dist = abs(_wrap_pi(math.atan2(r.imag, r.real) - theta0))
        if dist < alpha - ARC_EDGE_SLACK:
            raise ArcContainsRoot(f"zero at angle distance {dist:.6f} inside the open arc")

    n = p.degree
    guard = ZERO_PROXIMITY_REL * p.coeff_scale

    best = 0.0
    for sign in (1.0, -1.0):
        n_samp = ARC_SAMPLES
        for attempt in range(ARC_REFINEMENTS + 1):
            t = alpha * np.arange(n_samp + 1) / n_samp
            z = np.exp(1j * (theta0 + sign * t))
            vals = horner(p.coeffs, z)
            mags = np.abs(vals)
            if np.any(mags[:-1] <= guard):
                raise ArcContainsRoot("|P| fell below the zero-proximity guard inside the arc")
            m = n_samp + 1 if mags[-1] > guard else n_samp
            diffs = _wrap_pi_array(np.diff(np.angle(vals[:m])))
            if diffs.size and np.max(np.abs(diffs)) >= PHASE_STEP_LIMIT:
                if attempt == ARC_REFINEMENTS:
                    raise UnwrapAmbiguity(
                        f"phase step >= pi/2 at {n_samp} samples; the arc cannot be tracked reliably"
                    )
                n_samp *= 2
                continue
            g = 2.0 * np.concatenate(([0.0], np.cumsum(diffs))) - n * sign * t[:m]
            best = max(best, float(np.max(np.abs(g))))
            break
    return best
