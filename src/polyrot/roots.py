"""Simultaneous root finding and zero-location classification.

An Aberth-Ehrlich iteration updates all root approximations at once; it
converges cubically on simple roots and degrades gracefully to clusters,
which is all the bound checks need (they only consume the partition of
zeros into inside / on / outside the unit circle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NonConvergence
from .poly import Polynomial, horner, horner_pair
from .tolerances import CONVERGENCE_TOL, MAX_ITERATIONS, ON_CIRCLE_TOL, RESIDUAL_TOL

# Irrational angular offset for the initial guesses; avoids symmetric
# stagnation on polynomials with rotational symmetry.
_ANGLE_OFFSET = math.sqrt(2.0) / 2.0


def find_roots(p: Polynomial) -> list[complex]:
    """All zeros of p, with multiplicity, in a deterministic order.

    Zeros at the origin are deflated exactly first; the remaining monic
    polynomial is solved by the Aberth-Ehrlich simultaneous iteration
    started on a circle of radius (1 + max|c_k/c_n|)^{1/2}.

    Raises NonConvergence when the iteration stalls and the residuals do
    not meet even the cluster-relaxed acceptance threshold.
    """
    lead = p.leading
    monic = [c / lead for c in p.coeffs]

    # Exact deflation of origin zeros keeps clusters at 0 out of the iteration.
    scale = max(abs(c) for c in monic)
    origin = 0
    while len(monic) > 1 and abs(monic[0]) <= 1e-15 * scale:
        monic.pop(0)
        origin += 1
    roots: list[complex] = [0j] * origin
    m = len(monic) - 1
    if m == 0:
        return roots

    # Residuals are judged against sum|c_k| * max(1, |z|)^m, a bound on the
    # roundoff of evaluating the monic polynomial at z.
    abs_sum = sum(abs(c) for c in monic)
    radius = math.sqrt(1.0 + max(abs(c) for c in monic[:-1]))
    zs = [radius * cmath.exp(1j * (2.0 * math.pi * j / m + _ANGLE_OFFSET)) for j in range(m)]

    # A solve whose iterates blow up past the double range has failed too.
    # The sweep is Gauss-Seidel: zs[j] is updated in place, so later j see it.
    # Each root must stay bit for bit what the reference loop in
    # tests/test_roots.py gives: change no floating-point operation or its order.
    try:
        for iterations in range(1, MAX_ITERATIONS + 1):
            movement = 0.0
            residual_ok = True
            for j in range(m):
                zj = zs[j]
                val, der = horner_pair(monic, zj)
                r = abs(zj)
                # evaluated at every j: its ** m is where an overflowing solve raises
                if abs(val) > 1e-14 * (abs_sum * (r if r > 1.0 else 1.0) ** m):
                    residual_ok = False
                if val == 0:
                    continue
                if der == 0:
                    # saddle point of |P|: nudge off it and retry next sweep
                    zs[j] = zj * (1.0 + 1e-6) + 1e-6
                    movement = max(movement, 1e-6)
                    continue
                newton = val / der
                s = 0j
                for zk in zs[:j] + zs[j + 1:]:
                    dz = zj - zk
                    if not dz:
                        dz = 1e-12
                    s += 1.0 / dz
                denom = 1.0 - newton * s
                step = newton if abs(denom) < 1e-300 else newton / denom
                zs[j] = znew = zj - step
                moved = abs(step) / (1.0 + abs(znew))
                if moved > movement:
                    movement = moved
            if residual_ok or movement < CONVERGENCE_TOL:
                break

        # An iteration that stalled with acceptable residuals has met a cluster:
        # clusters are ill conditioned, so accept them at the relaxed threshold
        # and keep the approximations.
        relaxed = RESIDUAL_TOL ** (1.0 / m)
        for z in zs:
            if not cmath.isfinite(z):
                raise NonConvergence(iterations)
            res = abs(horner(monic, z))
            res_scale = abs_sum * max(1.0, abs(z)) ** m
            if res > RESIDUAL_TOL * res_scale and res > relaxed * res_scale:
                raise NonConvergence(iterations)
    except OverflowError:
        raise NonConvergence(iterations) from None

    roots.extend(zs)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


@dataclass(frozen=True)
class ZeroClassification:
    """The zeros partitioned against the unit circle, each part in input order.

    Lower bounds need `not outside` (all zeros in the closed disk), the
    zero-free upper bound needs `not inside` (none in the open disk).
    """

    inside: tuple[complex, ...]
    on_circle: tuple[complex, ...]
    outside: tuple[complex, ...]


def classify_root_list(roots) -> ZeroClassification:
    """The one test of a zero against the on-circle band of width ON_CIRCLE_TOL."""
    inside, on, outside = [], [], []
    for r in map(complex, roots):
        d = abs(r) - 1.0
        if abs(d) <= ON_CIRCLE_TOL:
            on.append(r)
        elif d < 0:
            inside.append(r)
        else:
            outside.append(r)
    return ZeroClassification(tuple(inside), tuple(on), tuple(outside))


def classify_zeros(p: Polynomial) -> ZeroClassification:
    """Solve for the zeros of p and partition them: for input that comes without its zeros, never a root form."""
    return classify_root_list(find_roots(p))
