"""Root finding and zero-location classification.

The zeros of coefficient input are the eigenvalues of its companion matrix
(`numpy.roots`, LAPACK's balanced QR), which are backward stable in the
coefficients; one Newton step in Python complex then sharpens each.  The
bound checks only consume the partition of zeros into inside / on /
outside the unit circle and the arc increment.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence
from .poly import Polynomial, ZeroClassification, horner_pair, read_zero
from .tolerances import RESIDUAL_TOL


def find_roots(p: Polynomial) -> list[complex]:
    """All zeros of p, with multiplicity, sorted by (real, imag).

    Companion-matrix eigenvalues of the monic coefficients, each moved by
    one Newton step.  Raises NonConvergence when the eigenvalue iteration
    fails, a zero is not finite, or a residual |P(z)| is not finite or
    exceeds RESIDUAL_TOL * sum|c_k| * max(1, |z|)^m, m the degree.
    """
    lead = p.leading
    monic = [c / lead for c in p.coeffs]
    abs_sum = sum(abs(c) for c in monic)
    m = p.degree
    try:
        eigenvalues = np.roots(monic[::-1]).tolist()
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"root solve failed: {exc}") from None
    roots = []
    for z in map(complex, eigenvalues):
        val, der = horner_pair(monic, z)
        if der:
            z -= val / der
        if not cmath.isfinite(z):
            raise NonConvergence(f"root solve gave a non-finite zero {z}")
        residual = abs(horner_pair(monic, z)[0])
        try:
            bound = RESIDUAL_TOL * abs_sum * max(1.0, abs(z)) ** m
        except OverflowError:  # the bound is past the double range: any finite residual is below it
            bound = math.inf
        if not (math.isfinite(residual) and residual <= bound):
            raise NonConvergence(f"root solve left a residual above RESIDUAL_TOL at {z}")
        roots.append(z)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def classify_root_list(roots) -> ZeroClassification:
    """The zeros partitioned as `read_zero` reads them, those of the on-circle band moved onto the circle."""
    return ZeroClassification.of(map(read_zero, map(complex, roots)))


def classify_zeros(p: Polynomial) -> ZeroClassification:
    """Solve for the zeros of p and partition them: for input that comes without its zeros, never a root form."""
    return classify_root_list(find_roots(p))
