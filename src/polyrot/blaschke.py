"""Mercer's remark in coefficient form, the one self-map inequality that `fuzz` tallies.

When P has every zero in the closed disk, f(z) = z prod (z - a)/(1 - conj(a) z)
over its interior zeros a has |f'(z)| = lambda + 1 on |z| = 1 away from the
zeros of P, so self-map inequalities read as rotation bounds.  Mercer's remark reads only the endpoint coefficients, and its margin
has the sign of coeff2_thm2 - coeff, which fuzz's report already holds.  It
stays here, under this name, because perfbench/spans.py traces
`blaschke.check_mercer_remark`; the module goes once fuzz tallies that
difference instead.
"""

from __future__ import annotations

from .errors import HypothesisViolated
from .poly import cross_term
from .roots import ZeroClassification
from .tolerances import CHECK_SLACK


def check_mercer_remark(ends: tuple[complex, ...], classification: ZeroClassification) -> tuple[float, bool]:
    """(margin, passed) of Mercer's remark |c1 conj(cn) - c0 conj(c_{n-1})| <= |cn|^2 - |c0|^2.

    ends = (c0, c1, c_{n-1}, cn) are the `endpoints` of P; `classification`,
    that of P's zeros, must put none outside the closed disk.
    """
    if classification.outside:
        raise HypothesisViolated("zeros outside the closed unit disk")
    c0, c1, cm, cn = ends
    scale = max(abs(cn) ** 2, abs(c1 * cn), abs(c0 * cm))
    margin = abs(cn) ** 2 - abs(c0) ** 2 - abs(cross_term(ends))
    return margin, margin >= -CHECK_SLACK * scale
