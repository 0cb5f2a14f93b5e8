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

import numpy as np

from .errors import HypothesisViolated
from .poly import cross_modulus, modulus, pow2, product_modulus
from .tolerances import CHECK_SLACK


def check_mercer_remark(ends: tuple, in_closed_disk) -> tuple:
    """(margin, passed) of Mercer's remark |c1 conj(cn) - c0 conj(c_{n-1})| <= |cn|^2 - |c0|^2.

    ends = (c0, c1, c_{n-1}, cn) are the `endpoints` of P, or of many forms as arrays, one value per form
    (`RootBatch.endpoints`); in_closed_disk says that P has no zero outside the closed disk, the remark's
    hypothesis, as `bounds.verdict`'s lower_ok says it: `not classification.outside` for a `ZeroClassification`,
    `batch.count(1) == 0` for a `RootBatch`.  Raises HypothesisViolated where any form fails it.
    """
    if not np.all(in_closed_disk):
        raise HypothesisViolated("zeros outside the closed unit disk")
    c0, c1, cm, cn = ends
    an2 = pow2(modulus(cn))
    scale = np.maximum(np.maximum(an2, product_modulus(c1, cn)), product_modulus(c0, cm))
    margin = an2 - pow2(modulus(c0)) - cross_modulus(ends)
    return margin, margin >= -CHECK_SLACK * scale
