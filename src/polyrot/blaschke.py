"""Mercer's remark, the one self-map inequality that `fuzz` tallies.

f(z) = z prod (z - a)/(1 - conj(a) z) over the interior zeros a of P has |f'(z)| = lambda + 1 on the circle, so
self-map inequalities read as rotation bounds.  Mercer's remark |c1 conj(cn) - c0 conj(c_{n-1})| <= |cn|^2 - |c0|^2,
over (|cn| + |c0|)^2, is t <= c: its margin has the sign of coeff2_thm2 - coeff.  The module stays while
perfbench/spans.py traces `blaschke.check_mercer_remark`."""

from __future__ import annotations

import numpy as np

from .errors import HypothesisViolated
from .tolerances import CHECK_SLACK


def check_mercer_remark(ct: tuple, in_closed_disk) -> tuple:
    """(margin, passed) of Mercer's remark t <= c: margin c - t, passing at -CHECK_SLACK max(1, t) or above.

    ct = (c, t, r) of P, or arrays of them (`RootBatch.ct`); in_closed_disk says that P has no zero outside the closed
    disk, the remark's hypothesis, as `bounds.verdict`'s lower_ok says it.  Raises HypothesisViolated where any form
    fails it.
    """
    if not np.all(in_closed_disk):
        raise HypothesisViolated("zeros outside the closed unit disk")
    c, t = ct[:2]
    margin = c - t
    return margin, margin >= -CHECK_SLACK * np.maximum(1.0, t)
