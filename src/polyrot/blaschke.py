"""Finite Blaschke products and the self-map inequalities they obey.

A `BlaschkeProduct` is a unimodular prefactor times z times interior disk
factors (z - a_k) / (1 - conj(a_k) z); it maps the disk into itself and the
circle to the circle.  For P(z) = cn prod (z - a_k) with zeros in the closed
disk, the product over its interior zeros with one added zero at the origin
satisfies, on |z| = 1 away from zeros of P, the boundary derivative identity

    |f'(z)| = 2 Re(z P'(z)/P(z)) - n + 1 = lambda + 1,

so self-map inequalities read as rotation bounds.
`check_goryainov` checks Goryainov's inequality on a product (`witness
goryainov`), and `check_mercer_remark` checks Mercer's remark in its
coefficient form (`fuzz`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import HypothesisViolated
from .poly import Polynomial, cross_term
from .report import InequalityCheck
from .roots import ZeroClassification
from .tolerances import (
    ANGULAR_DERIVATIVE_SLACK,
    CHECK_SLACK,
    PREFACTOR_UNIMODULAR_TOL,
    SELF_MAP_ONE_TOL,
    SELF_MAP_ORIGIN_TOL,
)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Unimodular prefactor times z times interior disk factors."""

    prefactor: complex
    factors: tuple[complex, ...]

    def __init__(self, prefactor: complex, factors: Iterable[complex] = ()):
        pre = complex(prefactor)
        if abs(abs(pre) - 1.0) > PREFACTOR_UNIMODULAR_TOL:
            raise ValueError("prefactor must be unimodular")
        fs = tuple(complex(a) for a in factors)
        for a in fs:
            if abs(a) >= 1.0:
                raise ValueError("interior factors require |a| < 1")
        object.__setattr__(self, "prefactor", pre)
        object.__setattr__(self, "factors", fs)

    def __call__(self, z: complex) -> complex:
        acc = self.prefactor * z
        for a in self.factors:
            acc *= (z - a) / (1.0 - a.conjugate() * z)
        return acc

    def derivative_at_zero(self) -> complex:
        acc = self.prefactor
        for a in self.factors:
            acc *= -a
        return acc


def check_goryainov(f: BlaschkeProduct, fp1: float) -> InequalityCheck:
    """Goryainov's inequality |f'(0) - 1/f'(1)| <= 1 - 1/f'(1).

    f must satisfy f(0) = 0 and f(1) = 1; fp1 is the angular derivative
    at 1, computable as lambda + 1 at theta = 0.
    """
    if abs(f(0j)) > SELF_MAP_ORIGIN_TOL:
        raise HypothesisViolated("f(0) != 0")
    if abs(f(1.0 + 0j) - 1.0) > SELF_MAP_ONE_TOL:
        raise HypothesisViolated("f(1) != 1; use the normalized construction")
    if not math.isfinite(fp1) or fp1 < 1.0 - ANGULAR_DERIVATIVE_SLACK:
        raise HypothesisViolated("angular derivative at 1 must be finite and >= 1")
    lhs = abs(f.derivative_at_zero() - 1.0 / fp1)
    rhs = 1.0 - 1.0 / fp1
    margin = rhs - lhs
    return InequalityCheck("goryainov", lhs, rhs, margin, margin >= -CHECK_SLACK)


def check_mercer_remark(p: Polynomial, classification: ZeroClassification) -> InequalityCheck:
    """Coefficient form of Mercer's remark |f''(0)| <= 2 (1 - |f'(0)|^2).

    For zeros-in-disk polynomials this reads
    |c1 conj(cn) - c0 conj(c_{n-1})| <= |cn|^2 - |c0|^2; `classification`,
    that of p's zeros, must put none outside the closed disk.
    """
    if classification.outside:
        raise HypothesisViolated("zeros outside the closed unit disk")
    c = p.coeffs
    lhs = abs(cross_term(c))
    rhs = abs(c[-1]) ** 2 - abs(c[0]) ** 2
    scale = max(abs(c[-1]) ** 2, abs(c[1] * c[-1]), abs(c[0] * c[-2]))
    margin = rhs - lhs
    return InequalityCheck("mercer_remark", lhs, rhs, margin, margin >= -CHECK_SLACK * scale)
