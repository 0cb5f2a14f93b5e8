"""Finite disk self-maps built from polynomial zeros.

For P(z) = cn prod (z - a_k) with zeros in the closed disk, the product

    f(z) = prefactor * z * prod_{|a_k| < 1} (z - a_k) / (1 - conj(a_k) z)

maps the disk into itself and the circle to the circle.  Zeros on the
circle contribute constant unimodular factors (z - a)/(1 - conj(a) z)
= -1/conj(a) and are folded into the prefactor, which removes their
spurious 0/0 boundary singularities.  On |z| = 1 away from zeros of P
both constructions used here, which add a zero at the origin, satisfy
the boundary derivative identity

    |f'(z)| = 2 Re(z P'(z)/P(z)) - n + 1

so the self-map inequalities translate directly into rotation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateDerivative, HypothesisViolated, RootAtOne
from .poly import Polynomial, RootForm, UnitCirclePoint, cross_term, from_roots, rotation_speed
from .report import InequalityCheck
from .roots import ZeroClassification, classify_root_list, classify_zeros
from .tolerances import (
    ANGULAR_DERIVATIVE_SLACK,
    CHECK_SLACK,
    DEGENERATE_DERIVATIVE_TOL,
    PREFACTOR_UNIMODULAR_TOL,
    ROOT_AT_ONE_TOL,
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


def _closed_disk_zeros(rf: RootForm) -> ZeroClassification:
    """The classified zeros of rf; raises HypothesisViolated on the first zero outside the closed disk."""
    cls = classify_root_list(rf.roots)
    if cls.outside:
        raise HypothesisViolated(f"zero at |a| = {abs(cls.outside[0]):.6f} lies outside the closed unit disk")
    return cls


def _check_not_at_one(roots: Iterable[complex]) -> None:
    for a in roots:
        if abs(a - 1.0) <= ROOT_AT_ONE_TOL:
            raise RootAtOne("a zero at z = 1 voids the normalization f(1) = 1")


def disk_self_map(rf: RootForm) -> BlaschkeProduct:
    """The unnormalized self-map P(z) / (z^{n-1} conj(P(1/conj(z)))).

    Satisfies f(0) = 0, f'(0) = c0 / conj(cn); zeros on the circle are
    folded into the unimodular prefactor.
    """
    cls = _closed_disk_zeros(rf)
    pre = rf.leading / rf.leading.conjugate()
    for a in cls.on_circle:
        pre *= -1.0 / (a / abs(a)).conjugate()  # snapped onto the circle
    return BlaschkeProduct(pre, cls.inside)


def normalized_self_map(rf: RootForm) -> BlaschkeProduct:
    """Self-map with a zero at the origin, normalized so f(1) = 1.

    Each on-circle zero contributes (1 - conj(a))/(1 - a) * (-1/conj(a)),
    which is exactly 1, so only interior zeros shape the map.

    Raises RootAtOne when a zero sits at z = 1.
    """
    _check_not_at_one(rf.roots)
    interior = _closed_disk_zeros(rf).inside
    pre = 1.0 + 0j
    for a in interior:
        pre *= (1.0 - a.conjugate()) / (1.0 - a)
    return BlaschkeProduct(pre, interior)


def boundary_derivative_modulus(p: Polynomial, pt: UnitCirclePoint) -> float:
    """|f'(z)| = 2 Re(z P'(z)/P(z)) - n + 1 on |z| = 1 for the origin-pinned map."""
    return 2.0 * rotation_speed(p, pt) - p.degree + 1.0


def f_prime_0(rf: RootForm) -> complex:
    """f'(0) = c0 / conj(cn) for the unnormalized self-map."""
    c = from_roots(rf).coeffs
    return c[0] / c[-1].conjugate()


def f_second_0(rf: RootForm) -> complex:
    """f''(0) = 2 (conj(cn) c1 - c0 conj(c_{n-1})) / conj(cn)^2.

    Cleared-denominator form: it stays finite when c0 = 0, unlike the
    bracketed quotient it is algebraically equal to.
    """
    c = from_roots(rf).coeffs
    cn_bar = c[-1].conjugate()
    return 2.0 * cross_term(c) / (cn_bar * cn_bar)


def check_goryainov(f: BlaschkeProduct, fp1: float) -> InequalityCheck:
    """Goryainov's inequality |f'(0) - 1/f'(1)| <= 1 - 1/f'(1).

    f must satisfy f(0) = 0 and f(1) = 1; fp1 is the angular derivative
    at 1, computable as the boundary derivative modulus at theta = 0.
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


def check_mercer(fp0: complex, fpp0: complex, boundary_mod: float) -> InequalityCheck:
    """Mercer's boundary derivative bound.

    |f'(z)| >= 1 + 2 (1 - |f'(0)|)^2 / (1 - |f'(0)|^2 + |f''(0)/2|) for a
    self-map with f(0) = 0, checked against the supplied |f'(z)| on the
    circle.  Raises DegenerateDerivative when |f'(0)| = 1.
    """
    a = abs(fp0)
    if abs(a - 1.0) < DEGENERATE_DERIVATIVE_TOL:
        raise DegenerateDerivative("|f'(0)| = 1")
    rhs = 1.0 + 2.0 * (1.0 - a) ** 2 / (1.0 - a * a + 0.5 * abs(fpp0))
    margin = boundary_mod - rhs
    return InequalityCheck("mercer", boundary_mod, rhs, margin, margin >= -CHECK_SLACK)


def check_mercer_remark(p: Polynomial) -> InequalityCheck:
    """Coefficient form of Mercer's remark |f''(0)| <= 2 (1 - |f'(0)|^2).

    For zeros-in-disk polynomials this reads
    |c1 conj(cn) - c0 conj(c_{n-1})| <= |cn|^2 - |c0|^2.
    """
    if classify_zeros(p).outside:
        raise HypothesisViolated("zeros outside the closed unit disk")
    c = p.coeffs
    lhs = abs(cross_term(c))
    rhs = abs(c[-1]) ** 2 - abs(c[0]) ** 2
    scale = max(abs(c[-1]) ** 2, abs(c[1] * c[-1]), abs(c[0] * c[-2]))
    margin = rhs - lhs
    return InequalityCheck("mercer_remark", lhs, rhs, margin, margin >= -CHECK_SLACK * scale)
