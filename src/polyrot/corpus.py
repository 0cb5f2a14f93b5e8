"""Seeded random inputs for sweeps and fuzzing.

Roots inside the disk are drawn area uniform (radius sqrt(u)), which
keeps a realistic share of near-boundary zeros instead of clustering at
the origin; outside roots mirror that through inversion.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .poly import Polynomial, RootForm, UnitCirclePoint, from_roots
from .rational import RationalFunction
from .tolerances import SAMPLE_FLOOR_REL

ZONES = ("in_disk", "on_circle", "outside", "mixed")


def random_leading(rng: np.random.Generator) -> complex:
    mag = float(rng.uniform(0.5, 2.0))
    return mag * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))


def random_roots(rng: np.random.Generator, n: int, zone: str, radius_cap: float = 1.0) -> list[complex]:
    if zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    roots: list[complex] = []
    for _ in range(n):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if zone == "mixed":
            z = "in_disk" if rng.uniform() < 0.5 else "outside"
        else:
            z = zone
        if z == "in_disk":
            r = radius_cap * math.sqrt(float(rng.uniform()))
        elif z == "on_circle":
            r = 1.0
        else:  # outside, inverted area-uniform, bounded away from the circle
            r = 1.0 / math.sqrt(float(rng.uniform(1e-4, 0.995)))
        roots.append(r * cmath.exp(1j * phi))
    return roots


def random_polynomial(
    rng: np.random.Generator,
    degree: int,
    zone: str,
    radius_cap: float = 1.0,
) -> tuple[RootForm, Polynomial]:
    rf = RootForm(random_leading(rng), random_roots(rng, degree, zone, radius_cap))
    return rf, from_roots(rf)


def random_poles(rng: np.random.Generator, n: int) -> list[complex]:
    return [
        float(rng.uniform(1.2, 4.0)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ]


def random_rational(
    rng: np.random.Generator, num_degree: int, n_poles: int, zone: str
) -> tuple[RootForm, RationalFunction]:
    rf, p = random_polynomial(rng, num_degree, zone)
    return rf, RationalFunction(p.coeffs, random_poles(rng, n_poles))


def valid_theta(
    rng: np.random.Generator,
    p: Polynomial,
    min_rel: float = SAMPLE_FLOOR_REL,
    tries: int = 500,
) -> float | None:
    """A random angle where |P(e^{i theta})| > min_rel * max|c_k|, or None."""
    floor = min_rel * p.coeff_scale
    for _ in range(tries):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(p(UnitCirclePoint(theta).z)) > floor:
            return theta
    return None
