"""Seeded random inputs for sweeps and fuzzing.

Roots inside the disk are drawn area uniform (radius sqrt(u)), which
keeps a realistic share of near-boundary zeros instead of clustering at
the origin; outside roots mirror that through inversion.

Each function takes all its uniforms from one `Generator.random` call and
scales each draw u as `Generator.uniform(low, high)` does, low + (high - low) u.
The stream and every bit are therefore those of one scalar `uniform` call
per number, in this order:

- the leading coefficient: its magnitude, then its phase;
- each zero: its phase, then the zone coin (zone `mixed` only), then its
  radius (none on the circle);
- each pole: its radius, then its phase;
- `valid_theta`: one angle per try, drawn only when it is tried.

A fuzz case (`fuzz_case`) is a polynomial and its angle, then, but in zone
`mixed`, the pole count (`integers`), the numerator and its poles, as
`random_rational` draws them, and the numerator's angle.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .poly import Polynomial, RootForm, circle_point, from_roots
from .rational import RationalFunction
from .tolerances import SAMPLE_FLOOR_REL, SAMPLE_TRIES

ZONES = ("in_disk", "on_circle", "outside", "mixed")
TAU = 2.0 * math.pi


def _uniform(u: float, low: float, high: float) -> float:
    """The draw u of `Generator.random` scaled to [low, high) as `Generator.uniform(low, high)` scales it."""
    return low + (high - low) * u


def random_leading(rng: np.random.Generator) -> complex:
    mag, phase = rng.random(2).tolist()
    return _uniform(mag, 0.5, 2.0) * cmath.exp(1j * _uniform(phase, 0.0, TAU))


def random_roots(rng: np.random.Generator, n: int, zone: str) -> list[complex]:
    if zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    per_zero = 1 if zone == "on_circle" else 3 if zone == "mixed" else 2  # phase, [coin,] radius
    draws = rng.random(per_zero * n).tolist()
    roots: list[complex] = []
    for k in range(0, len(draws), per_zero):
        phase, u = draws[k], draws[k + per_zero - 1]  # u: the radius draw, unused on the circle
        z = zone if zone != "mixed" else "in_disk" if draws[k + 1] < 0.5 else "outside"
        if z == "in_disk":
            r = math.sqrt(u)
        elif z == "on_circle":
            r = 1.0
        else:  # outside, inverted area-uniform, bounded away from the circle
            r = 1.0 / math.sqrt(_uniform(u, 1e-4, 0.995))
        roots.append(r * cmath.exp(1j * _uniform(phase, 0.0, TAU)))
    return roots


def random_polynomial(rng: np.random.Generator, degree: int, zone: str) -> tuple[RootForm, Polynomial]:
    rf = RootForm(random_leading(rng), random_roots(rng, degree, zone))
    return rf, from_roots(rf)


def random_poles(rng: np.random.Generator, n: int) -> list[complex]:
    draws = rng.random(2 * n).tolist()
    return [_uniform(r, 1.2, 4.0) * cmath.exp(1j * _uniform(phase, 0.0, TAU))
            for r, phase in zip(draws[::2], draws[1::2])]


def random_rational(
    rng: np.random.Generator, num_degree: int, n_poles: int, zone: str
) -> tuple[RootForm, Polynomial, RationalFunction]:
    """The numerator's root form and expansion, and the rational function over random poles."""
    rf, p = random_polynomial(rng, num_degree, zone)
    return rf, p, RationalFunction(p.coeffs, random_poles(rng, n_poles))


def valid_theta(rng: np.random.Generator, p: Polynomial) -> float | None:
    """A random angle where |P(e^{i theta})| > SAMPLE_FLOOR_REL * max|c_k|, or None after SAMPLE_TRIES draws."""
    floor = SAMPLE_FLOOR_REL * p.coeff_scale
    for _ in range(SAMPLE_TRIES):
        theta = _uniform(rng.random(), 0.0, TAU)
        if abs(p(circle_point(theta))) > floor:
            return theta
    return None


class Drawn(NamedTuple):
    """One polynomial of a fuzz case as drawn: its zeros, its expansion, its angle (None if none) and its poles."""

    form: RootForm
    expansion: Polynomial
    theta: float | None
    poles: tuple[complex, ...] = ()


def fuzz_case(rng: np.random.Generator, degree: int, zone: str) -> tuple[Drawn, Drawn | None]:
    """The polynomial of one fuzz case and, but in zone `mixed`, its rational function over 1-4 random poles.

    The expansion serves `valid_theta` and the endpoint coefficients.  The rational function is drawn as
    `random_rational` draws it, numerator then poles, and is not built: its numerator is evaluated from its zeros.
    """
    rf, p = random_polynomial(rng, degree, zone)
    polynomial = Drawn(rf, p, valid_theta(rng, p))
    if zone == "mixed":
        return polynomial, None
    n_poles = int(rng.integers(1, 5))
    rf, p = random_polynomial(rng, degree, zone)
    poles = tuple(random_poles(rng, n_poles))
    return polynomial, Drawn(rf, p, valid_theta(rng, p), poles)
