"""Seeded random inputs for sweeps and fuzzing.

Roots inside the disk are drawn area uniform (radius sqrt(u)), which
keeps a realistic share of near-boundary zeros instead of clustering at
the origin; outside roots mirror that through inversion.

Each number is a function of uniforms u of `Generator.random`, scaled as
`Generator.uniform(low, high)` scales them, low + (high - low) u.  The
stream and every bit are therefore those of one scalar `uniform` call per
number, in this order:

- the leading coefficient: its magnitude, then its phase;
- each zero: its phase, then the zone coin (zone `mixed` only), then its
  radius (none on the circle);
- each pole: its radius, then its phase;
- `valid_theta`: one angle per try, drawn only when it is tried.

`random_leading`, `random_roots` and `random_poles` take their uniforms
from one `Generator.random` call each.

A fuzz case (`fuzz_case`) is a polynomial and its angle, then, but in zone
`mixed`, the pole count (`integers`), the numerator and its poles, as
`random_rational` draws them, and the numerator's angle.  A polynomial's
leading coefficient, zeros, poles and first angle try are consecutive in
the stream, so one `Generator.random` call gives them all; each later try
takes one `random()`.  It is kept as plain numbers, no `RootForm` or
`Polynomial` built.  Its expansion stays: the angle's floor reads max|c_k|
(a floor on the zeros would draw other angles), and the endpoint
coefficients feed fuzz's theta-free bounds.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, RootForm, circle_point, coeff_endpoints, expand_roots, from_roots, horner
from .rational import RationalFunction
from .tolerances import SAMPLE_FLOOR_REL, SAMPLE_TRIES

ZONES = ("in_disk", "on_circle", "outside", "mixed")
TAU = 2.0 * math.pi


def _uniform(u: float, low: float, high: float) -> float:
    """The draw u of `Generator.random` scaled to [low, high) as `Generator.uniform(low, high)` scales it."""
    return low + (high - low) * u


def _leading(mag: float, phase: float) -> complex:
    return _uniform(mag, 0.5, 2.0) * cmath.exp(1j * _uniform(phase, 0.0, TAU))


def _per_zero(zone: str) -> int:
    """Uniforms per zero: its phase, the zone coin (zone `mixed` only) and its radius (none on the circle)."""
    if zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    return 1 if zone == "on_circle" else 3 if zone == "mixed" else 2


def _roots(draws: Sequence[float], zone: str) -> list[complex]:
    per_zero = _per_zero(zone)
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


def _poles(draws: Sequence[float]) -> list[complex]:
    return [_uniform(r, 1.2, 4.0) * cmath.exp(1j * _uniform(phase, 0.0, TAU))
            for r, phase in zip(draws[::2], draws[1::2])]


def _tries(rng: np.random.Generator, first: float) -> Iterator[float]:
    """SAMPLE_TRIES uniforms for the angle: first, then one `rng.random()` per later try, drawn only when it is tried."""
    yield first
    for _ in range(SAMPLE_TRIES - 1):
        yield rng.random()


def _clear_angle(coeffs: Sequence[complex], scale: float, tries: Iterator[float]) -> float | None:
    """The first angle of tries where |P(e^{i theta})| > SAMPLE_FLOOR_REL * scale, scale = max|c_k|; None if none."""
    floor = SAMPLE_FLOOR_REL * scale
    for u in tries:
        theta = _uniform(u, 0.0, TAU)
        if abs(horner(coeffs, circle_point(theta))) > floor:
            return theta
    return None


def random_leading(rng: np.random.Generator) -> complex:
    return _leading(*rng.random(2).tolist())


def random_roots(rng: np.random.Generator, n: int, zone: str) -> list[complex]:
    return _roots(rng.random(_per_zero(zone) * n).tolist(), zone)


def random_polynomial(rng: np.random.Generator, degree: int, zone: str) -> tuple[RootForm, Polynomial]:
    rf = RootForm(random_leading(rng), random_roots(rng, degree, zone))
    return rf, from_roots(rf)


def random_poles(rng: np.random.Generator, n: int) -> list[complex]:
    return _poles(rng.random(2 * n).tolist())


def random_rational(
    rng: np.random.Generator, num_degree: int, n_poles: int, zone: str
) -> tuple[RootForm, Polynomial, RationalFunction]:
    """The numerator's root form and expansion, and the rational function over random poles."""
    rf, p = random_polynomial(rng, num_degree, zone)
    return rf, p, RationalFunction(p.coeffs, random_poles(rng, n_poles))


def valid_theta(rng: np.random.Generator, p: Polynomial) -> float | None:
    """A random angle where |P(e^{i theta})| > SAMPLE_FLOOR_REL * max|c_k|, or None after SAMPLE_TRIES draws."""
    return _clear_angle(p.coeffs, p.coeff_scale, _tries(rng, rng.random()))


class Drawn(NamedTuple):
    """One polynomial of a fuzz case as drawn: its leading coefficient and zeros, the endpoints (c0, c1, c_{n-1}, cn)
    of its expansion, its angle (None if none) and its poles."""

    leading: complex
    roots: list[complex]
    endpoints: tuple[complex, complex, complex, complex]
    theta: float | None
    poles: tuple[complex, ...] = ()


def _draw(rng: np.random.Generator, degree: int, zone: str, n_poles: int = 0) -> Drawn:
    """One polynomial with n_poles poles: leading coefficient, zeros, poles and first angle try from one call."""
    split = 2 + _per_zero(zone) * degree
    u = rng.random(split + 2 * n_poles + 1).tolist()
    lead, zeros = _leading(u[0], u[1]), _roots(u[2:split], zone)
    coeffs = expand_roots(lead, zeros)
    theta = _clear_angle(coeffs, max(map(abs, coeffs)), _tries(rng, u[-1]))
    return Drawn(lead, zeros, coeff_endpoints(coeffs), theta, tuple(_poles(u[split:-1])))


def fuzz_case(rng: np.random.Generator, degree: int, zone: str) -> tuple[Drawn, Drawn | None]:
    """The polynomial of one fuzz case and, but in zone `mixed`, its rational function over 1-4 random poles.

    The rational function is drawn as `random_rational` draws it, numerator then poles, and is not built: its
    numerator is evaluated from its zeros.  An expansion past the double range is an error (ValueError).
    """
    polynomial = _draw(rng, degree, zone)
    if zone == "mixed":
        return polynomial, None
    return polynomial, _draw(rng, degree, zone, int(rng.integers(1, 5)))
