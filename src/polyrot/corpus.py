"""Seeded random inputs for sweeps and fuzzing.

Roots inside the disk are drawn area uniform (radius sqrt(u)), which
keeps a realistic share of near-boundary zeros instead of clustering at
the origin; outside roots mirror that through inversion.

Each number is a function of uniforms u of `Generator.random`, scaled as
`Generator.uniform(low, high)` scales them, low + (high - low) u.  A form
takes its uniforms in this order: its leading coefficient (magnitude, then
phase), then each zero (phase, then the zone coin in zone `mixed`, then its
radius, none on the circle); a pole takes its radius, then its phase.
`_points` turns them into points, each zone's radius rule stated there once;
each phase turns into a point through C `cos` and `sin`, one value at a time,
so the bits do not depend on the CPU's vector units.

`random_polynomial` and `random_rational` draw one form and then its poles
from one `Generator.random` call.  fuzz draws a chunk of cases at once
(`fuzz_chunk`), as arrays, from its own `Generator` seeded with (seed, chunk
index): the degrees and the pole counts from one `integers` call each, then
every leading coefficient, angle, zero and pole from one `Generator.random`
call.  No fuzz case is expanded or built as an object.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .poly import Polynomial, RootForm, from_roots
from .rational import RationalFunction

ZONES = ("in_disk", "on_circle", "outside", "mixed")
TAU = 2.0 * math.pi


def _uniform(u, low: float, high: float):
    """The draws u of `Generator.random` scaled to [low, high) as `Generator.uniform(low, high)` scales them."""
    return low + (high - low) * u


def _per_zero(zone: str) -> int:
    """Uniforms per zero: its phase, the zone coin (zone `mixed` only) and its radius (none on the circle)."""
    if zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    return 1 if zone == "on_circle" else 3 if zone == "mixed" else 2


def _points(lead: np.ndarray, z: np.ndarray, p: np.ndarray, zone: str) -> tuple[np.ndarray, np.ndarray]:
    """re and im of the leading coefficients, zeros and poles, in turn, that the uniforms in the rows of lead
    (magnitude, phase), z (`_per_zero`) and p (radius, phase) draw, each as modulus * cmath.exp(1j * phase) has it."""
    inside = z[:, 1] < 0.5 if zone == "mixed" else zone == "in_disk"  # outside: inverted area-uniform, off the circle
    radius = np.ones(len(z)) if zone == "on_circle" else np.where(inside, np.sqrt(z[:, -1]),
                                                                  1.0 / np.sqrt(_uniform(z[:, -1], 1e-4, 0.995)))
    modulus = np.concatenate([_uniform(lead[:, 0], 0.5, 2.0), radius, _uniform(p[:, 0], 1.2, 4.0)])
    phase = _uniform(np.concatenate([lead[:, 1], z[:, 0], p[:, 1]]), 0.0, TAU).tolist()
    return (modulus * np.fromiter(map(math.cos, phase), float, len(phase)),
            modulus * np.fromiter(map(math.sin, phase), float, len(phase)))


def _form(rng: np.random.Generator, degree: int, n_poles: int, zone: str) -> tuple[RootForm, list[complex]]:
    """A root form of this degree and n_poles poles, from one `random` call."""
    per_zero = _per_zero(zone)
    u = rng.random(2 + per_zero * degree + 2 * n_poles)
    z, p = u[2:2 + per_zero * degree].reshape(degree, per_zero), u[2 + per_zero * degree:].reshape(n_poles, 2)
    points = list(map(complex, *(part.tolist() for part in _points(u[:2].reshape(1, 2), z, p, zone))))
    return RootForm(points[0], points[1:degree + 1]), points[degree + 1:]


def random_polynomial(rng: np.random.Generator, degree: int, zone: str) -> tuple[RootForm, Polynomial]:
    rf, _ = _form(rng, degree, 0, zone)
    return rf, from_roots(rf)


def random_rational(
    rng: np.random.Generator, num_degree: int, n_poles: int, zone: str
) -> tuple[RootForm, Polynomial, RationalFunction]:
    """The numerator's root form and expansion, and the rational function over random poles."""
    rf, poles = _form(rng, num_degree, n_poles, zone)
    p = from_roots(rf)
    return rf, p, RationalFunction(p.coeffs, poles)


class FuzzChunk(NamedTuple):
    """One fuzz chunk as drawn: its forms, the polynomials and then the numerators of the rational functions, form k
    with leading[k], degree[k] zeros and the angle thetas[k], their zeros re + i im in turn; and rational function
    j's n_poles[j] poles, poles[j], padded with the pole -1, whose Poisson term (|a| - 1)(...) adds exactly 0."""

    leading: np.ndarray
    degree: np.ndarray
    re: np.ndarray
    im: np.ndarray
    thetas: list[float]
    poles: np.ndarray
    n_poles: np.ndarray


def fuzz_chunk(seed: int, index: int, size: int, degrees: tuple[int, int], zone: str) -> FuzzChunk:
    """Chunk index of `fuzz --seed seed`: size cases of degrees[0] to degrees[1], each a polynomial and, but in zone
    `mixed`, a rational function of the same degree over 1-4 poles.

    The chunk's `Generator`, seeded with [seed, index], draws the degrees and the pole counts (`integers`), and
    then in one `random` call: each form's leading coefficient (magnitude, phase), each form's angle, each zero
    (phase, the zone coin in zone `mixed`, radius but on the circle) and each pole (radius, phase).
    """
    rng = np.random.default_rng([seed, index])
    degree = rng.integers(degrees[0], degrees[1] + 1, size)
    n_poles = rng.integers(1, 5, size) if zone != "mixed" else np.zeros(0, dtype=int)
    degree = np.concatenate([degree, degree[:len(n_poles)]])
    forms, zeros, poles, per_zero = len(degree), int(degree.sum()), int(n_poles.sum()), _per_zero(zone)
    u = rng.random(3 * forms + per_zero * zeros + 2 * poles)
    re, im = _points(u[:2 * forms].reshape(forms, 2), u[3 * forms:len(u) - 2 * poles].reshape(zeros, per_zero),
                     u[len(u) - 2 * poles:].reshape(poles, 2), zone)
    leading, padded = np.empty(forms, dtype=complex), np.full((len(n_poles), n_poles.max(initial=0)), -1.0 + 0j)
    leading.real, leading.imag = re[:forms], im[:forms]
    drawn = np.arange(padded.shape[1]) < n_poles[:, None]
    padded.real[drawn], padded.imag[drawn] = re[forms + zeros:], im[forms + zeros:]
    return FuzzChunk(leading, degree, re[forms:forms + zeros], im[forms:forms + zeros],
                     _uniform(u[2 * forms:3 * forms], 0.0, TAU).tolist(), padded, n_poles)
