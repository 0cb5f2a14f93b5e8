"""Seeded random inputs for sweeps and fuzzing.

Roots inside the disk are drawn area uniform (radius sqrt(u)), which
keeps a realistic share of near-boundary zeros instead of clustering at
the origin; outside roots mirror that through inversion.

Each number is a function of uniforms u of `Generator.random`, scaled as
`Generator.uniform(low, high)` scales them, low + (high - low) u.  The
scalar draws (`random_leading`, `random_roots`, `random_poles`, which take
their uniforms from one `Generator.random` call each, and `valid_theta`)
are therefore bit for bit one scalar `uniform` call per number, in this
order:

- the leading coefficient: its magnitude, then its phase;
- each zero: its phase, then the zone coin (zone `mixed` only), then its
  radius (none on the circle);
- each pole: its radius, then its phase;
- `valid_theta`: one angle per try, drawn only when it is tried.

fuzz draws a chunk of cases at once (`fuzz_chunk`), as arrays, from its own
`Generator` seeded with (seed, chunk index): the degrees and the pole counts
from one `integers` call each, then every leading coefficient, angle, zero
and pole from one `Generator.random` call.  Each phase turns into a point
through C `cos` and `sin`, one value at a time, so the bits do not depend
on the CPU's vector units.  No case is expanded or built as an object.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, RootForm, circle_point, from_roots
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
    for _ in range(SAMPLE_TRIES):
        theta = _uniform(rng.random(), 0.0, TAU)
        if abs(p(circle_point(theta))) > SAMPLE_FLOOR_REL * p.coeff_scale:
            return theta
    return None


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
    forms, zeros, poles = len(degree), int(degree.sum()), int(n_poles.sum())
    u = rng.random(3 * forms + _per_zero(zone) * zeros + 2 * poles)
    z, p = u[3 * forms:len(u) - 2 * poles].reshape(zeros, -1), u[len(u) - 2 * poles:].reshape(poles, 2)
    inside = z[:, 1] < 0.5 if zone == "mixed" else zone == "in_disk"  # outside: inverted area-uniform, off the circle
    radius = np.ones(zeros) if zone == "on_circle" else np.where(inside, np.sqrt(z[:, -1]),
                                                                 1.0 / np.sqrt(_uniform(z[:, -1], 1e-4, 0.995)))
    modulus = np.concatenate([_uniform(u[:2 * forms:2], 0.5, 2.0), radius, _uniform(p[:, 0], 1.2, 4.0)])
    phase = _uniform(np.concatenate([u[1:2 * forms:2], z[:, 0], p[:, 1]]), 0.0, TAU).tolist()
    # each point's parts as modulus * cmath.exp(1j * phase) has them: C cos and sin
    re = modulus * np.fromiter(map(math.cos, phase), float, len(phase))
    im = modulus * np.fromiter(map(math.sin, phase), float, len(phase))
    leading, padded = np.empty(forms, dtype=complex), np.full((len(n_poles), n_poles.max(initial=0)), -1.0 + 0j)
    leading.real, leading.imag = re[:forms], im[:forms]
    drawn = np.arange(padded.shape[1]) < n_poles[:, None]
    padded.real[drawn], padded.imag[drawn] = re[forms + zeros:], im[forms + zeros:]
    return FuzzChunk(leading, degree, re[forms:forms + zeros], im[forms:forms + zeros],
                     _uniform(u[2 * forms:3 * forms], 0.0, TAU).tolist(), padded, n_poles)
