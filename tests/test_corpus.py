"""The bulk draws of `polyrot.corpus` against one scalar `Generator.uniform` call per number, bit for bit."""

import cmath
import math

import numpy as np
import pytest

from polyrot import corpus
from polyrot.poly import RootForm, circle_point, from_roots
from polyrot.tolerances import SAMPLE_FLOOR_REL, SAMPLE_TRIES

# The draw loops as written with one scalar `uniform` call per number: the reference the bulk draws keep.


def reference_leading(rng):
    mag = float(rng.uniform(0.5, 2.0))
    return mag * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))


def reference_roots(rng, n, zone):
    roots = []
    for _ in range(n):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if zone == "mixed":
            z = "in_disk" if rng.uniform() < 0.5 else "outside"
        else:
            z = zone
        if z == "in_disk":
            r = math.sqrt(float(rng.uniform()))
        elif z == "on_circle":
            r = 1.0
        else:
            r = 1.0 / math.sqrt(float(rng.uniform(1e-4, 0.995)))
        roots.append(r * cmath.exp(1j * phi))
    return roots


def reference_poles(rng, n):
    return [
        float(rng.uniform(1.2, 4.0)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ]


def reference_valid_theta(rng, p):
    floor = SAMPLE_FLOOR_REL * p.coeff_scale
    for _ in range(SAMPLE_TRIES):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(p(circle_point(theta))) > floor:
            return theta
    return None


def bits(values):
    """float.hex of both parts of every value: equal bits, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def draw_case(rng, degree, zone, leading, roots, poles, valid_theta):
    """One fuzz-like case: integers mixed in, then leading coefficient, zeros, poles and an angle."""
    n_poles = int(rng.integers(1, 5))
    lead = leading(rng)
    zeros = roots(rng, degree, zone)
    drawn = {"leading": bits([lead]), "roots": bits(zeros), "poles": bits(poles(rng, n_poles))}
    if degree:
        theta = valid_theta(rng, from_roots(RootForm(lead, zeros)))
        drawn["theta"] = None if theta is None else theta.hex()
    drawn["tail"] = int(rng.integers(0, 2**40))
    return drawn


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_bulk_draws_match_scalar_uniform(seed, zone):
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for degree in range(65):
        got = draw_case(bulk, degree, zone, corpus.random_leading, corpus.random_roots, corpus.random_poles,
                        corpus.valid_theta)
        want = draw_case(scalar, degree, zone, reference_leading, reference_roots, reference_poles,
                         reference_valid_theta)
        assert got == want, (seed, zone, degree)
        assert bulk.bit_generator.state == scalar.bit_generator.state, (seed, zone, degree)


@pytest.mark.parametrize("zone", ["in_disk", "outside", "on_circle"])
def test_random_rational_returns_its_numerator(zone):
    # the rational fuzz case draws its angle on this numerator instead of rebuilding it
    rf, p, r = corpus.random_rational(np.random.default_rng(3), 6, 2, zone)
    assert p == from_roots(rf)
    assert r.numerator == p.coeffs and len(r.poles) == 2
