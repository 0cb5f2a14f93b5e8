import cmath
import math

import pytest

from polyrot import (
    InvalidWitnessParams,
    RootForm,
    ZeroProximity,
    arc_increment,
    bound_coeff2,
    bound_value,
    circle_point,
    classify_zeros,
    from_roots,
    rotation_speed,
    witness_arc,
    witness_goryainov,
    witness_unimodular,
    witness_value,
)


def lambda_at(p, theta):
    """Excess rotation 2 (arg P)'_theta - n at theta, from the coefficients."""
    return 2.0 * rotation_speed(p, circle_point(theta)) - p.degree


def equality_gap_at_one(rf):
    p = from_roots(rf)
    lam = lambda_at(p, 0.0)
    return abs(lam - bound_value(p, circle_point(0.0), lam)), lam


def test_value_witness_single_root():
    gap, lam = equality_gap_at_one(witness_value(0.5))
    assert lam == pytest.approx(3.0)
    assert gap <= 1e-12


def test_value_witness_with_origin_and_minus_one():
    gap, lam = equality_gap_at_one(witness_value(0.0, (-1,)))
    assert lam == pytest.approx(1.0)
    assert gap <= 1e-10


def test_value_witness_complex_parameters():
    roots = (cmath.exp(2j * math.pi / 3), cmath.exp(4j * math.pi / 3))
    gap, _ = equality_gap_at_one(witness_value(0.3j, roots))
    assert gap <= 1e-8


def test_interior_parameter_stays_inside_equality_family():
    # the family is parametrized by an arbitrary interior root: moving it
    # by 0.05 lands on another member, equality survives
    roots = (cmath.exp(2j * math.pi / 3),)
    gap_a, _ = equality_gap_at_one(witness_value(0.2 + 0.1j, roots))
    gap_b, _ = equality_gap_at_one(witness_value(0.25 + 0.1j, roots))
    assert gap_a <= 1e-9
    assert gap_b <= 1e-9


def test_perturbed_witness_keeps_inequality_loses_equality():
    # pushing the unimodular root off the circle leaves the family
    perturbed = RootForm(1.0, (0.2 + 0.1j, 0.95 * cmath.exp(2j * math.pi / 3)))
    moved_gap, lam = equality_gap_at_one(perturbed)
    p = from_roots(perturbed)
    rhs = bound_value(p, circle_point(0.0), lambda_at(p, 0.0))
    assert moved_gap > 1e-4
    assert lam >= rhs - 1e-9  # still on the right side


def test_value_witness_validation():
    with pytest.raises(InvalidWitnessParams):
        witness_value(1.2)
    with pytest.raises(InvalidWitnessParams):
        witness_value(0.5, (0.7,))  # not unimodular
    with pytest.raises(InvalidWitnessParams):
        witness_value(0.5, (1.0,))  # unimodular root at the equality point


def test_arc_witness_hand_cases():
    p = from_roots(witness_arc(1.0, (-1,)))
    assert abs(lambda_at(p, 0.0) - 1.0) <= 1e-10

    p = from_roots(witness_arc(1.0, (1j, -1j)))
    assert abs(lambda_at(p, 0.0) - 1.0) <= 1e-10


def test_arc_witness_leading_invariance():
    lead = 5.0 * cmath.exp(1j * math.pi / 7)
    p = from_roots(witness_arc(lead, (-1,)))
    assert abs(lambda_at(p, 0.0) - 1.0) <= 1e-10


def test_arc_witness_increment_equals_alpha():
    p = from_roots(witness_arc(1.0, (-1, 1j)))
    for alpha in (math.pi / 6, math.pi / 4):
        inc = arc_increment(0.0, alpha, classify_zeros(p))
        assert abs(inc - alpha) <= 1e-12


def test_arc_witness_validation():
    with pytest.raises(InvalidWitnessParams):
        witness_arc(0.0, (-1,))
    with pytest.raises(InvalidWitnessParams):
        witness_arc(1.0, (0.9,))


def test_goryainov_witness_validation():
    with pytest.raises(InvalidWitnessParams):
        witness_goryainov(1.0)
    assert witness_goryainov(0.0) == RootForm(1.0, (0j,))  # f*(z) = z^2
    assert witness_goryainov(0.3 - 0.2j).roots == (0.3 - 0.2j,)


def test_unimodular_witness_properties():
    rf = witness_unimodular(5, seed=11)
    assert all(abs(abs(r) - 1.0) <= 1e-12 for r in rf.roots)
    p = from_roots(rf)
    assert abs(abs(p.coeffs[0]) - abs(p.leading)) <= 1e-12
    assert bound_coeff2(p.ct) == bound_coeff2(rf.ct) == 0.0
    checked = 0
    for k in range(64):
        theta = 2 * math.pi * k / 64
        try:
            lam = lambda_at(p, theta)
        except ZeroProximity:
            continue
        checked += 1
        assert abs(lam) <= 1e-9
    assert checked >= 50


def test_unimodular_witness_is_seed_deterministic():
    assert witness_unimodular(4, seed=3).roots == witness_unimodular(4, seed=3).roots


def test_unimodular_witness_single_root():
    rf = witness_unimodular(1, seed=2)
    p = from_roots(rf)
    phi = math.atan2(rf.roots[0].imag, rf.roots[0].real)
    lam = lambda_at(p, phi + math.pi)
    assert abs(lam) <= 1e-12


def test_unimodular_witness_validation():
    with pytest.raises(InvalidWitnessParams):
        witness_unimodular(0, seed=1)
