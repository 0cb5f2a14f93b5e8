import cmath
import math

import pytest
from hypothesis import given, strategies as st

from polyrot import (
    HypothesisViolated,
    Polynomial,
    RootForm,
    ZeroProximity,
    bound_arc,
    bound_coeff,
    bound_coeff2,
    bound_sqrt_weak,
    bound_value,
    bound_zero_free,
    circle_point,
    classify_zeros,
    from_roots,
    full_report,
    rotation_speed,
)
from polyrot import corpus
from polyrot.report import BOUND_KEYS
from polyrot.roots import classify_root_list


def lambda_at(p, theta):
    """Excess rotation 2 (arg P)'_theta - n at theta, from the coefficients."""
    return 2.0 * rotation_speed(p, circle_point(theta)) - p.degree


def fifth_roots_of_unity():
    return from_roots(RootForm(1.0, tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))))


def test_lambda_monomial():
    for n in (1, 2, 6):
        p = Polynomial([0] * n + [1])
        assert lambda_at(p, 1.3) == pytest.approx(n, abs=1e-12)


def test_lambda_vanishes_for_circle_zeros():
    p = fifth_roots_of_unity()
    assert abs(lambda_at(p, math.pi / 5)) <= 1e-9


def test_lambda_hand_value():
    assert lambda_at(Polynomial([-0.5, 1]), 0.0) == pytest.approx(3.0)


def test_bound_coeff_values():
    assert bound_coeff(Polynomial([-0.5, 1]).endpoints) == pytest.approx(1 / 3)
    assert bound_coeff(fifth_roots_of_unity().endpoints) == pytest.approx(0.0, abs=1e-15)
    assert bound_coeff(Polynomial([0, 0, 0, 1]).endpoints) == pytest.approx(1.0)


def test_bound_sqrt_weak_below_coeff(rng):
    assert bound_sqrt_weak(Polynomial([-0.5, 1]).endpoints) == pytest.approx(1 - math.sqrt(0.5))
    for _ in range(50):
        n = int(rng.integers(1, 9))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_sqrt_weak(p.endpoints) <= bound_coeff(p.endpoints) + 1e-12


def test_bound_value_hand_cases():
    p = Polynomial([0, 0, 1])
    assert bound_value(p, 1 + 0j, lambda_at(p, 0.0)) == pytest.approx(1.0)

    p = Polynomial([-0.5, 1])
    lam = lambda_at(p, 0.0)
    rhs = bound_value(p, 1 + 0j, lam)
    assert rhs == pytest.approx(3.0)
    assert lam == pytest.approx(rhs)  # equality family member


def test_bound_value_equality_with_unimodular_tail():
    p = from_roots(RootForm(1.0, (0.4, cmath.exp(1j * math.pi / 3))))
    lam = lambda_at(p, 0.0)
    assert abs(lam - bound_value(p, 1 + 0j, lam)) <= 1e-8


def test_bound_coeff2_values():
    assert bound_coeff2(fifth_roots_of_unity().endpoints) == 0.0
    assert bound_coeff2(Polynomial([-0.5, 1]).endpoints) == pytest.approx(1 / 3)
    p = Polynomial([0, 0, 1])
    assert bound_coeff2(p.endpoints) == pytest.approx(2.0)
    assert lambda_at(p, 0.7) == pytest.approx(2.0)


def test_bound_coeff2_degenerate_denominator_is_nan():
    assert math.isnan(bound_coeff2(Polynomial([-2, 1]).endpoints))


def test_bound_coeff2_dominates_coeff_in_disk(rng):
    for _ in range(300):
        n = int(rng.integers(1, 11))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_coeff2(p.endpoints) >= bound_coeff(p.endpoints) - 1e-12


def test_bound_arc_equal_angles():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    theta = 0.0
    alpha = math.pi / 2
    assert bound_arc(theta, alpha, alpha, classify_zeros(p)) == pytest.approx(1.0)
    assert lambda_at(p, theta) == pytest.approx(1.0)


def test_bound_arc_closed_form():
    # circle zeros far from the arc: the tracked increment is 0, any beta works
    p = from_roots(RootForm(1.0, (cmath.exp(2.8j), cmath.exp(-2.8j))))
    value = bound_arc(0.0, math.pi / 2, math.pi / 4, classify_zeros(p))
    assert value == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert lambda_at(p, 0.0) <= value


def test_bound_arc_rejects_bad_hypotheses():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    theta = 0.0
    with pytest.raises(ValueError):
        bound_arc(theta, math.pi, 0.5, classify_zeros(p))
    with pytest.raises(ValueError):
        bound_arc(theta, 0.5, math.pi, classify_zeros(p))
    # measured increment 2*alpha exceeds beta = alpha for the pure square
    square = Polynomial([0, 0, 1])
    with pytest.raises(HypothesisViolated):
        bound_arc(theta, 0.5, 0.5, classify_zeros(square))
    # root on the open arc
    on_arc = from_roots(RootForm(1.0, (cmath.exp(0.1j),)))
    with pytest.raises(HypothesisViolated):
        bound_arc(theta, 0.5, 0.5, classify_zeros(on_arc))


def test_upper_bound_zero_free_hand_case():
    p = Polynomial([-2, 1])
    theta = 0.0
    bound = full_report(p, theta, classify_zeros(p)).bounds["upper_zero_free"]
    assert bound == bound_zero_free(p.endpoints, p.degree) == pytest.approx(1 / 3)
    assert rotation_speed(p, circle_point(theta)) == pytest.approx(-1.0)


def test_upper_bound_equality_for_circle_zeros():
    p = fifth_roots_of_unity()
    theta = math.pi / 5
    bound = full_report(p, theta, classify_zeros(p)).bounds["upper_zero_free"]
    assert bound == pytest.approx(2.5)
    assert rotation_speed(p, circle_point(theta)) == pytest.approx(2.5, abs=1e-9)


def test_upper_bound_rejects_interior_zeros():
    p = Polynomial([-0.5, 1])
    rep = full_report(p, 0.0, classify_zeros(p))
    assert rep.flags["upper_zero_free"] == "na"
    assert rep.bounds["upper_zero_free"] is None and rep.margins["upper_zero_free"] is None


def test_upper_bound_respects_oracle(rng):
    from polyrot import arg_derivative_fd

    p = from_roots(RootForm(1.0, (2.0, 3.0)))
    theta = math.pi
    speed = rotation_speed(p, circle_point(theta))
    assert abs(speed - arg_derivative_fd(p, math.pi)) <= 1e-6
    assert speed <= full_report(p, theta, classify_zeros(p)).bounds["upper_zero_free"] + 1e-9


def test_full_report_reference_point():
    p = Polynomial([-0.5, 1])
    rep = full_report(p, 0.0, classify_zeros(p))
    assert rep.lam == pytest.approx(3.0)
    assert rep.bounds["classic"] == 0.0
    assert rep.bounds["coeff"] == pytest.approx(1 / 3)
    assert rep.bounds["sqrt_weak"] == pytest.approx(1 - math.sqrt(0.5))
    assert rep.bounds["value_thm1"] == pytest.approx(3.0)
    assert rep.bounds["coeff2_thm2"] == pytest.approx(1 / 3)
    for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
        assert rep.flags[key] == "pass"
        assert rep.margins[key] == pytest.approx(rep.lam - rep.bounds[key])
    assert rep.flags["upper_zero_free"] == "na"
    assert rep.flags["arc_thm3"] == "na"
    assert rep.status == "pass" and not rep.skipped


def test_full_report_gates_lower_bounds_off_outside():
    p = from_roots(RootForm(1.0, (1.5, 0.3)))
    rep = full_report(p, 0.4, classify_zeros(p))
    for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
        assert rep.flags[key] == "na" and rep.margins[key] is None
    assert rep.status == "pass"


def test_full_report_random_disk_sweep(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(circle_point(theta))) <= 1e-3 * p.coeff_scale:
            continue
        rep = full_report(p, theta, classify_zeros(p))
        for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
            assert rep.flags[key] == "pass", (key, rep)


def test_full_report_with_arc():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    cls = classify_zeros(p)
    rep = full_report(p, 0.0, cls, arc=(math.pi / 2, None))
    assert rep.bounds["arc_thm3"] == pytest.approx(1.0, abs=1e-3)
    assert rep.flags["arc_thm3"] == "pass"
    # the measured increment is about alpha = pi/2, so beta = 0.5 voids the arc hypothesis
    na = full_report(p, 0.0, cls, arc=(math.pi / 2, 0.5))
    assert (na.flags["arc_thm3"], na.bounds["arc_thm3"], na.margins["arc_thm3"]) == ("na", None, None)
    assert na == full_report(p, 0.0, cls)


def test_every_applicable_flag_passes_across_zones(rng):
    # Each zero of a degree 1-6 input is drawn inside the disk, on the circle or outside, at an angle where
    # |P| clears fuzz's floor.  A bound whose hypothesis holds must pass, and the arc bound, stated for zeros
    # in the closed disk, must read na whenever one lies outside.
    applicable = dict.fromkeys(BOUND_KEYS, 0)
    gated_arcs = 0
    for _ in range(2000):
        zones = rng.choice(corpus.ZONES[:3], size=int(rng.integers(1, 7)))
        roots = [r for zone in zones for r in corpus.random_roots(rng, 1, zone)]
        p = from_roots(RootForm(corpus.random_leading(rng), roots))
        theta, alpha = corpus.valid_theta(rng, p), float(rng.uniform(0.05, 1.5))
        if theta is None:
            continue
        cls = classify_root_list(roots)
        rep = full_report(p, theta, cls, arc=(alpha, None))
        for key, flag in rep.flags.items():
            assert flag in ("pass", "na"), (key, roots, theta, alpha, rep.margins[key])
            applicable[key] += flag == "pass"
        if cls.outside:
            assert rep.flags["arc_thm3"] == "na", (roots, theta, alpha)
            gated_arcs += 1
    assert min(applicable.values()) > 300 and gated_arcs > 1000, (applicable, gated_arcs)


def test_report_keys_match_wire_schema():
    p = Polynomial([-0.5, 1])
    rep = full_report(p, 0.0, classify_zeros(p))
    assert tuple(rep.bounds) == tuple(rep.margins) == tuple(rep.flags) == BOUND_KEYS


def test_scale_invariance(rng):
    p = from_roots(RootForm(1.0, (0.2, -0.5j, 0.7)))
    theta = 1.1
    base = full_report(p, theta, classify_zeros(p))
    for c in (2.0, -3j, 0.7 * cmath.exp(1.9j)):
        q = Polynomial([c * ck for ck in p.coeffs])
        scaled = full_report(q, theta, classify_zeros(q))
        assert scaled.lam == pytest.approx(base.lam, rel=1e-12)
        for key in ("coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
            assert scaled.bounds[key] == pytest.approx(base.bounds[key], rel=1e-12, abs=1e-13)


def test_rotation_covariance():
    p = from_roots(RootForm(1.0, (0.3, -0.4j)))
    theta0, phi = 0.9, 0.6
    w = cmath.exp(1j * theta0)
    lhs = lambda_at(p, theta0 + phi)
    rhs = lambda_at(Polynomial([ck * w**k for k, ck in enumerate(p.coeffs)]), phi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_zero_proximity_propagates():
    p = from_roots(RootForm(1.0, (1.0, 0.5)))
    with pytest.raises(ZeroProximity):
        full_report(p, 0.0, classify_zeros(p))


@given(
    st.lists(st.tuples(st.floats(0, 0.94), st.floats(0, 2 * math.pi)), min_size=1, max_size=7),
    st.floats(0, 2 * math.pi),
)
def test_lambda_dominates_coeff_chain(root_polar, theta):
    """The value-refined bound implies the coefficient bound through lambda."""
    roots = [math.sqrt(r2) * cmath.exp(1j * phi) for r2, phi in root_polar]
    p = from_roots(RootForm(1.0, roots))
    if abs(p(circle_point(theta))) <= 1e-3 * p.coeff_scale:
        return
    lam = lambda_at(p, theta)
    rhs = bound_value(p, circle_point(theta), lam)
    tol = 1e-9 * max(1.0, abs(lam))
    assert lam >= rhs - tol
    # reverse triangle step of the derivation
    w_mod = abs(p.coeffs[0] / p.leading)
    assert rhs >= 1.0 - (lam + 1.0) * w_mod - tol
    assert lam >= bound_coeff(p.endpoints) - tol
