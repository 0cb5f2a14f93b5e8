import cmath
import math

import pytest
from hypothesis import given, strategies as st

from polyrot import (
    HypothesisViolated,
    Polynomial,
    RootForm,
    UnitCirclePoint,
    ZeroProximity,
    bound_arc,
    bound_coeff,
    bound_coeff2,
    bound_sqrt_weak,
    bound_value,
    bound_zero_free,
    from_roots,
    full_report,
    lambda_at,
    rotation_speed,
)
from polyrot.report import BOUND_KEYS


def fifth_roots_of_unity():
    return from_roots(RootForm(1.0, tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))))


def test_lambda_monomial():
    for n in (1, 2, 6):
        p = Polynomial([0] * n + [1])
        assert lambda_at(p, UnitCirclePoint(1.3)) == pytest.approx(n, abs=1e-12)


def test_lambda_vanishes_for_circle_zeros():
    p = fifth_roots_of_unity()
    assert abs(lambda_at(p, UnitCirclePoint(math.pi / 5))) <= 1e-9


def test_lambda_hand_value():
    assert lambda_at(Polynomial([-0.5, 1]), UnitCirclePoint(0.0)) == pytest.approx(3.0)


def test_bound_coeff_values():
    assert bound_coeff(Polynomial([-0.5, 1])) == pytest.approx(1 / 3)
    assert bound_coeff(fifth_roots_of_unity()) == pytest.approx(0.0, abs=1e-15)
    assert bound_coeff(Polynomial([0, 0, 0, 1])) == pytest.approx(1.0)


def test_bound_sqrt_weak_below_coeff(rng):
    assert bound_sqrt_weak(Polynomial([-0.5, 1])) == pytest.approx(1 - math.sqrt(0.5))
    for _ in range(50):
        n = int(rng.integers(1, 9))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_sqrt_weak(p) <= bound_coeff(p) + 1e-12


def test_bound_value_hand_cases():
    p = Polynomial([0, 0, 1])
    pt = UnitCirclePoint(0.0)
    assert bound_value(p, pt, lambda_at(p, pt)) == pytest.approx(1.0)

    p = Polynomial([-0.5, 1])
    lam = lambda_at(p, pt)
    rhs = bound_value(p, pt, lam)
    assert rhs == pytest.approx(3.0)
    assert lam == pytest.approx(rhs)  # equality family member


def test_bound_value_equality_with_unimodular_tail():
    p = from_roots(RootForm(1.0, (0.4, cmath.exp(1j * math.pi / 3))))
    pt = UnitCirclePoint(0.0)
    lam = lambda_at(p, pt)
    assert abs(lam - bound_value(p, pt, lam)) <= 1e-8


def test_bound_coeff2_values():
    assert bound_coeff2(fifth_roots_of_unity()) == 0.0
    assert bound_coeff2(Polynomial([-0.5, 1])) == pytest.approx(1 / 3)
    p = Polynomial([0, 0, 1])
    assert bound_coeff2(p) == pytest.approx(2.0)
    assert lambda_at(p, UnitCirclePoint(0.7)) == pytest.approx(2.0)


def test_bound_coeff2_degenerate_denominator_is_nan():
    assert math.isnan(bound_coeff2(Polynomial([-2, 1])))


def test_bound_coeff2_dominates_coeff_in_disk(rng):
    for _ in range(300):
        n = int(rng.integers(1, 11))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_coeff2(p) >= bound_coeff(p) - 1e-12


def test_bound_arc_equal_angles():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    pt = UnitCirclePoint(0.0)
    alpha = math.pi / 2
    assert bound_arc(p, pt, alpha, alpha) == pytest.approx(1.0)
    assert lambda_at(p, pt) == pytest.approx(1.0)


def test_bound_arc_closed_form():
    # circle zeros far from the arc: the tracked increment is 0, any beta works
    p = from_roots(RootForm(1.0, (cmath.exp(2.8j), cmath.exp(-2.8j))))
    value = bound_arc(p, UnitCirclePoint(0.0), math.pi / 2, math.pi / 4)
    assert value == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert lambda_at(p, UnitCirclePoint(0.0)) <= value


def test_bound_arc_rejects_bad_hypotheses():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    pt = UnitCirclePoint(0.0)
    with pytest.raises(ValueError):
        bound_arc(p, pt, math.pi, 0.5)
    with pytest.raises(ValueError):
        bound_arc(p, pt, 0.5, math.pi)
    # measured increment 2*alpha exceeds beta = alpha for the pure square
    with pytest.raises(HypothesisViolated):
        bound_arc(Polynomial([0, 0, 1]), pt, 0.5, 0.5)
    # root on the open arc
    with pytest.raises(HypothesisViolated):
        bound_arc(from_roots(RootForm(1.0, (cmath.exp(0.1j),))), pt, 0.5, 0.5)


def test_upper_bound_zero_free_hand_case():
    p = Polynomial([-2, 1])
    pt = UnitCirclePoint(0.0)
    bound = full_report(p, pt).bounds["upper_zero_free"]
    assert bound == bound_zero_free(p) == pytest.approx(1 / 3)
    assert rotation_speed(p, pt) == pytest.approx(-1.0)


def test_upper_bound_equality_for_circle_zeros():
    p = fifth_roots_of_unity()
    pt = UnitCirclePoint(math.pi / 5)
    bound = full_report(p, pt).bounds["upper_zero_free"]
    assert bound == pytest.approx(2.5)
    assert rotation_speed(p, pt) == pytest.approx(2.5, abs=1e-9)


def test_upper_bound_rejects_interior_zeros():
    rep = full_report(Polynomial([-0.5, 1]), UnitCirclePoint(0.0))
    assert rep.flags["upper_zero_free"] == "na"
    assert rep.bounds["upper_zero_free"] is None and rep.margins["upper_zero_free"] is None


def test_upper_bound_respects_oracle(rng):
    from polyrot import arg_derivative_fd

    p = from_roots(RootForm(1.0, (2.0, 3.0)))
    pt = UnitCirclePoint(math.pi)
    speed = rotation_speed(p, pt)
    assert abs(speed - arg_derivative_fd(p, math.pi)) <= 1e-6
    assert speed <= full_report(p, pt).bounds["upper_zero_free"] + 1e-9


def test_full_report_reference_point():
    rep = full_report(Polynomial([-0.5, 1]), UnitCirclePoint(0.0))
    d = rep.as_dict()
    assert d["lambda"] == pytest.approx(3.0)
    assert d["bounds"]["classic"] == 0.0
    assert d["bounds"]["coeff"] == pytest.approx(1 / 3)
    assert d["bounds"]["sqrt_weak"] == pytest.approx(1 - math.sqrt(0.5))
    assert d["bounds"]["value_thm1"] == pytest.approx(3.0)
    assert d["bounds"]["coeff2_thm2"] == pytest.approx(1 / 3)
    for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
        assert d["flags"][key] == "pass"
    assert d["flags"]["upper_zero_free"] == "na"
    assert d["flags"]["arc_thm3"] == "na"
    assert d["status"] == "pass"


def test_full_report_gates_lower_bounds_off_outside():
    p = from_roots(RootForm(1.0, (1.5, 0.3)))
    rep = full_report(p, UnitCirclePoint(0.4))
    d = rep.as_dict()
    for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
        assert d["flags"][key] == "na"
    assert d["status"] == "pass"


def test_full_report_random_disk_sweep(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(UnitCirclePoint(theta).z)) <= 1e-3 * p.coeff_scale:
            continue
        d = full_report(p, UnitCirclePoint(theta)).as_dict()
        for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
            assert d["flags"][key] == "pass", (key, d)


def test_full_report_with_arc():
    p = from_roots(RootForm(1.0, (0j, -1.0)))
    rep = full_report(p, UnitCirclePoint(0.0), arc=(math.pi / 2, None))
    d = rep.as_dict()
    assert d["bounds"]["arc_thm3"] == pytest.approx(1.0, abs=1e-3)
    assert d["flags"]["arc_thm3"] == "pass"
    # the measured increment is about alpha = pi/2, so beta = 0.5 voids the arc hypothesis
    na = full_report(p, UnitCirclePoint(0.0), arc=(math.pi / 2, 0.5)).as_dict()
    assert (na["flags"]["arc_thm3"], na["bounds"]["arc_thm3"], na["margins"]["arc_thm3"]) == ("na", None, None)
    assert na == full_report(p, UnitCirclePoint(0.0)).as_dict()


def test_report_keys_match_wire_schema():
    rep = full_report(Polynomial([-0.5, 1]), UnitCirclePoint(0.0))
    d = rep.as_dict()
    assert tuple(d["bounds"].keys()) == BOUND_KEYS
    assert tuple(d["margins"].keys()) == BOUND_KEYS
    assert tuple(d["flags"].keys()) == BOUND_KEYS


def test_scale_invariance(rng):
    p = from_roots(RootForm(1.0, (0.2, -0.5j, 0.7)))
    pt = UnitCirclePoint(1.1)
    base = full_report(p, pt).as_dict()
    for c in (2.0, -3j, 0.7 * cmath.exp(1.9j)):
        scaled = full_report(Polynomial([c * ck for ck in p.coeffs]), pt).as_dict()
        assert scaled["lambda"] == pytest.approx(base["lambda"], rel=1e-12)
        for key in ("coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
            assert scaled["bounds"][key] == pytest.approx(base["bounds"][key], rel=1e-12, abs=1e-13)


def test_rotation_covariance():
    p = from_roots(RootForm(1.0, (0.3, -0.4j)))
    theta0, phi = 0.9, 0.6
    w = cmath.exp(1j * theta0)
    lhs = lambda_at(p, UnitCirclePoint(theta0 + phi))
    rhs = lambda_at(Polynomial([ck * w**k for k, ck in enumerate(p.coeffs)]), UnitCirclePoint(phi))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_zero_proximity_propagates():
    p = from_roots(RootForm(1.0, (1.0, 0.5)))
    with pytest.raises(ZeroProximity):
        full_report(p, UnitCirclePoint(0.0))


@given(
    st.lists(st.tuples(st.floats(0, 0.94), st.floats(0, 2 * math.pi)), min_size=1, max_size=7),
    st.floats(0, 2 * math.pi),
)
def test_lambda_dominates_coeff_chain(root_polar, theta):
    """The value-refined bound implies the coefficient bound through lambda."""
    roots = [math.sqrt(r2) * cmath.exp(1j * phi) for r2, phi in root_polar]
    p = from_roots(RootForm(1.0, roots))
    pt = UnitCirclePoint(theta)
    if abs(p(pt.z)) <= 1e-3 * p.coeff_scale:
        return
    lam = lambda_at(p, pt)
    rhs = bound_value(p, pt, lam)
    tol = 1e-9 * max(1.0, abs(lam))
    assert lam >= rhs - tol
    # reverse triangle step of the derivation
    w_mod = abs(p.constant / p.leading)
    assert rhs >= 1.0 - (lam + 1.0) * w_mod - tol
    assert lam >= bound_coeff(p) - tol
