import cmath
import math

import numpy as np
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
    rotation_speed,
)
from polyrot import corpus
from polyrot.bounds import full_report, verdict
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
    assert bound_coeff(Polynomial([-0.5, 1]).ct) == pytest.approx(1 / 3)
    assert bound_coeff(fifth_roots_of_unity().ct) == pytest.approx(0.0, abs=1e-15)
    assert bound_coeff(Polynomial([0, 0, 0, 1]).ct) == pytest.approx(1.0)
    # a zero at the origin gives c0 = 0, with two zeros at 1e200 whose product passes the double range: both bounds
    # read exactly 1, as for every c0 = 0, and divide nothing by 0; |c0/cn| past the double range reads -inf
    ct = RootForm(1.0, (0j, 1e200, 1e200)).ct
    assert ct == (1.0, math.inf, 0.0)
    assert bound_coeff(ct) == bound_sqrt_weak(ct) == bound_coeff(Polynomial([0, 1]).ct) == 1.0
    assert bound_coeff(RootForm(1.0, (1e200, 1e200)).ct) == -1.0
    assert bound_sqrt_weak(RootForm(1.0, (1e200, 1e200)).ct) == -math.inf


def test_bound_sqrt_weak_below_coeff(rng):
    assert bound_sqrt_weak(Polynomial([-0.5, 1]).ct) == pytest.approx(1 - math.sqrt(0.5))
    for _ in range(50):
        n = int(rng.integers(1, 9))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_sqrt_weak(p.ct) <= bound_coeff(p.ct) + 1e-12


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
    assert bound_coeff2(fifth_roots_of_unity().ct) == 0.0
    assert bound_coeff2(Polynomial([-0.5, 1]).ct) == pytest.approx(1 / 3)
    p = Polynomial([0, 0, 1])
    assert bound_coeff2(p.ct) == pytest.approx(2.0)
    assert lambda_at(p, 0.7) == pytest.approx(2.0)


def test_bound_coeff2_degenerate_denominator_is_nan():
    assert math.isnan(bound_coeff2(Polynomial([-2, 1]).ct))


def test_bound_coeff2_dominates_coeff_in_disk(rng):
    for _ in range(300):
        n = int(rng.integers(1, 11))
        roots = [math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        p = from_roots(RootForm(1.0, roots))
        assert bound_coeff2(p.ct) >= bound_coeff(p.ct) - 1e-12


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
    assert bound == bound_zero_free(p.ct, p.degree) == pytest.approx(1 / 3)
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
    from polyrot.oracle import arg_derivative_fd

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


SLACK = 2.0**-30  # a power of two, so that every margin below is exact
# lambda, speed, the coeff and zero-free bounds, lower_ok, upper_ok, and the flags of coeff and upper_zero_free
GATE_CASES = [
    (0.0, 0.0, SLACK, -SLACK, True, True, "pass", "pass"),  # margins of exactly -slack max(1, |lambda|) pass
    (0.0, 0.0, math.nextafter(SLACK, 1.0), math.nextafter(-SLACK, -1.0), True, True, "fail", "fail"),  # one below
    (-4.0, 0.0, 4.0 * SLACK - 4.0, -4.0 * SLACK, True, True, "pass", "pass"),
    (-4.0, 0.0, 0.0, math.nextafter(-4.0 * SLACK, -1.0), True, True, "fail", "fail"),
    (0.5, 0.5, 0.25, 1.0, False, False, "na", "na"),  # neither hypothesis holds
    (math.nan, math.nan, 0.25, 1.0, True, True, "fail", "fail"),  # an applicable nan margin fails
    (0.5, 0.5, math.inf, 1.0, True, True, "na", "pass"),  # a lower bound that is not finite does not apply
]


def _hex(x):
    return None if x is None else float(x).hex()


def test_verdict_is_the_same_gate_at_a_point_and_on_arrays():
    for lam, speed, coeff, zero_free, *_ in GATE_CASES[:4:2]:
        assert lam - coeff == zero_free - speed == -SLACK * max(1.0, abs(lam))
    lam, speed, coeff, zero_free, lower_ok, upper_ok, _, _ = map(np.array, zip(*GATE_CASES))
    # classic reads nan, so it is na everywhere and the status is that of the two bounds under test
    on_arrays = verdict(None, speed, lam, (math.nan, coeff), None, zero_free, lower_ok, upper_ok, SLACK,
                        np.zeros(len(lam), bool))
    for k, (lam, speed, coeff, zero_free, lower_ok, upper_ok, *flags) in enumerate(GATE_CASES):
        at_point = verdict(0.0, speed, lam, (math.nan, coeff), None, zero_free, lower_ok, upper_ok, SLACK)
        for key, flag, margin in zip(("coeff", "upper_zero_free"), flags, (lam - coeff, zero_free - speed)):
            assert type(at_point.flags[key]) is str and at_point.flags[key] == on_arrays.flags[key][k] == flag
            assert at_point.margins[key] is None or type(at_point.margins[key]) is float
            assert _hex(at_point.margins[key]) == (None if flag == "na" else _hex(margin)), (k, key)
            assert _hex(on_arrays.margins[key][k]) == _hex(math.nan if flag == "na" else margin), (k, key)
        assert at_point.status == on_arrays.status[k] == ("fail" if "fail" in flags else "pass")


def test_verdict_keeps_none_where_a_bound_applies_nowhere():
    nowhere, lam = np.array([False, False]), np.array([0.5, 1.0])
    at_point = verdict(0.0, 0.5, 0.5, (0.0, 0.25), math.nan, 2.0, False, False, SLACK)
    on_arrays = verdict(None, lam, lam, (0.0, np.array([0.25, math.inf])), np.full(2, math.nan), 2.0, nowhere,
                        nowhere, SLACK)
    for report in (at_point, on_arrays):
        for key in ("classic", "coeff", "arc_thm3", "upper_zero_free"):
            assert report.margins[key] is None and report.flags[key] == "na", key
        assert report.bounds["classic"] == 0.0 and report.bounds["upper_zero_free"] == 2.0
    # a bound left out has no value either
    left_out = verdict(0.0, 0.5, 0.5, (), None, None, True, True, SLACK)
    assert set(left_out.bounds.values()) == set(left_out.margins.values()) == {None}
    assert set(left_out.flags.values()) == {"na"}


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
    assert lam >= bound_coeff(p.ct) - tol
