import cmath
import math

import pytest

from polyrot import (
    ArcContainsRoot,
    Polynomial,
    RootForm,
    UnitCirclePoint,
    UnwrapAmbiguity,
    ZeroProximity,
    arc_increment,
    arg_derivative_fd,
    from_roots,
    lambda_at,
    rotation_speed,
    witness_arc,
)


def test_fd_monomial_is_exact():
    for n in (1, 4, 9):
        p = Polynomial([0] * n + [1])
        assert arg_derivative_fd(p, 0.7) == pytest.approx(n, abs=1e-9)


def test_fd_hand_values():
    assert arg_derivative_fd(Polynomial([-0.25, 0, 1]), math.pi / 2, 1e-5) == pytest.approx(1.6, abs=1e-8)
    assert arg_derivative_fd(Polynomial([-0.5, 1]), 0.0, 1e-5) == pytest.approx(2.0, abs=1e-8)


def test_fd_guards():
    with pytest.raises(ZeroProximity):
        arg_derivative_fd(Polynomial([-1, 1]), 0.0)
    with pytest.raises(ValueError):
        arg_derivative_fd(Polynomial([-0.5, 1]), 0.0, h=0.1)


def test_fd_second_order_convergence():
    p = from_roots(RootForm(1.0, (0.5, -0.3j, 0.2 + 0.4j)))
    theta = 0.7
    exact = rotation_speed(p, UnitCirclePoint(theta))
    errors = [abs(arg_derivative_fd(p, theta, h) - exact) for h in (1e-3, 1e-4)]
    order = math.log10(errors[0] / errors[1])
    assert 1.7 <= order <= 2.3
    assert abs(arg_derivative_fd(p, theta, 1e-5) - exact) <= 1e-6


def test_arc_spec_validation():
    p = Polynomial([-0.5, 1])
    with pytest.raises(ValueError):
        arc_increment(p, 0.0, 0.0)
    with pytest.raises(ValueError):
        arc_increment(p, 0.0, math.pi)


def test_arc_increment_of_equality_family_is_alpha():
    p = from_roots(witness_arc(1.0, (-1,)))
    for alpha in (math.pi / 6, math.pi / 2):
        inc = arc_increment(p, 0.0, alpha)
        assert abs(inc - alpha) <= 2 * math.pi / 4096


def test_arc_increment_of_monomial():
    n, alpha = 4, 0.8
    p = Polynomial([0] * n + [1])
    inc = arc_increment(p, 0.3, alpha)
    assert abs(inc - n * alpha) <= 2 * math.pi / 4096


def test_arc_increment_first_order_taylor():
    p = from_roots(RootForm(1.0, (0.4, -0.5j, -0.6)))
    theta0 = 0.4
    lam = lambda_at(p, UnitCirclePoint(theta0))
    alpha = 1e-2
    inc = arc_increment(p, theta0, alpha)
    # curvature oracle: finite difference of lambda along the circle
    dlam = (
        lambda_at(p, UnitCirclePoint(theta0 + 1e-4))
        - lambda_at(p, UnitCirclePoint(theta0 - 1e-4))
    ) / 2e-4
    assert abs(inc - lam * alpha) <= (abs(dlam) + 1.0) * alpha**2


def test_arc_increment_stable_under_doubling(monkeypatch):
    p = from_roots(RootForm(1.0, (0.5, -0.2 + 0.3j)))
    monkeypatch.setattr("polyrot.oracle.ARC_SAMPLES", 4096)
    a = arc_increment(p, 1.0, 1.2)
    monkeypatch.setattr("polyrot.oracle.ARC_SAMPLES", 8192)
    b = arc_increment(p, 1.0, 1.2)
    assert abs(a - b) < 2 * math.pi / 4096


def test_arc_rejects_root_on_open_arc():
    p = from_roots(RootForm(1.0, (cmath.exp(0.1j),)))
    with pytest.raises(ArcContainsRoot):
        arc_increment(p, 0.0, 0.5)


def test_arc_allows_root_at_endpoint():
    # zero exactly at the arc endpoint is outside the open arc
    alpha = 0.75
    p = from_roots(RootForm(1.0, (0j, cmath.exp(1j * alpha))))
    inc = arc_increment(p, 0.0, alpha)
    assert abs(inc - alpha) <= 2 * math.pi / 4096


def test_arc_unwrap_ambiguity_on_hopeless_resolution(monkeypatch):
    p = from_roots(RootForm(1.0, ((1 - 1e-7) * cmath.exp(0.25j),)))
    monkeypatch.setattr("polyrot.oracle.ARC_SAMPLES", 64)
    monkeypatch.setattr("polyrot.oracle.ARC_REFINEMENTS", 2)
    with pytest.raises(UnwrapAmbiguity):
        arc_increment(p, 0.0, 0.5)


def test_arc_center_on_root_is_rejected():
    p = from_roots(RootForm(1.0, (1.0,)))
    with pytest.raises(ArcContainsRoot):
        arc_increment(p, 0.0, 0.5)
