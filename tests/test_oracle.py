import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from polyrot import (
    ArcContainsRoot,
    HypothesisViolated,
    Polynomial,
    RootForm,
    ZeroProximity,
    arc_increment,
    bound_arc,
    circle_point,
    classify_zeros,
    from_roots,
    rotation_speed,
    witness_arc,
)
from polyrot.bounds import grid_report
from polyrot.oracle import arg_derivative_fd, arg_derivative_fd_batch
from polyrot.roots import classify_root_list
from polyrot.poly import RootBatch, circle_grid
from polyrot.tolerances import ARC_EDGE_SLACK, ARC_INCREMENT_SLACK, CHECK_SLACK, ORACLE_AGREEMENT_TOL


def lambda_at(p, theta):
    """Excess rotation 2 (arg P)'_theta - n at theta, from the coefficients."""
    return 2.0 * rotation_speed(p, circle_point(theta)) - p.degree


# Rounding bound of the closed-form increment: a few ulps per zero term, summed exactly.
EXACT = 1e-12


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
    exact = rotation_speed(p, circle_point(theta))
    errors = [abs(arg_derivative_fd(p, theta, h) - exact) for h in (1e-3, 1e-4)]
    order = math.log10(errors[0] / errors[1])
    assert 1.7 <= order <= 2.3
    assert abs(arg_derivative_fd(p, theta, 1e-5) - exact) <= 1e-6


def test_extrapolated_oracle_matches_50_digits_near_the_circle():
    # zeros within 1e-3 of the circle, 10^U(-6, -3) off it inside and outside, at uniform angles as fuzz draws
    # them: the plain central difference at h = 1e-5 misses the 50-digit speed by more than the fuzz gate at some
    # angles, by its truncation error; the extrapolated batch oracle stays within the gate at every one
    rng = np.random.default_rng(1)
    forms, thetas = [], []
    for _ in range(400):
        d = int(rng.integers(1, 17))
        off = 10.0 ** rng.uniform(-6.0, -3.0, d)
        radius = np.where(rng.random(d) < 0.5, 1.0 - off, 1.0 + off)
        forms.append(RootForm(1.0, (radius * np.exp(2j * np.pi * rng.random(d))).tolist()))
        thetas.append(float(2.0 * np.pi * rng.random()))
    oracle, h, plain_misses = arg_derivative_fd_batch(RootBatch.snapped(forms), thetas).tolist(), mp.mpf(1e-5), 0
    with mp.workdps(50):
        for rf, theta, value in zip(forms, thetas, oracle):
            zeros, t = [mp.mpc(a) for a in rf.roots], mp.mpf(theta)
            z, zm, zp = mp.expj(t), mp.expj(t - h), mp.expj(t + h)
            exact = mp.fsum((z / (z - a)).real for a in zeros)
            plain = mp.fsum(mp.arg((zp - a) * mp.conj(zm - a)) for a in zeros) / (2 * h)
            plain_misses += abs(plain - exact) > ORACLE_AGREEMENT_TOL
            assert abs(value - exact) <= ORACLE_AGREEMENT_TOL, (rf, theta)
    assert plain_misses > 0


def test_arc_spec_validation():
    p = Polynomial([-0.5, 1])
    with pytest.raises(ValueError):
        arc_increment(0.0, 0.0, classify_zeros(p))
    with pytest.raises(ValueError):
        arc_increment(0.0, math.pi, classify_zeros(p))


def test_arc_increment_of_equality_family_is_alpha():
    p = from_roots(witness_arc(1.0, (-1,)))
    for alpha in (math.pi / 6, math.pi / 2):
        inc = arc_increment(0.0, alpha, classify_zeros(p))
        assert abs(inc - alpha) <= EXACT


def test_arc_increment_of_monomial():
    n, alpha = 4, 0.8
    p = Polynomial([0] * n + [1])
    inc = arc_increment(0.3, alpha, classify_zeros(p))
    assert abs(inc - n * alpha) <= EXACT


def test_arc_increment_first_order_taylor():
    p = from_roots(RootForm(1.0, (0.4, -0.5j, -0.6)))
    theta0 = 0.4
    lam = lambda_at(p, theta0)
    alpha = 1e-2
    inc = arc_increment(theta0, alpha, classify_zeros(p))
    # curvature oracle: finite difference of lambda along the circle
    dlam = (
        lambda_at(p, theta0 + 1e-4)
        - lambda_at(p, theta0 - 1e-4)
    ) / 2e-4
    assert abs(inc - lam * alpha) <= (abs(dlam) + 1.0) * alpha**2


def test_arc_rejects_root_on_open_arc():
    p = from_roots(RootForm(1.0, (cmath.exp(0.1j),)))
    with pytest.raises(ArcContainsRoot):
        arc_increment(0.0, 0.5, classify_zeros(p))


def test_arc_allows_root_at_endpoint():
    # zero exactly at the arc endpoint is outside the open arc
    alpha = 0.75
    p = from_roots(RootForm(1.0, (0j, cmath.exp(1j * alpha))))
    inc = arc_increment(0.0, alpha, classify_zeros(p))
    assert abs(inc - alpha) <= EXACT


def test_arc_zero_next_to_the_arc_measures_past_pi():
    # arg(z - a) turns by almost 2 pi as z passes the zero 1e-7 inside the circle, so the increment
    # reaches pi and the arc hypothesis fails
    p = from_roots(RootForm(1.0, ((1 - 1e-7) * cmath.exp(0.25j),)))
    cls = classify_zeros(p)
    assert arc_increment(0.0, 0.5, cls) >= math.pi
    with pytest.raises(HypothesisViolated):
        bound_arc(0.0, 0.5, None, cls)
    assert grid_report(p, [0.0], (0.5, None), CHECK_SLACK, cls).flags["arc_thm3"] == "na"


def test_arc_center_on_root_is_rejected():
    p = from_roots(RootForm(1.0, (1.0,)))
    with pytest.raises(ArcContainsRoot):
        arc_increment(0.0, 0.5, classify_zeros(p))


def _mp_increment(zeros, theta0, alpha):
    """50-digit reference: sup of |integral of the Poisson-sum lambda| from theta0 over [theta0 - alpha, theta0 + alpha].

    lambda is the t-derivative of the increment.  With every zero in the closed disk it is nonnegative, so the sup
    is taken at the arc ends.
    """
    with mp.workdps(50):
        zs = [mp.mpc(a) for a in zeros]
        lam = lambda t: mp.fsum((1 - abs(a) ** 2) / abs(mp.expj(t) - a) ** 2 for a in zs)  # noqa: E731
        best = mp.mpf(0)
        for sign in (1, -1):
            t = theta0 + sign * mp.mpf(alpha)
            # break the quadrature at the angles of zeros near the path, where lambda peaks
            peaks = sorted(mp.arg(a) for a in zs if min(theta0, t) < mp.arg(a) < max(theta0, t))
            best = max(best, abs(mp.quad(lam, [theta0, *(peaks if sign > 0 else peaks[::-1]), t])))
        return float(best)


def _random_zeros(rng, k, radii):
    return tuple(complex(r * cmath.exp(1j * phi))
                 for r, phi in zip(rng.uniform(*radii, k), rng.uniform(0.0, 2 * math.pi, k)))


def test_arc_increment_matches_mpmath():
    rng = np.random.default_rng(4096)

    def arc():
        return float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.05, 1.5))

    cases = [(_random_zeros(rng, int(rng.integers(1, 7)), (0.0, 0.98)), *arc()) for _ in range(8)]
    cases += [(_random_zeros(rng, int(rng.integers(1, 4)), (0.0, 0.98))
               + _random_zeros(rng, int(rng.integers(1, 3)), (1.02, 1.5)), *arc()) for _ in range(4)]
    # a zero between the chord and the arc at theta0 = 0, alone and beside a zero outside
    segment = 0.999 * cmath.exp(0.3j)
    cases += [((segment,), 0.0, 0.5), ((segment, 1.2 * cmath.exp(2.0j)), 0.0, 0.5)]
    for zeros, theta0, alpha in cases:
        cls = classify_root_list(zeros)
        if cls.outside:  # outside the closed disk the endpoint rule, and the paper's hypothesis, fail
            with pytest.raises(HypothesisViolated):
                arc_increment(theta0, alpha, cls)
            continue
        inc = arc_increment(theta0, alpha, cls)
        ref = _mp_increment(zeros, theta0, alpha)
        assert abs(inc - ref) <= EXACT * max(1.0, ref), (zeros, theta0, alpha, inc, ref)
        if segment in zeros:  # passing the zero turns arg(z - a) by more than pi
            assert math.pi < inc < 2 * math.pi


def _one_center_increment(cls, theta0, alpha):
    """The closed form at one center, in Python floats, term by term; None where an on-circle zero lies on the arc.

    This is `arc_increment` as it read before it took every center in one call, kept as the reference that the
    many-center evaluation must equal bit for bit.
    """
    for r in cls.on_circle:
        w = math.fmod(math.atan2(r.imag, r.real) - theta0 + math.pi, 2.0 * math.pi)
        if w <= 0.0:
            w += 2.0 * math.pi
        if abs(w - math.pi) < alpha - ARC_EDGE_SLACK:
            return None
    z0 = cmath.exp(1j * theta0)
    ends = []
    for t in (alpha, -alpha):
        z1 = cmath.exp(1j * (theta0 + t))
        terms = []
        for a in cls.inside:
            u0, v0, u1, v1 = z0.real - a.real, z0.imag - a.imag, z1.real - a.real, z1.imag - a.imag
            d = math.atan2(v1 * u0 - u1 * v0, u1 * u0 + v1 * v0)
            if d * t < 0.0:
                d += math.copysign(2.0 * math.pi, t)
            terms.append(2.0 * d - ((theta0 + t) - theta0))
        ends.append(abs(math.fsum(terms)))
    return max(ends)


def _one_center_bound(inc, alpha, beta):
    use = inc if beta is None else beta
    return None if inc is None or inc > use + ARC_INCREMENT_SLACK or use >= math.pi else (
        math.tan(0.5 * use) / math.tan(0.5 * alpha))


def _arc_cases():
    rng = np.random.default_rng(31)
    phi, alpha = 0.2, 0.4
    edge = [phi - alpha, phi + alpha, phi - alpha + 0.5 * ARC_EDGE_SLACK, phi - alpha + 2.0 * ARC_EDGE_SLACK]
    yield "in_disk", _random_zeros(rng, 9, (0.0, 0.98)), circle_grid(24), 0.3
    yield "in_disk_wide", _random_zeros(rng, 4, (0.0, 0.9)), circle_grid(7), 2.5
    # the grid puts the zero on some arcs and off others; the edge centers sit on and beside the ARC_EDGE_SLACK edge
    yield "on_circle", (cmath.exp(1j * phi), 0.5j, -0.3, cmath.exp(2.5j)), circle_grid(32) + edge, alpha
    yield "chord_arc", (0.999 * cmath.exp(0.3j), 0.2), [0.0, 0.3, 0.6, -1.0], 0.5


ARC_CASES = list(_arc_cases())


@pytest.mark.parametrize("name,zeros,centers,alpha", ARC_CASES, ids=[c[0] for c in ARC_CASES])
def test_arc_increment_at_many_centers_equals_one_center_closed_form(name, zeros, centers, alpha):
    p, cls = from_roots(RootForm(1.0, zeros)), classify_root_list(zeros)
    expected = [_one_center_increment(cls, c, alpha) for c in centers]
    assert [None if math.isnan(x) else x.hex() for x in arc_increment(np.array(centers), alpha, cls).tolist()] == [
        None if x is None else x.hex() for x in expected]
    for c, x in zip(centers, expected):
        if x is None:
            with pytest.raises(ArcContainsRoot):
                arc_increment(c, alpha, cls)
        else:
            assert arc_increment(c, alpha, cls).hex() == x.hex()
    if name == "on_circle":
        assert [x is None for x in expected[-4:]] == [False, False, False, True]
    if name == "chord_arc":
        assert expected[0] > math.pi
    for beta in (None, 0.3, 2.9):
        grid = grid_report(p, centers, (alpha, beta), CHECK_SLACK, cls)
        column = [None if math.isnan(x) else x.hex() for x in grid.bounds["arc_thm3"].tolist()]
        bounds = [_one_center_bound(x, alpha, beta) for x in expected]
        assert column == [None if b is None else b.hex() for b in bounds], beta
