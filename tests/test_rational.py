import cmath
import math

import mpmath
import pytest

from polyrot import (
    Polynomial,
    RationalFunction,
    ZeroProximity,
    arg_derivative,
    circle_point,
    classify_numerator,
    from_roots,
    pole_speed,
    rotation_speed,
    witness_rational,
)
from polyrot.rational import check_rotation_bounds
from polyrot.poly import RootForm


def lambda_at(p, theta):
    """Excess rotation 2 (arg P)'_theta - n at theta, from the coefficients."""
    return 2.0 * rotation_speed(p, circle_point(theta)) - p.degree


def fd_arg_derivative(func, theta, h=1e-6):
    """Finite-difference oracle for arg f(e^{i theta}) of any callable."""
    hi = func(cmath.exp(1j * (theta + h)))
    lo = func(cmath.exp(1j * (theta - h)))
    d = math.atan2(hi.imag, hi.real) - math.atan2(lo.imag, lo.real)
    d = math.fmod(d + math.pi, 2 * math.pi)
    if d <= 0:
        d += 2 * math.pi
    return (d - math.pi) / (2 * h)


def test_pole_product_boundary_modulus_and_positivity(rng):
    for _ in range(10):
        poles = [rng.uniform(1.2, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(1, 5)))]
        for theta in rng.uniform(0, 2 * math.pi, size=100):
            z = cmath.exp(1j * theta)
            speed = pole_speed(poles, z)
            explicit = sum((abs(a) ** 2 - 1.0) / abs(z - a) ** 2 for a in poles)
            assert speed == pytest.approx(explicit, rel=1e-10)
            assert speed > 0.0


def value_at(r, theta):
    """(arg R)'_theta at theta, the value `check_rotation_bounds` reports."""
    return check_rotation_bounds(r, theta, classify_numerator(r)).value


@pytest.mark.parametrize(
    "pole",
    [1.0 + 1e-11, cmath.exp(1j) * (1.0 + 1e-11), 1.0 + 1e-6, cmath.exp(2.5j) * (1.0 + 1e-6), 1.2j,
     4.0 * cmath.exp(-0.7j), 1e6, -1e300j],
    ids=["1+1e-11", "1+1e-11_off_axis", "1+1e-6", "1+1e-6_off_axis", "1.2", "4", "1e6", "1e300"],
)
def test_pole_speed_matches_mpmath(rng, pole):
    # (|a|^2 - 1)/|e^{i theta} - a|^2 at 50 digits, from the stored pole and angle.  The double point e^{i theta}
    # and |a| are each off by about an ulp, which moves the term by u |a|/(|a| - 1) relative at most, since
    # |z - a| >= |a| - 1; the seeded angles include ones within 1e-12 to 1e-1 of the pole's own angle
    a = complex(pole)
    am = mpmath.mpc(a.real, a.imag)
    near = cmath.phase(a) + rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-12.0, -1.0, 100)
    tol = 8 * 2.0**-53 * abs(a) / (abs(a) - 1.0)
    with mpmath.workdps(50):
        for theta in [*rng.uniform(0.0, 2.0 * math.pi, 200), *near]:
            exact = (abs(am) ** 2 - 1) / abs(mpmath.expj(float(theta)) - am) ** 2
            assert abs(pole_speed([a], cmath.exp(1j * theta)) - exact) <= tol * exact


def test_arg_derivative_of_pole_product_form():
    r = RationalFunction([1, -2], [2.0])
    assert value_at(r, 0.0) == pytest.approx(3.0)


def test_arg_derivative_constant_numerator():
    r = RationalFunction([2.5])
    assert value_at(r, 0.3) == 0.0


def test_arg_derivative_matches_fd(rng):
    for _ in range(15):
        m = int(rng.integers(1, 5))
        roots = [1.4 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(m)]
        poles = [rng.uniform(1.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(1, 4)))]
        r = RationalFunction(from_roots(RootForm(1.0, roots)).coeffs, poles)
        theta = float(rng.uniform(0, 2 * math.pi))
        num = Polynomial(r.numerator)
        if abs(num(cmath.exp(1j * theta))) <= 1e-3 * num.coeff_scale:
            continue
        oracle = fd_arg_derivative(lambda z: num(z) / math.prod(z - a for a in poles), theta)
        assert value_at(r, theta) == pytest.approx(oracle, abs=1e-6)


def test_arg_derivative_is_numerator_speed_minus_pole_terms(rng):
    for _ in range(20):
        num = Polynomial(tuple(complex(re, im) for re, im in rng.normal(size=(int(rng.integers(2, 9)), 2))))
        poles = [rng.uniform(1.1, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(0, 4)))]
        theta = float(rng.uniform(0, 2 * math.pi))
        z = circle_point(theta)
        r = RationalFunction(num.coeffs, poles)
        value = value_at(r, theta)
        assert value == arg_derivative(len(poles), rotation_speed(num, z), pole_speed(poles, z))
        # each pole's Re(z / (z - a)) is half of 1 minus its Poisson term, up to rounding
        expected = rotation_speed(num, z)
        for a in poles:
            expected -= (z / (z - a)).real
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_zero_proximity_guard():
    r = RationalFunction([-1, 1], [2.0])  # numerator zero at z = 1
    with pytest.raises(ZeroProximity):
        check_rotation_bounds(r, 0.0, classify_numerator(r))


def test_pole_product_itself_gives_half_its_speed_as_margin():
    # For R = B the lower comparison holds with margin exactly (arg B)'/2.
    poles = [2.0, 1.5j, -3 + 0.5j]
    lead = 1.0 + 0j
    for a in poles:
        lead *= -complex(a).conjugate()
    from polyrot.poly import expand_monic

    num = [lead * c for c in expand_monic([1 / complex(a).conjugate() for a in poles])]
    r = RationalFunction(num, poles)
    cls = classify_numerator(r)
    for theta in (0.3, 1.0, 2.5):
        rep = check_rotation_bounds(r, theta, cls)
        assert rep.lower_applicable and not rep.upper_applicable
        assert rep.lower_margin == pytest.approx(
            0.5 * pole_speed(poles, circle_point(theta)), rel=1e-9
        )
        assert rep.lower_margin > 0.0


def test_hand_checked_interior_case():
    r = RationalFunction([-0.5, 1], [2.0])
    rep = check_rotation_bounds(r, math.pi, classify_numerator(r))
    assert rep.value == pytest.approx(1 / 3)
    assert rep.reference == pytest.approx(1 / 6)
    assert rep.lower_applicable
    assert rep.lower_margin == pytest.approx(1 / 6)
    assert rep.lower_pass


def test_equality_family(rng):
    for _ in range(10):
        poles = [rng.uniform(1.3, 3.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(1, 5)))]
        r = witness_rational(poles, cmath.exp(1j * rng.uniform(0, 2 * math.pi)), cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        cls, checked = classify_numerator(r), 0
        for theta in rng.uniform(0, 2 * math.pi, size=40):
            try:
                rep = check_rotation_bounds(r, float(theta), cls)
            except ZeroProximity:
                continue
            checked += 1
            assert rep.lower_applicable and rep.upper_applicable
            assert abs(rep.lower_margin) <= 1e-8
            assert abs(rep.upper_margin) <= 1e-8
        assert checked >= 30


def test_pole_free_reduction_matches_polynomial_bound():
    p = from_roots(RootForm(1.0, (0.4, -0.3j)))
    r = RationalFunction(p.coeffs, [])
    theta = 0.8
    rep = check_rotation_bounds(r, theta, classify_numerator(r))
    assert rep.reference == pytest.approx(p.degree / 2)
    assert rep.lower_margin == pytest.approx(0.5 * lambda_at(p, theta), rel=1e-12)


def test_outside_zone_upper_bound(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        roots = [rng.uniform(1.05, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(m)]
        poles = [rng.uniform(1.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(1, 4)))]
        r = RationalFunction(from_roots(RootForm(1.0, roots)).coeffs, poles)
        theta = float(rng.uniform(0, 2 * math.pi))
        num = Polynomial(r.numerator)
        if abs(num(cmath.exp(1j * theta))) <= 1e-3 * num.coeff_scale:
            continue
        rep = check_rotation_bounds(r, theta, classify_numerator(r))
        assert rep.upper_applicable
        assert not rep.lower_applicable
        assert rep.upper_margin >= -1e-9


def test_rational_function_validation():
    with pytest.raises(ValueError):
        RationalFunction([1, 1], [0.5])  # pole inside
    with pytest.raises(ValueError):
        RationalFunction([], [2.0])
    with pytest.raises(ValueError):
        RationalFunction([0.0], [2.0])


def test_rational_serialization_round_trip():
    r = RationalFunction([1 - 1j, 2], [2.0, -1.5j])
    back = RationalFunction.from_json(r.to_json())
    assert back.numerator == r.numerator
    assert back.poles == r.poles


def test_margins_are_half_the_numerator_excess_rotation(rng):
    # (arg R)' - (m - n + (arg B)')/2 = (arg P)' - m/2: the pole terms cancel, so the
    # lower margin is lambda_P / 2 of the numerator and the upper margin its negative, bit for bit.
    lower = upper = 0
    for _ in range(300):
        radius = (0.05, 0.98) if rng.uniform() < 0.5 else (1.02, 3.0)
        m = int(rng.integers(1, 9))
        roots = [rng.uniform(*radius) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(m)]
        poles = [rng.uniform(1.1, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(int(rng.integers(0, 5)))]
        num = from_roots(RootForm(complex(rng.normal(), rng.normal()), roots))
        theta = float(rng.uniform(0, 2 * math.pi))
        r = RationalFunction(num.coeffs, poles)
        try:
            rep = check_rotation_bounds(r, theta, classify_numerator(r))
        except ZeroProximity:
            continue
        half_lambda = 0.5 * lambda_at(num, theta)
        if rep.lower_margin is not None:
            lower += 1
            assert rep.lower_margin == half_lambda
        if rep.upper_margin is not None:
            upper += 1
            assert rep.upper_margin == -half_lambda
    assert lower >= 100 and upper >= 100
