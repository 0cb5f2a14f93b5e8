import cmath
import math

import pytest

from polyrot import (
    BlaschkeProduct,
    DegenerateDerivative,
    HypothesisViolated,
    Polynomial,
    RootAtOne,
    RootForm,
    UnitCirclePoint,
    boundary_derivative_modulus,
    check_goryainov,
    check_mercer,
    check_mercer_remark,
    disk_self_map,
    f_prime_0,
    f_second_0,
    from_roots,
    lambda_at,
    normalized_self_map,
    witness_goryainov,
)


def random_disk_rootform(rng, max_degree=8, keep_off_one=True):
    n = int(rng.integers(1, max_degree + 1))
    roots = []
    while len(roots) < n:
        r = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if not keep_off_one or abs(r - 1.0) > 0.05:
            roots.append(r)
    return RootForm(complex(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), roots)


def test_normalized_map_matches_explicit_formula():
    a = 0.5
    f = normalized_self_map(RootForm(1.0, (a,)))
    for z in (0.3 + 0.2j, -0.7j, 0.9, cmath.exp(2.1j)):
        expected = z * (1 - a) / (1 - a) * (z - a) / (1 - a * z)
        assert f(z) == pytest.approx(expected, rel=1e-12)


def test_normalized_map_monomial_input():
    n = 3
    f = normalized_self_map(RootForm(1.0, (0j,) * n))
    assert abs(f(0j)) == 0.0
    assert f(1 + 0j) == pytest.approx(1.0)
    for z in (0.5j, -0.2 + 0.1j):
        assert f(z) == pytest.approx(z ** (n + 1), rel=1e-12)


def test_normalized_map_all_unimodular_is_identity():
    roots = tuple(cmath.exp(1j * t) for t in (2.0, 3.1, 4.5))
    f = normalized_self_map(RootForm(2j, roots))
    for z in (0.2, 0.5j, -0.4 + 0.4j, cmath.exp(1.0j)):
        assert f(z) == pytest.approx(z, rel=1e-12)


def test_normalized_map_rejects_root_at_one():
    with pytest.raises(RootAtOne):
        normalized_self_map(RootForm(1.0, (1.0, 0.5)))


def test_self_map_rejects_outside_zeros():
    with pytest.raises(HypothesisViolated):
        normalized_self_map(RootForm(1.0, (1.5,)))


def test_boundary_modulus_one(rng):
    for _ in range(10):
        f = normalized_self_map(random_disk_rootform(rng))
        for theta in rng.uniform(0, 2 * math.pi, size=8):
            assert abs(abs(f(cmath.exp(1j * theta))) - 1.0) <= 1e-10


def test_interior_maximum_modulus(rng):
    f = normalized_self_map(RootForm(1.0, (0.5, -0.3j, 0.2 + 0.6j)))
    for _ in range(1000):
        z = math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(f(z)) <= 1.0 + 1e-10


def test_boundary_derivative_hand_values():
    for n in (1, 2, 5):
        p = Polynomial([0] * n + [1])
        assert boundary_derivative_modulus(p, UnitCirclePoint(0.9)) == pytest.approx(n + 1)
    assert boundary_derivative_modulus(Polynomial([-0.5, 1]), UnitCirclePoint(0.0)) == pytest.approx(4.0)


def test_boundary_derivative_identity_with_lambda():
    p = from_roots(RootForm(1.3j, (0.4, -0.2j, 0.5)))
    pt = UnitCirclePoint(2.2)
    assert boundary_derivative_modulus(p, pt) == lambda_at(p, pt) + 1.0


def test_boundary_derivative_against_fd_of_map(rng):
    h = 1e-5
    for _ in range(15):
        rf = random_disk_rootform(rng)
        p = from_roots(rf)
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(cmath.exp(1j * theta))) <= 1e-3 * p.coeff_scale:
            continue
        f = normalized_self_map(rf)
        df = (f(cmath.exp(1j * (theta + h))) - f(cmath.exp(1j * (theta - h)))) / (2 * h)
        assert abs(boundary_derivative_modulus(p, UnitCirclePoint(theta)) - abs(df)) <= 1e-6


def test_f_prime_0_values():
    assert f_prime_0(RootForm(1.0, (0.5,))) == pytest.approx(-0.5)
    assert f_prime_0(RootForm(1.0, (0j, 0j, 0j))) == 0
    # matches the product leading * prod(-root) / conj(leading)
    rf = RootForm(2j, (0.3, -0.4j))
    expected = rf.leading * 0.3 * (-0.4j) / rf.leading.conjugate()
    assert f_prime_0(rf) == pytest.approx(expected, rel=1e-12)


def test_f_derivatives_match_finite_differences(rng):
    for _ in range(25):
        rf = random_disk_rootform(rng, max_degree=6, keep_off_one=False)
        f = disk_self_map(rf)
        h = 1e-5
        fd1 = (f(h + 0j) - f(-h + 0j)) / (2 * h)
        assert abs(f_prime_0(rf) - fd1) <= 1e-8
        h = 1e-4
        fd2 = (f(h + 0j) - 2 * f(0j) + f(-h + 0j)) / h**2
        assert abs(f_second_0(rf) - fd2) <= 1e-6


def test_f_second_0_values():
    assert f_second_0(RootForm(1.0, (0j, 0j))) == 0
    assert f_second_0(RootForm(1.0, (0.5,))) == pytest.approx(1.5)


def test_goryainov_identity_map():
    chk = check_goryainov(BlaschkeProduct(1.0, 1, ()), 1.0)
    assert chk.lhs == pytest.approx(0.0)
    assert chk.rhs == pytest.approx(0.0)
    assert chk.passed


def test_goryainov_equality_witnesses():
    for a in (0.0, 0.5, -0.7j, 0.3 + 0.4j):
        f = witness_goryainov(a)
        p = from_roots(RootForm(1.0, (a,)))
        fp1 = boundary_derivative_modulus(p, UnitCirclePoint(0.0))
        chk = check_goryainov(f, fp1)
        assert abs(chk.margin) <= 1e-9
        assert chk.passed


def test_goryainov_holds_on_random_constructions(rng):
    for _ in range(40):
        rf = random_disk_rootform(rng)
        p = from_roots(rf)
        if abs(p(1.0 + 0j)) <= 1e-3 * p.coeff_scale:
            continue
        f = normalized_self_map(rf)
        fp1 = boundary_derivative_modulus(p, UnitCirclePoint(0.0))
        assert check_goryainov(f, fp1).margin >= -1e-9


def test_goryainov_hypothesis_checks():
    f = normalized_self_map(RootForm(1.0, (0.5,)))
    with pytest.raises(HypothesisViolated):
        check_goryainov(f, 0.5)
    with pytest.raises(HypothesisViolated):
        check_goryainov(disk_self_map(RootForm(1j, (0.5,))), 4.0)  # f(1) != 1


def test_mercer_hand_values():
    chk = check_mercer(0j, 0j, 3.0)
    assert chk.rhs == pytest.approx(3.0)
    assert chk.passed

    rf = RootForm(1.0, (0.5,))
    chk = check_mercer(f_prime_0(rf), f_second_0(rf), boundary_derivative_modulus(from_roots(rf), UnitCirclePoint(0.0)))
    assert chk.rhs == pytest.approx(4 / 3)
    assert chk.lhs == pytest.approx(4.0)


def test_mercer_degenerate_derivative():
    with pytest.raises(DegenerateDerivative):
        check_mercer(1.0 + 0j, 0j, 2.0)


def test_mercer_sweep(rng):
    for _ in range(200):
        rf = random_disk_rootform(rng, keep_off_one=False)
        p = from_roots(rf)
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(cmath.exp(1j * theta))) <= 1e-3 * p.coeff_scale:
            continue
        chk = check_mercer(
            f_prime_0(rf),
            f_second_0(rf),
            boundary_derivative_modulus(p, UnitCirclePoint(theta)),
        )
        assert chk.margin >= -1e-9


def test_mercer_remark_values():
    p5 = from_roots(RootForm(1.0, tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))))
    chk = check_mercer_remark(p5)
    assert abs(chk.lhs) <= 1e-12
    assert abs(chk.rhs) <= 1e-12

    chk = check_mercer_remark(Polynomial([-0.5, 1]))
    assert chk.lhs == pytest.approx(0.75)
    assert chk.rhs == pytest.approx(0.75)
    assert chk.passed


def test_mercer_remark_sweep(rng):
    for _ in range(200):
        rf = random_disk_rootform(rng, max_degree=10, keep_off_one=False)
        assert check_mercer_remark(from_roots(rf)).passed


def test_mercer_remark_rejects_outside_zeros():
    with pytest.raises(HypothesisViolated):
        check_mercer_remark(Polynomial([-2, 1]))


def test_prefactor_must_be_unimodular():
    with pytest.raises(ValueError):
        BlaschkeProduct(0.5, 1, ())
