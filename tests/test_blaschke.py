import cmath
import math

import numpy as np
import pytest

from polyrot import (
    HypothesisViolated,
    Polynomial,
    RootForm,
    bound_coeff,
    bound_coeff2,
    check_goryainov,
    check_mercer_remark,
    classify_zeros,
    from_roots,
    witness_goryainov,
)
from polyrot import corpus
from polyrot.roots import classify_root_list
from helpers import SelfMap, lambda_at


def random_disk_rootform(rng, max_degree=8, keep_off_one=True):
    n = int(rng.integers(1, max_degree + 1))
    roots = []
    while len(roots) < n:
        r = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if not keep_off_one or abs(r - 1.0) > 0.05:
            roots.append(r)
    return RootForm(complex(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), roots)


def normalized_map(rf):
    """z prod (z - a_k)/(1 - conj(a_k) z) over rf's zeros, all in the open disk, with the prefactor giving f(1) = 1."""
    pre = 1.0 + 0j
    for a in rf.roots:
        pre *= (1.0 - a.conjugate()) / (1.0 - a)
    return SelfMap(pre, rf.roots)


def disk_map(rf):
    """z prod (z - a_k)/(1 - conj(a_k) z) over rf's zeros, all in the open disk, with f'(0) = c0 / conj(cn)."""
    return SelfMap(rf.leading / rf.leading.conjugate(), rf.roots)


def mercer_rhs(f, h=1e-4):
    """Mercer's bound 1 + 2 (1 - |f'(0)|)^2 / (1 - |f'(0)|^2 + |f''(0)/2|) on |f'| along the circle.

    f''(0) comes from a central second difference of the map itself.
    """
    a = abs(f.derivative_at_zero())
    half_f2 = abs(f(h + 0j) - 2 * f(0j) + f(-h + 0j)) / (2 * h * h)
    return 1.0 + 2.0 * (1.0 - a) ** 2 / (1.0 - a * a + half_f2)


def test_normalized_map_matches_explicit_formula():
    # the normalized map of z - a is Goryainov's extremal function
    a = 0.5
    f = normalized_map(witness_goryainov(a))
    for z in (0.3 + 0.2j, -0.7j, 0.9, cmath.exp(2.1j)):
        expected = z * (1 - a) / (1 - a) * (z - a) / (1 - a * z)
        assert f(z) == pytest.approx(expected, rel=1e-12)


def test_normalized_map_monomial_input():
    n = 3
    f = SelfMap(1.0, (0j,) * n)
    assert abs(f(0j)) == 0.0
    assert f(1 + 0j) == pytest.approx(1.0)
    for z in (0.5j, -0.2 + 0.1j):
        assert f(z) == pytest.approx(z ** (n + 1), rel=1e-12)


def test_boundary_modulus_one(rng):
    for _ in range(10):
        f = normalized_map(random_disk_rootform(rng))
        for theta in rng.uniform(0, 2 * math.pi, size=8):
            assert abs(abs(f(cmath.exp(1j * theta))) - 1.0) <= 1e-10


def test_interior_maximum_modulus(rng):
    f = normalized_map(RootForm(1.0, (0.5, -0.3j, 0.2 + 0.6j)))
    for _ in range(1000):
        z = math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(f(z)) <= 1.0 + 1e-10


def test_boundary_derivative_hand_values():
    for n in (1, 2, 5):
        p = Polynomial([0] * n + [1])
        assert lambda_at(p, 0.9) + 1.0 == pytest.approx(n + 1)
    assert lambda_at(Polynomial([-0.5, 1]), 0.0) + 1.0 == pytest.approx(4.0)


def test_boundary_derivative_against_fd_of_map(rng):
    h = 1e-5
    for _ in range(15):
        rf = random_disk_rootform(rng)
        p = from_roots(rf)
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(cmath.exp(1j * theta))) <= 1e-3 * p.coeff_scale:
            continue
        f = normalized_map(rf)
        df = (f(cmath.exp(1j * (theta + h))) - f(cmath.exp(1j * (theta - h)))) / (2 * h)
        assert abs(lambda_at(p, theta) + 1.0 - abs(df)) <= 1e-6


def test_f_prime_0_values():
    assert SelfMap(1.0, (0.5,)).derivative_at_zero() == -0.5
    assert SelfMap(1.0, (0j, 0j, 0j)).derivative_at_zero() == 0
    # the self-map of zeros in the open disk has f'(0) = c0 / conj(cn)
    rf = RootForm(2j, (0.3, -0.4j))
    c = from_roots(rf).coeffs
    assert disk_map(rf).derivative_at_zero() == pytest.approx(c[0] / c[-1].conjugate(), rel=1e-12)


def test_f_derivatives_match_finite_differences(rng):
    h = 1e-5
    for _ in range(25):
        rf = random_disk_rootform(rng, max_degree=6, keep_off_one=False)
        f = disk_map(rf)
        fd1 = (f(h + 0j) - f(-h + 0j)) / (2 * h)
        assert abs(f.derivative_at_zero() - fd1) <= 1e-8


def test_goryainov_identity_map():
    assert SelfMap(1.0, ()).goryainov(1.0) == (0.0, 0.0)


def test_goryainov_equality_witnesses():
    for a in (0.0, 0.5, -0.7j, 0.3 + 0.4j):
        rf = witness_goryainov(a)
        lhs, rhs = normalized_map(rf).goryainov(lambda_at(from_roots(rf), 0.0) + 1.0)
        assert abs(rhs - lhs) <= 1e-9


def test_goryainov_holds_on_random_constructions(rng):
    for _ in range(40):
        rf = random_disk_rootform(rng)
        p = from_roots(rf)
        if abs(p(1.0 + 0j)) <= 1e-3 * p.coeff_scale:
            continue
        f = normalized_map(rf)
        lhs, rhs = f.goryainov(lambda_at(p, 0.0) + 1.0)
        assert rhs - lhs >= -1e-9


def test_goryainov_hypothesis_checks():
    f = normalized_map(RootForm(1.0, (0.5,)))
    with pytest.raises(HypothesisViolated):
        f.goryainov(0.5)
    with pytest.raises(HypothesisViolated):
        SelfMap(-1.0, (0.5,)).goryainov(4.0)  # f(1) != 1
    with pytest.raises(HypothesisViolated):
        check_goryainov(0.5, 1.0, 0.0, 2.0)  # f(0) != 0


def test_mercer_hand_values():
    rf = RootForm(1.0, (0j, 0j))  # f(z) = z^3: f'(0) = f''(0) = 0 and the bound 3 is attained everywhere
    assert mercer_rhs(disk_map(rf)) == pytest.approx(3.0)
    assert lambda_at(from_roots(rf), 1.1) + 1.0 == pytest.approx(3.0)

    rf = RootForm(1.0, (0.5,))  # f'(0) = -1/2, f''(0)/2 = 3/4
    assert mercer_rhs(disk_map(rf)) == pytest.approx(4 / 3)
    assert lambda_at(from_roots(rf), 0.0) + 1.0 == pytest.approx(4.0)


def test_mercer_sweep(rng):
    # Mercer's bound on the self-map is the second coefficient bound: its right side is 1 + bound_coeff2
    for _ in range(200):
        rf = random_disk_rootform(rng, keep_off_one=False)
        p = from_roots(rf)
        rhs = 1.0 + bound_coeff2(p.ct)
        assert abs(mercer_rhs(disk_map(rf)) - rhs) <= 1e-6
        theta = float(rng.uniform(0, 2 * math.pi))
        if abs(p(cmath.exp(1j * theta))) <= 1e-3 * p.coeff_scale:
            continue
        assert lambda_at(p, theta) + 1.0 - rhs >= -1e-9


def test_mercer_remark_values():
    # all zeros on the circle: both sides vanish
    p5 = from_roots(RootForm(1.0, tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))))
    margin, passed = check_mercer_remark(p5.ct, not classify_zeros(p5).outside)
    assert abs(margin) <= 1e-12 and passed

    # one zero: both sides are |cn|^2 - |c0|^2 = 0.75, so c = t = 1/3 (both divided by (|cn| + |c0|)^2 = 2.25)
    p1 = Polynomial([-0.5, 1])
    assert check_mercer_remark(p1.ct, not classify_zeros(p1).outside) == (0.0, True)

    # zeros +-1/2: c = (1 - 1/4)/(1 + 1/4) against a vanishing cross term
    p2 = Polynomial([-0.25, 0, 1])
    assert check_mercer_remark(p2.ct, not classify_zeros(p2).outside) == (0.6, True)


def test_mercer_remark_sweep(rng):
    for _ in range(200):
        rf = random_disk_rootform(rng, max_degree=10, keep_off_one=False)
        p = from_roots(rf)
        assert check_mercer_remark(p.ct, not classify_zeros(p).outside)[1]


def test_mercer_remark_rejects_outside_zeros():
    p = Polynomial([-2, 1])
    with pytest.raises(HypothesisViolated):
        check_mercer_remark(p.ct, False)


def test_mercer_margin_has_the_sign_of_coeff2_minus_coeff():
    # coeff2 - coeff = 2c^2/(c + t) - c = c (c - t)/(c + t), and c - t is Mercer's margin, so fuzz's Mercer tally
    # can read the sign from the report; the two disagree only where the margin is rounding.  Both read (c, t) from
    # the zeros, as fuzz does, and from the expanded coefficients, as scan --coeffs does
    rng = np.random.default_rng(1013)
    rounding = agree = 0
    for _ in range(2000):
        rf, p = corpus.random_polynomial(rng, int(rng.integers(1, 17)), "in_disk")
        for ct in (rf.ct, p.ct):
            margin, _ = check_mercer_remark(ct, not classify_root_list(rf.roots).outside)
            if abs(margin) <= 1e-14 * max(1.0, ct[1]):  # a few dozen ulps; only degree 1, an equality, gets here
                rounding += 1
                continue
            assert math.copysign(1.0, margin) == math.copysign(1.0, bound_coeff2(ct) - bound_coeff(ct)), rf
            agree += 1
    assert agree > 3000, (agree, rounding)
